package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 50}, {90, 90}, {99, 99}, {1, 1}} {
		if got, _ := percentile(xs, c.p); got != c.want {
			t.Errorf("p%d = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestPercentileTailCondition(t *testing.T) {
	for _, c := range []struct {
		n, p int
		ok   bool
	}{
		{100, 90, true}, {99, 90, false}, {20, 50, true}, {19, 50, false},
		{1000, 99, true}, {999, 99, false}, {0, 50, false},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := percentile(xs, c.p); ok != c.ok {
			t.Errorf("n=%d p%d: tail condition %v, want %v", c.n, c.p, ok, c.ok)
		}
	}
	if got := samplesFor(90); got != 100 {
		t.Errorf("samplesFor(90) = %d, want 100", got)
	}
	if got := samplesFor(50); got != 20 {
		t.Errorf("samplesFor(50) = %d, want 20", got)
	}
}

func TestTailValueCapsShortSamples(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if v, capped := tailValue(xs, 90); !capped || v != 9 {
		t.Errorf("tailValue of 8 samples = %v, %v; want the maximum, capped", v, capped)
	}
	long := make([]float64, 200)
	for i := range long {
		long[i] = float64(i + 1)
	}
	if v, capped := tailValue(long, 90); capped || v != 180 {
		t.Errorf("tailValue of 200 samples = %v, %v; want 180, not capped", v, capped)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"setup_s", "core.rhs_ms_per_step", "rhsc.sod1d.build_ms", "p-90", "9lives"} {
		if !validName(s) {
			t.Errorf("%q rejected", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", string(make([]byte, 65))} {
		if validName(s) {
			t.Errorf("%q accepted", s)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	parent := ms(0, 100)
	for _, c := range []struct {
		name     string
		children []interval
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{ms(10, 20), ms(30, 50)}, 70},
		{"overlapping count once", []interval{ms(10, 40), ms(20, 50), ms(45, 60)}, 50},
		{"nested", []interval{ms(10, 60), ms(20, 30)}, 50},
		{"clipped to the parent", []interval{ms(-20, 10), ms(90, 130)}, 80},
		{"outside", []interval{ms(120, 130)}, 100},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestScheduleReproducible(t *testing.T) {
	span := 10 * time.Second
	a, b := schedule(7, arrivalRate, span), schedule(7, arrivalRate, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, arrivalRate, span)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if want := int(arrivalRate * span.Seconds()); len(a) != want {
		t.Fatalf("%d arrivals, want %d", len(a), want)
	}
	counts := make([]int, len(classes))
	for i, x := range a {
		if x.at < 0 || x.at >= span+urgentDelay || i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrival %d at %v is out of order or outside the span", i, x.at)
		}
		if x.urgent != (i%urgentEvery == urgentEvery-1) {
			t.Fatalf("arrival %d urgent=%v", i, x.urgent)
		}
		// A burst: two jobs together, the urgent one urgentDelay later.
		if x.urgent && (a[i-1].at != a[i-2].at || x.at != a[i-2].at+urgentDelay) {
			t.Fatalf("urgent arrival %d at %v does not follow a pair at %v, %v", i, x.at, a[i-2].at, a[i-1].at)
		}
		counts[x.class]++
	}
	for c, n := range counts {
		if d := n - len(a)/len(classes); d < -1 || d > 1 {
			t.Errorf("class %s drawn %d times of %d", classes[c].name, n, len(a))
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// the program reports from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
			if !validName(w.name) {
				t.Errorf("invalid metric name %q", w.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no driver", w.Name)
		}
	}
}
