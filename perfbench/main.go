// Command perfbench is the repository's benchmark. It runs one named
// workload through the rhsc library for a fixed wall-clock budget,
// checks the workload's output, and prints every metric by name with its
// unit:
//
//	perfbench --workload uniform3d --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set of BENCHMARK.json; with --trace 1 they are the
// per-layer set, from a separate traced run that times calls into each
// layer's public functions from outside the program. Earlier lines carry
// the host record and informational figures. The serve workload starts
// this binary a second time as its load generator (loadgen.go). run.sh
// builds and runs it; README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mzups", "Mzone/s"},
	{"step_ms_p50", "ms"},
	{"step_ms_p90", "ms"},
	{"job_latency_ms_p50", "ms"},
	{"job_latency_ms_p90", "ms"},
	{"urgent_latency_ms_p50", "ms"},
	{"peak_heap_mb", "MB"},
}

// jobClasses are the serve workload's job kinds; each gets the rhsc.<c>.*
// per-layer metrics.
var jobClasses = []string{"sod1d", "blast2d", "amr2d"}

// perLayer lists the metrics a --trace 1 run reports on every workload.
// A layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.rhs_ms_per_step", "ms"},
		{"core.rhs_share", "ratio"},
		{"core.rk_ms_per_step", "ms"},
		{"core.cfl_ms_per_step", "ms"},
		{"core.bytes_per_step_computed", "bytes"},
		{"core.allocs_per_step", "count"},
		{"c2p.recover_ms_per_step", "ms"},
		{"c2p.share", "ratio"},
		{"c2p.iters_per_call", "count"},
		{"c2p.bisections_per_step", "count"},
		{"c2p.failures", "count"},
		{"par.serial_step_ms", "ms"},
		{"par.efficiency", "ratio"},
		{"hetero.exec_self_ms_per_step", "ms"},
		{"hetero.kernel_ms_per_step", "ms"},
		{"hetero.virtual_s", "s"},
		{"hetero.imbalance", "ratio"},
		{"hetero.gpu_share", "ratio"},
		{"amr.stage_ms", "ms"},
		{"amr.recover_ms", "ms"},
		{"amr.ghost_ms", "ms"},
		{"amr.combine_ms", "ms"},
		{"amr.regrid_ms", "ms"},
		{"amr.encode_ms", "ms"},
		{"amr.encode_bytes", "bytes"},
		{"amr.leaves", "count"},
		{"damr.rebalance_ms", "ms"},
		{"damr.migrated_bytes", "bytes"},
		{"damr.checkpoint_bytes", "bytes"},
		{"damr.imbalance", "ratio"},
		{"damr.virtual_s", "s"},
		{"damr.efficiency", "ratio"},
		{"cluster.sent", "count"},
		{"cluster.sent_bytes", "bytes"},
		{"cluster.retransmits", "count"},
		{"cluster.dup_discarded", "count"},
		{"cluster.timeouts", "count"},
		{"cluster.useful_frac", "ratio"},
		{"serve.admit_ms_p50", "ms"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.queue_wait_ms_p90", "ms"},
		{"serve.run_ms_p50", "ms"},
		{"serve.preemptions", "count"},
		{"durable.drain_ms", "ms"},
		{"durable.boot_ms", "ms"},
		{"durable.spooled_jobs", "count"},
		{"durable.commit_bytes", "bytes"},
	}
	for _, c := range jobClasses {
		defs = append(defs,
			metricDef{"rhsc." + c + ".build_ms", "ms"},
			metricDef{"rhsc." + c + ".step_ms", "ms"},
			metricDef{"rhsc." + c + ".checkpoint_ms", "ms"},
			metricDef{"rhsc." + c + ".checkpoint_bytes", "bytes"},
			metricDef{"rhsc." + c + ".resume_ms", "ms"},
			metricDef{"rhsc." + c + ".result_ms", "ms"},
			metricDef{"rhsc." + c + ".guard_overhead", "ratio"},
		)
	}
	return append(defs,
		metricDef{"loadgen.lag_ms_max", "ms"},
		metricDef{"loadgen.queue_depth_end", "count"},
		metricDef{"trace.closure", "ratio"},
		metricDef{"trace.overhead", "ratio"},
	)
}()

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"uniform3d": uniform3d,
	"hetero3d":  hetero3d,
	"damr2d":    damr2d,
	"serve":     serveWorkload,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	budget   time.Duration // the measured phase's wall-clock budget
	trace    bool
	threads  int
	rng      *rand.Rand

	attempted, failed int
	failures          []string
	values            map[string]float64
	info              map[string]any
}

// set records a metric value by name.
func (r *run) set(name string, v float64) { r.values[name] = v }

// note records an informational figure printed before the result.
func (r *run) note(name string, v any) { r.info[name] = v }

// op counts one attempted operation, and a failure when err is non-nil.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
		return false
	}
	return true
}

// check counts one correctness check as an operation that fails when ok
// is false.
func (r *run) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("check failed: "+format, args...)
	}
	r.op(err)
}

// tail records name_pN of the samples for each percentile N under the
// percentile rule, noting the sample count and any capped percentile.
func (r *run) tail(name string, xs []float64, pcts ...int) {
	r.note(name+".samples", len(xs))
	for _, p := range pcts {
		v, capped := tailValue(xs, p)
		key := fmt.Sprintf("%s_p%d", name, p)
		r.set(key, v)
		if capped {
			r.note(key+".capped_at_max", true)
		}
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == loadgenArg {
		if err := loadgenMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench loadgen:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload name: uniform3d, hetero3d, damr2d or serve")
	seed := flag.Int64("seed", 1, "seed from which the workload's inputs are made")
	seconds := flag.Int("seconds", 12, "wall-clock seconds the measured phase runs")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload {uniform3d|hetero3d|damr2d|serve} --seed N --seconds S --trace {0|1}")
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		threads:  runtime.NumCPU(),
		rng:      rand.New(rand.NewSource(*seed)),
		values:   map[string]float64{},
		info:     map[string]any{},
	}
	emit("host", hostRecord())
	steal0, total0, ticksOK := cpuTicks()
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if steal1, total1, ok := cpuTicks(); ticksOK && ok && total1 > total0 {
		r.note("host_steal_frac", float64(steal1-steal0)/float64(total1-total0))
	}
	out, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench:", f)
	}
	if r.attempted > 0 {
		r.note("error_rate", float64(r.failed)/float64(r.attempted))
	}
	emit("info", r.info)
	emit("", out)
}

// result assembles the final line: every metric of the requested set,
// by name and unit.
func (r *run) result() (result, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricOut{},
	}
	if r.attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.name) {
			return out, fmt.Errorf("invalid metric name %q", d.name)
		}
		known[d.name] = true
	}
	var stray []string
	for name := range r.values {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return out, fmt.Errorf("metrics outside the declared sets: %s", strings.Join(stray, ", "))
	}
	return out, nil
}

// emit prints one JSON line, wrapped in an object under key when key is
// non-empty.
func emit(key string, v any) {
	var payload any = v
	if key != "" {
		payload = map[string]any{key: v}
	}
	b, err := json.Marshal(payload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
