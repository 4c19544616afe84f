package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostRecord describes the machine a result came from, so results of
// different hosts can be told apart and normalised by the calibration
// figure. It is informational and never gated.
func hostRecord() map[string]any {
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":      cpuModel(),
		"caches":         cacheSizes(),
		"calibration_ns": calibrate(),
	}
}

// cpuModel reads the first model name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes lists cpu0's caches as "L<level> <type> <size>".
func cacheSizes() []string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []string
	for _, d := range dirs {
		read := func(name string) string {
			b, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return "?"
			}
			return strings.TrimSpace(string(b))
		}
		out = append(out, "L"+read("level")+" "+read("type")+" "+read("size"))
	}
	return out
}

// cpuTicks reads the steal ticks and the total ticks of all CPUs from
// /proc/stat; ok is false where the kernel does not report them. The
// share of steal over a run tells a run slowed by other guests on the
// same machine from a run slowed by the program.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// calibrationSink keeps the calibration loop from being optimised away.
var calibrationSink float64

// calibrate times a fixed scalar kernel — a Newton iteration for a square
// root, the shape of the primitive-recovery inner loop — and returns the
// median nanoseconds per iteration over seven repetitions.
func calibrate() float64 {
	const iters = 2_000_000
	var ns []float64
	for rep := 0; rep < 7; rep++ {
		t0 := time.Now()
		x, a := 1.0, 2.0
		for i := 0; i < iters; i++ {
			x = 0.5 * (x + a/x)
			a += 1e-9
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/iters)
		calibrationSink += x
	}
	return median(ns)
}

// heapSampler records the largest live-heap figure seen while it runs,
// polling the runtime's heap object bytes without stopping the world.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the peak in MiB; a nil sampler
// reads 0.
func (h *heapSampler) stopMB() float64 {
	if h == nil {
		return 0
	}
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
