package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"rhsc"
	"rhsc/internal/core"
	"rhsc/internal/hetero"
	"rhsc/internal/state"
)

const (
	// n3d is the blast3d resolution: 48³ interior zones.
	n3d = 48
	// checkStep is the step after which an untraced run's fingerprint is
	// compared with the serial replay's. A serial replay of a whole
	// episode costs about as much as the measured phase, so only traced
	// runs compare final states.
	checkStep = 8
	// extraBuilds are set-up timings taken before the episodes, each of
	// which adds one more.
	extraBuilds = 6
	// maxRun caps a measured phase that waits for enough samples.
	maxRun = 120 * time.Second
)

// uniform3d steps blast3d at 48³ through rhsc.NewSim with the library
// defaults on nproc threads.
func uniform3d(r *run) error { return steps3d(r, false) }

// hetero3d steps the same problem through rhsc.NewHeteroSim on the
// catalogue fleet cpu1,gpu under the routed policy.
func hetero3d(r *run) error { return steps3d(r, true) }

// build3d makes the blast3d simulation, recovers its primitives once
// (the first-step recovery every driver performs), and for hetero3d
// attaches the fleet.
func build3d(cfl float64, threads int, het bool) (*rhsc.Sim, *hetero.Executor, error) {
	o := rhsc.Options{Problem: "blast3d", N: n3d, Threads: threads, CFL: cfl}
	if het {
		h, err := rhsc.NewHeteroSim(o, hetero.Routed, rhsc.HostCPU(1), rhsc.GPU())
		if err != nil {
			return nil, nil, err
		}
		h.Solver.RecoverPrimitives()
		return h.Sim, h.Exec, nil
	}
	sim, err := rhsc.NewSim(o)
	if err != nil {
		return nil, nil, err
	}
	sim.Solver.RecoverPrimitives()
	return sim, nil, nil
}

func steps3d(r *run, het bool) error {
	// The seed picks the Courant factor, which changes the trajectory
	// but not the work per step.
	cfl := 0.36 + 0.04*r.rng.Float64()

	// Untraced phase: the end-to-end figures, or in a traced run the
	// baseline of trace.overhead. Each episode builds the problem and
	// steps it to its canonical end time; episodes repeat until the
	// budget is spent and the percentiles have enough samples.
	budget, minSteps := r.budget, samplesFor(90)
	if r.trace {
		budget, minSteps = 0, samplesFor(50)+10
	}
	var setupS, stepMs []float64
	for i := 0; i < extraBuilds; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, _, err := build3d(cfl, r.threads, het); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	var busy time.Duration
	var zu int64
	var fp uint64
	var c2p recoveryStats
	var virtual float64
	var sim *rhsc.Sim
	var ex *hetero.Executor
	var mallocs uint64
	var heap *heapSampler
	if !r.trace {
		heap = startHeapSampler()
	}
	start := time.Now()
	done := func() bool {
		return len(stepMs) >= minSteps && time.Since(start) >= budget || time.Since(start) > maxRun
	}
	for !done() {
		runtime.GC()
		t0 := time.Now()
		s, e, err := build3d(cfl, r.threads, het)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		sim, ex = s, e
		c0, zu0 := c2pStats(sim.Solver), sim.ZoneUpdates()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for sim.Time() < sim.Problem.TEnd && !done() {
			t0 := time.Now()
			_, err := sim.Step()
			d := time.Since(t0)
			if !r.op(err) {
				break
			}
			busy += d
			stepMs = append(stepMs, ms(d))
			if len(stepMs) == checkStep {
				fp = fingerprint(sim.Solver)
			}
		}
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		zu += sim.ZoneUpdates() - zu0
		c2p = c2p.add(c2pStats(sim.Solver).sub(c0))
		if ex != nil {
			virtual += ex.VirtualTime()
		}
	}
	peak := heap.stopMB()
	steps := len(stepMs)
	if steps == 0 {
		return errors.New("no step completed")
	}

	// Correctness: the serial replay reaches the same state bit for bit.
	// An untraced run compares the state after checkStep steps; a traced
	// run replays the whole first episode serially and also compares its
	// final state with the traced nproc replay's below.
	ref, _, err := build3d(cfl, 1, false)
	if err != nil {
		return err
	}
	serial, err := newReplayer(ref.Solver, nil)
	if err != nil {
		return err
	}
	var serialFp uint64
	for len(serial.stepMs) < checkStep || r.trace && ref.Time() < ref.Problem.TEnd {
		if !r.op(serial.step()) {
			break
		}
		if len(serial.stepMs) == checkStep {
			serialFp = fingerprint(ref.Solver)
		}
	}
	r.check(steps >= checkStep && fp == serialFp,
		"%s fingerprint after %d steps differs from the serial replay", r.workload, checkStep)
	r.check(c2p.failures == 0, "%d primitive recoveries failed", c2p.failures)

	if !r.trace {
		r.set("setup_s", median(setupS))
		r.set("mzups", float64(zu)/busy.Seconds()/1e6)
		r.tail("step_ms", stepMs, 50, 90)
		r.tail("job_latency_ms", stepMs, 50, 90)
		r.set("urgent_latency_ms_p50", r.values["job_latency_ms_p50"])
		r.set("peak_heap_mb", peak)
		return nil
	}

	// Traced phase: replay the same episode on nproc threads, timing
	// every call into the solver from outside.
	sim, ex, err = build3d(cfl, r.threads, het)
	if err != nil {
		return err
	}
	var spans *sweepSpans
	if het {
		spans = wrapSweepExec(sim.Solver)
	}
	traced, err := newReplayer(sim.Solver, spans)
	if err != nil {
		return err
	}
	for sim.Time() < sim.Problem.TEnd && r.op(traced.step()) {
	}
	r.check(len(traced.stepMs) == len(serial.stepMs) && fingerprint(sim.Solver) == fingerprint(ref.Solver),
		"%s final fingerprint after %d steps differs from the serial replay's after %d",
		r.workload, len(traced.stepMs), len(serial.stepMs))
	lt := traced.lt
	n := float64(len(traced.stepMs))
	perStep := func(d time.Duration) float64 { return ms(d) / n }
	r.set("core.rhs_ms_per_step", perStep(lt.rhs))
	r.set("core.rhs_share", float64(lt.rhs)/float64(lt.wall))
	r.set("core.rk_ms_per_step", perStep(lt.rk))
	r.set("core.cfl_ms_per_step", perStep(lt.cfl))
	r.set("c2p.recover_ms_per_step", perStep(lt.c2p))
	r.set("c2p.share", float64(lt.c2p)/float64(lt.wall))
	// Bytes each step's calls read and write, counted from the array
	// sizes: copy 2, two RHS 2+2, AXPY 3, combine 4, two recoveries 3+3
	// passes over a full field.
	r.set("core.bytes_per_step_computed", float64(19*8*len(sim.Grid.U.Raw())))
	r.set("core.allocs_per_step", float64(mallocs)/float64(steps))
	if c2p.calls > 0 {
		r.set("c2p.iters_per_call", float64(c2p.iters)/float64(c2p.calls))
	}
	r.set("c2p.bisections_per_step", float64(c2p.bisections)/float64(steps))
	r.set("c2p.failures", float64(c2p.failures))
	covered := lt.rhs + lt.rk + lt.cfl + lt.c2p + lt.execSelf + lt.kernel
	r.set("trace.closure", float64(covered)/float64(lt.wall))
	r.set("trace.overhead", median(traced.stepMs)/median(stepMs))
	if het {
		r.set("hetero.exec_self_ms_per_step", perStep(lt.execSelf))
		r.set("hetero.kernel_ms_per_step", perStep(lt.kernel))
		r.set("hetero.virtual_s", virtual/float64(steps))
		r.set("hetero.imbalance", ex.Imbalance())
		for _, d := range ex.Report() {
			if d.Kind == hetero.GPU {
				r.set("hetero.gpu_share", d.Share)
			}
		}
	} else {
		r.set("par.serial_step_ms", median(serial.stepMs))
		r.set("par.efficiency", median(serial.stepMs)/(float64(r.threads)*median(traced.stepMs)))
	}
	r.note("traced_steps", len(traced.stepMs))
	return nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// fingerprint hashes the solution time and the full conserved and
// primitive fields (FNV-1a), as rhsc.JobRunner.Fingerprint does: equal
// fingerprints mean bitwise-identical solutions.
func fingerprint(s *core.Solver) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	put(s.Time())
	for _, v := range s.G.U.Raw() {
		put(v)
	}
	for _, v := range s.G.W.Raw() {
		put(v)
	}
	return h.Sum64()
}

// recoveryStats is a snapshot of the primitive-recovery counters.
type recoveryStats struct{ calls, iters, bisections, failures int64 }

func c2pStats(s *core.Solver) recoveryStats {
	calls, iters, bis, _, fails := s.C2P.Stat.Snapshot()
	return recoveryStats{calls, iters, bis, fails}
}

func (a recoveryStats) sub(b recoveryStats) recoveryStats {
	return recoveryStats{a.calls - b.calls, a.iters - b.iters, a.bisections - b.bisections, a.failures - b.failures}
}

func (a recoveryStats) add(b recoveryStats) recoveryStats {
	return recoveryStats{a.calls + b.calls, a.iters + b.iters, a.bisections + b.bisections, a.failures + b.failures}
}

// layerTimes accumulates the time of each layer's calls over replayed
// steps. rhs is the RHS calls' self time; under a wrapped SweepExec the
// strip executor's self time and the kernel time under it are split out.
type layerTimes struct {
	rhs, rk, cfl, c2p time.Duration
	execSelf, kernel  time.Duration
	wall              time.Duration // Σ step spans
}

// replayer advances a solver one SSP-RK2 step at a time through its
// public stage operations, in the order core.Solver.Step performs them:
// MaxDt → CopyFrom → ComputeRHS → AXPY → RecoverPrimitives → ComputeRHS →
// LinComb2AXPY → AccumulateCFLNext → RecoverPrimitives. Each call is
// timed from outside; the result is bitwise identical to Step.
type replayer struct {
	s       *core.Solver
	u0, rhs *state.Fields
	base    time.Time
	spans   *sweepSpans
	lt      layerTimes
	stepMs  []float64
}

func newReplayer(s *core.Solver, spans *sweepSpans) (*replayer, error) {
	if s.Cfg.Integrator != core.RK2 || s.Cfg.FailSafe || s.Cfg.StrictChecks || s.Cfg.Source != nil {
		return nil, errors.New("the replay covers the plain SSP-RK2 pipeline only")
	}
	p := &replayer{
		s: s, u0: state.NewFields(s.G.U.N), rhs: state.NewFields(s.G.U.N),
		base: time.Now(), spans: spans,
	}
	if spans != nil {
		spans.base = p.base
	}
	return p, nil
}

func (p *replayer) now() time.Duration { return time.Since(p.base) }

func (p *replayer) step() error {
	s, u := p.s, p.s.G.U
	t0 := p.now()
	dt := s.MaxDt()
	t1 := p.now()
	if dt <= 0 {
		return fmt.Errorf("replay: non-positive dt %v", dt)
	}
	p.u0.CopyFrom(u)
	t2 := p.now()
	s.ComputeRHS(p.rhs)
	t3 := p.now()
	u.AXPY(dt, p.rhs)
	t4 := p.now()
	s.RecoverPrimitives()
	t5 := p.now()
	s.ComputeRHS(p.rhs)
	t6 := p.now()
	u.LinComb2AXPY(0.5, p.u0, 0.5, dt, p.rhs)
	t7 := p.now()
	s.AccumulateCFLNext()
	s.RecoverPrimitives()
	t8 := p.now()
	raw := u.Raw()
	for i := 0; i < len(raw); i += 97 {
		if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
			return core.ErrNonFinite
		}
	}
	s.SetTime(s.Time() + dt)
	s.St.Steps.Add(1)
	t9 := p.now()

	lt := &p.lt
	lt.cfl += t1 - t0
	lt.rk += (t2 - t1) + (t4 - t3) + (t7 - t6)
	lt.c2p += (t5 - t4) + (t8 - t7)
	for _, iv := range []interval{{t2, t3}, {t5, t6}} {
		if p.spans == nil {
			lt.rhs += iv.len()
			continue
		}
		execSelf, kernel, execUnion := p.spans.within(iv)
		lt.rhs += iv.len() - execUnion
		lt.execSelf += execSelf
		lt.kernel += kernel
	}
	if p.spans != nil {
		p.spans.reset()
	}
	lt.wall += t9 - t0
	p.stepMs = append(p.stepMs, ms(t9-t0))
	return nil
}

// sweepSpans records the strip executor's calls (Config.SweepExec) and
// the kernel callbacks they run, which may overlap on several workers.
type sweepSpans struct {
	mu      sync.Mutex
	base    time.Time
	exec    []interval
	kernels []interval
}

// wrapSweepExec interposes timing around the solver's installed
// SweepExec and the sweep callback it is handed.
func wrapSweepExec(s *core.Solver) *sweepSpans {
	sp := &sweepSpans{}
	inner := s.Cfg.SweepExec
	s.Cfg.SweepExec = func(d state.Direction, nStrips int, sweep func(lo, hi int)) {
		t0 := time.Since(sp.base)
		inner(d, nStrips, func(lo, hi int) {
			k0 := time.Since(sp.base)
			sweep(lo, hi)
			k1 := time.Since(sp.base)
			sp.mu.Lock()
			sp.kernels = append(sp.kernels, interval{k0, k1})
			sp.mu.Unlock()
		})
		t1 := time.Since(sp.base)
		sp.mu.Lock()
		sp.exec = append(sp.exec, interval{t0, t1})
		sp.mu.Unlock()
	}
	return sp
}

// within splits the executor calls recorded inside parent into executor
// self time and kernel time, and returns the wall time those calls cover.
func (sp *sweepSpans) within(parent interval) (execSelf, kernel, execUnion time.Duration) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	inside := func(ivs []interval) []interval {
		var out []interval
		for _, iv := range ivs {
			if iv.start >= parent.start && iv.end <= parent.end {
				out = append(out, iv)
			}
		}
		return out
	}
	execs, kernels := inside(sp.exec), inside(sp.kernels)
	for _, e := range execs {
		self := selfTime(e, kernels)
		execSelf += self
		kernel += e.len() - self
	}
	return execSelf, kernel, unionLen(execs, parent)
}

// reset forgets the recorded calls.
func (sp *sweepSpans) reset() {
	sp.mu.Lock()
	sp.exec, sp.kernels = sp.exec[:0], sp.kernels[:0]
	sp.mu.Unlock()
}
