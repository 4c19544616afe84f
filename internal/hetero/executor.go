package hetero

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"rhsc/internal/core"
	"rhsc/internal/metrics"
	"rhsc/internal/par"
	"rhsc/internal/state"
)

// Policy selects how strips are scheduled across devices.
type Policy int

// Scheduling policies.
const (
	// Static partitions each sweep proportionally to raw ZoneRate, one
	// kernel per device per sweep. Minimal launch overhead, but blind to
	// transfer costs, so mismatched devices imbalance.
	Static Policy = iota
	// Dynamic feeds fixed-size chunks to whichever device would finish
	// earliest (deterministic list scheduling of a work queue), adapting
	// to effective — not nominal — device speed.
	Dynamic
	// Routed plans through the health-scored router: placements score
	// affinity (working-set residency and interconnect locality),
	// fragmentation (kernel-count penalty), and equivalent-capacity
	// substitution (observed rate × health weights), and degraded or
	// flaky devices are drained out of rotation mid-run (router.go).
	Routed
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	default:
		return "routed"
	}
}

// routedKernelsPerDevice is the routed planner's target kernel count per
// device per phase: chunks scale with capacity share so fast devices get
// few large contiguous kernels (low fragmentation) and slow ones small
// top-ups.
const routedKernelsPerDevice = 4

// assignment is a strip range given to one device.
type assignment struct {
	dev    int
	lo, hi int
}

// Executor dispatches the solver's strip sweeps onto a device set and
// accounts virtual time. Attach it to one solver (or to every leaf
// solver of an AMR tree via amr.Config.Attach); afterwards the solver's
// normal Step/Advance run heterogeneously.
type Executor struct {
	Devices []*Device
	Policy  Policy
	// ChunkStrips is the dynamic-policy chunk size (strips per kernel);
	// <= 0 selects max(1, nStrips/(8·ndev)).
	ChunkStrips int

	// Trace, when true, records one event per kernel for timeline
	// (Gantt) export via TraceEvents / WriteTraceCSV.
	Trace bool

	// Fault, when non-nil, deterministically fails one device mid-run;
	// its kernels re-execute on the healthy set (see DeviceFault).
	Fault *DeviceFault
	// Chaos, when non-nil, is the deterministic chaos schedule: device
	// deaths, latency spikes, and flapping health keyed to sweep phases
	// (see chaos.go).
	Chaos *ChaosSchedule
	// Stats counts injected device faults, kernel re-executions, and the
	// degraded-mode flag; NewExecutor points it at private storage, but
	// callers may share one across executors.
	Stats *metrics.FaultCounters

	router *Router
	pool   *par.Pool
	own    metrics.FaultCounters

	// mu guards every field below — the virtual makespan, phase counter,
	// trace, fault bookkeeping, and affinity memory — so TraceEvents,
	// Report, and the other read paths are safe while sweeps run.
	mu        sync.Mutex
	virtual   float64 // accumulated virtual makespan
	phase     int64
	events    []TraceEvent
	faulted   []bool                    // device permanently excluded after an injected fault
	planned   []int64                   // planned kernels per device (fault-trigger accounting)
	backoff   float64                   // accumulated virtual retry-backoff seconds
	pending   float64                   // backoff charged to the current phase's makespan
	lastOwner map[state.Direction][]int // previous phase's strip owners (affinity)
}

// DeviceFault injects a fail-stop device error: the device completes
// AfterKernels kernels, then its next launch comes back with an error.
// The executor marks the device degraded, charges it the wasted launch,
// re-executes the failed kernel — after FlakyRetries further failed
// attempts, each preceded by an exponentially growing virtual backoff —
// on the earliest-finishing healthy device, and excludes the faulty
// device from every later sweep plan.
//
// The fault is evaluated when a sweep is *planned*, not while kernels
// execute: pool execution order is nondeterministic, plan order is not,
// so a faulted run is exactly reproducible and its solution bitwise
// matches the fault-free one (kernels always compute correctly on the
// host; only the virtual clocks and device assignment change). The
// ChaosSchedule generalises this to multi-event schedules.
type DeviceFault struct {
	Device       int     // index into Executor.Devices
	AfterKernels int64   // kernels the device completes before failing
	FlakyRetries int     // extra failed re-execution attempts before success
	RetryBackoff float64 // base virtual backoff per retry (default 100 µs)
}

// TraceEvent is one kernel on a device's virtual timeline.
type TraceEvent struct {
	Phase  int64   // sweep-phase counter
	Device string  // device name
	Strips int     // strips in the kernel
	Zones  int     // zones processed
	Start  float64 // device-local virtual start time (seconds)
	End    float64
}

// NewExecutor builds an executor over the given devices.
func NewExecutor(policy Policy, devices ...*Device) (*Executor, error) {
	if len(devices) == 0 {
		return nil, errors.New("hetero: executor needs at least one device")
	}
	workers := 0
	for _, d := range devices {
		if d == nil {
			return nil, errors.New("hetero: nil device")
		}
		workers += d.Spec.Workers
	}
	ex := &Executor{
		Devices:   devices,
		Policy:    policy,
		pool:      par.NewPool(workers),
		router:    NewRouter(HealthConfig{}, devices...),
		faulted:   make([]bool, len(devices)),
		planned:   make([]int64, len(devices)),
		lastOwner: make(map[state.Direction][]int),
	}
	ex.Stats = &ex.own
	return ex, nil
}

// MustExecutor is NewExecutor for statically known-good device sets;
// it panics on input NewExecutor rejects.
func MustExecutor(policy Policy, devices ...*Device) *Executor {
	ex, err := NewExecutor(policy, devices...)
	if err != nil {
		panic(err)
	}
	return ex
}

// Router returns the executor's health-scored router (shared with every
// solver the executor is attached to). Tune its config through
// SetHealthConfig before stepping.
func (ex *Executor) Router() *Router { return ex.router }

// SetHealthConfig rebuilds the router with the given health model (zero
// fields take defaults). Call before stepping; it resets health state.
func (ex *Executor) SetHealthConfig(cfg HealthConfig) {
	c := ex.router.C
	ex.router = NewRouter(cfg, ex.Devices...)
	ex.router.C = c
}

// Attach hooks the executor into the solver's sweep execution. It must
// be called before stepping; it also routes the solver's generic pool
// work through the executor's pool. One executor may be attached to many
// solvers (the AMR tree attaches it to every leaf), which share its
// devices, clocks, and router.
func (ex *Executor) Attach(s *core.Solver) {
	s.Cfg.SweepExec = func(d state.Direction, nStrips int, sweep func(lo, hi int)) {
		ex.exec(s, d, nStrips, sweep)
	}
	if s.Cfg.Pool == nil {
		s.Cfg.Pool = ex.pool
	}
}

// VirtualTime returns the accumulated virtual makespan in seconds.
func (ex *Executor) VirtualTime() float64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.virtual
}

// ResetClocks zeroes the executor makespan, trace, fault and router
// state and every device clock.
func (ex *Executor) ResetClocks() {
	ex.mu.Lock()
	ex.virtual = 0
	ex.phase = 0
	ex.events = nil
	for i := range ex.faulted {
		ex.faulted[i] = false
		ex.planned[i] = 0
	}
	ex.backoff = 0
	ex.pending = 0
	ex.lastOwner = make(map[state.Direction][]int)
	ex.mu.Unlock()
	for _, d := range ex.Devices {
		d.Reset()
	}
	ex.router.Reset()
	ex.Stats.Reset()
}

// BackoffVirtual returns the virtual seconds spent in retry backoff
// after injected device faults.
func (ex *Executor) BackoffVirtual() float64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.backoff
}

// Degraded reports whether a device has been lost to an injected fault
// and the executor is running on the reduced set.
func (ex *Executor) Degraded() bool { return ex.Stats.Degraded.Load() }

// TraceEvents returns a copy of the recorded kernel timeline (Trace must
// have been enabled), sorted by phase then device-local start time. Safe
// to call while sweeps are executing.
func (ex *Executor) TraceEvents() []TraceEvent {
	ex.mu.Lock()
	out := append([]TraceEvent(nil), ex.events...)
	ex.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// WriteTraceCSV dumps the kernel timeline for external Gantt plotting.
func (ex *Executor) WriteTraceCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "phase,device,strips,zones,start,end"); err != nil {
		return err
	}
	for _, e := range ex.TraceEvents() {
		if _, err := fmt.Fprintf(bw, "%d,%s,%d,%d,%.9g,%.9g\n",
			e.Phase, e.Device, e.Strips, e.Zones, e.Start, e.End); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// exec implements core.Config.SweepExec for one attached solver.
func (ex *Executor) exec(s *core.Solver, d state.Direction, nStrips int, sweep func(lo, hi int)) {
	if nStrips <= 0 {
		return
	}
	zonesPerStrip := s.StripZones(d)

	ex.mu.Lock()
	phase := ex.phase
	ex.phase++
	ex.mu.Unlock()

	// Chaos first: latency multipliers for this phase, and the devices
	// whose fail-stop death fires now (they still appear in the plan —
	// the planner learns from the failed launch, below).
	newlyDead := ex.applyChaosPhase(phase)

	var plan []assignment
	switch ex.Policy {
	case Static:
		plan = ex.staticPlan(nStrips)
	case Dynamic:
		plan = ex.dynamicPlan(nStrips, zonesPerStrip)
	case Routed:
		plan = ex.routedPlan(d, nStrips, zonesPerStrip)
	}
	plan = ex.applyFault(plan, zonesPerStrip)
	if len(newlyDead) > 0 {
		plan = ex.rerouteDead(plan, zonesPerStrip, newlyDead)
	}
	ex.rememberOwners(d, nStrips, plan)

	// Execute: kernels run for real on the pool; each is charged to its
	// device's virtual clock.
	phaseStart := make([]float64, len(ex.Devices))
	phaseZones := make([]int64, len(ex.Devices))
	phaseKerns := make([]int64, len(ex.Devices))
	for i, dev := range ex.Devices {
		phaseStart[i] = dev.Busy()
		phaseZones[i] = dev.Zones()
		phaseKerns[i] = dev.Kernels()
	}
	var wg sync.WaitGroup
	for _, a := range plan {
		a := a
		wg.Add(1)
		ex.pool.Go(func() {
			defer wg.Done()
			sweep(a.lo, a.hi)
			zones := (a.hi - a.lo) * zonesPerStrip
			dev := ex.Devices[a.dev]
			_, start, end := dev.chargeInterval(zones)
			if ex.Trace {
				ex.mu.Lock()
				ex.events = append(ex.events, TraceEvent{
					Phase: phase, Device: dev.Spec.Name,
					Strips: a.hi - a.lo, Zones: zones,
					Start: start, End: end,
				})
				ex.mu.Unlock()
			}
		})
	}
	wg.Wait()

	// Staged devices pay one streamed transfer of the phase working set.
	phaseBytes := make([]int64, len(ex.Devices))
	for i, dev := range ex.Devices {
		if z := dev.Zones() - phaseZones[i]; z > 0 && dev.Staged() {
			phaseBytes[i] = int64(stripBytes(int(z)))
			dev.ChargeTransfer(int(phaseBytes[i]))
		}
	}

	// Feed the phase's observed latencies into the health model — the
	// router sees effective (chaos-inflated, transfer-inclusive) speed,
	// priced against the launch/transfer-aware nominal cost.
	obs := make([]Obs, 0, len(ex.Devices))
	for i, dev := range ex.Devices {
		if z := dev.Zones() - phaseZones[i]; z > 0 {
			obs = append(obs, Obs{
				Dev: i, Zones: z,
				Busy:  dev.Busy() - phaseStart[i],
				Kerns: dev.Kernels() - phaseKerns[i],
				Bytes: phaseBytes[i],
			})
		}
	}
	ex.router.ObservePhase(obs)

	// Makespan of this phase: the slowest device's accumulated charge,
	// plus any retry backoff an injected device fault cost this phase.
	ex.mu.Lock()
	span := ex.pending
	ex.backoff += ex.pending
	ex.pending = 0
	ex.mu.Unlock()
	for i, dev := range ex.Devices {
		if b := dev.Busy() - phaseStart[i]; b > span {
			span = b
		}
	}
	ex.mu.Lock()
	ex.virtual += span
	ex.mu.Unlock()
}

// applyFault rewrites a sweep plan when the configured device fault
// fires: the triggering kernel and every later kernel of the faulty
// device migrate to the earliest-finishing healthy device (list
// scheduling over within-phase ETAs, as dynamicPlan does). Runs in the
// (serial) sweep-planning path; see DeviceFault for the determinism
// argument.
func (ex *Executor) applyFault(plan []assignment, zonesPerStrip int) []assignment {
	f := ex.Fault
	if f == nil || f.Device < 0 || f.Device >= len(ex.Devices) || ex.isFaulted(f.Device) {
		return plan
	}
	eta := make([]float64, len(ex.Devices))
	out := make([]assignment, 0, len(plan))
	place := func(a assignment) {
		out = append(out, a)
		eta[a.dev] += ex.Devices[a.dev].MarginalCost((a.hi - a.lo) * zonesPerStrip)
	}
	for _, a := range plan {
		if a.dev != f.Device {
			place(a)
			continue
		}
		if !ex.isFaulted(f.Device) {
			ex.mu.Lock()
			if ex.planned[f.Device] < f.AfterKernels {
				ex.planned[f.Device]++
				ex.mu.Unlock()
				place(a)
				continue
			}
			// This launch errors: degrade the device, charge it the
			// wasted launch, and pay exponentially growing backoff for
			// the failed re-execution attempts plus the one that lands.
			ex.faulted[f.Device] = true
			back := f.RetryBackoff
			if back <= 0 {
				back = 1e-4
			}
			for k := 0; k <= f.FlakyRetries; k++ {
				ex.Stats.Retries.Add(1)
				ex.pending += back
				back *= 2
			}
			ex.mu.Unlock()
			ex.Stats.Injected.Add(1)
			ex.Stats.Degraded.Store(true)
			ex.Devices[f.Device].Charge(0)
			ex.router.MarkDead(f.Device)
		}
		best, bestT := -1, math.Inf(1)
		for i, d := range ex.Devices {
			if ex.isFaulted(i) {
				continue
			}
			if t := eta[i] + d.MarginalCost((a.hi-a.lo)*zonesPerStrip); t < bestT {
				best, bestT = i, t
			}
		}
		if best < 0 {
			// No healthy device remains: keep the assignment so the sweep
			// still completes (correctness path runs on the host anyway).
			out = append(out, a)
			continue
		}
		ex.router.C.Reroutes.Add(1)
		place(assignment{dev: best, lo: a.lo, hi: a.hi})
	}
	return out
}

// rerouteDead handles chaos fail-stop deaths that fired this phase: each
// dying device is charged its wasted launch and the bounded
// exponential-backoff retry series, then every in-flight kernel still
// planned on it migrates to the earliest-finishing live device
// (earliest-finish list scheduling). Deterministic: runs in the serial
// planning path, exactly like applyFault.
func (ex *Executor) rerouteDead(plan []assignment, zonesPerStrip int, dead []int) []assignment {
	isDead := make([]bool, len(ex.Devices))
	for _, i := range dead {
		if i < 0 || i >= len(ex.Devices) || ex.router.Dead(i) {
			continue
		}
		isDead[i] = true
		ex.router.MarkDead(i)
		ex.Stats.Injected.Add(1)
		ex.Stats.Degraded.Store(true)
		ex.Devices[i].Charge(0) // the launch that came back with the error
		back, retries := ex.Chaos.retryParams()
		ex.mu.Lock()
		for k := 0; k <= retries; k++ {
			ex.Stats.Retries.Add(1)
			ex.pending += back
			back *= 2
		}
		ex.mu.Unlock()
	}

	eta := make([]float64, len(ex.Devices))
	out := make([]assignment, 0, len(plan))
	for _, a := range plan {
		if !isDead[a.dev] {
			out = append(out, a)
			eta[a.dev] += ex.Devices[a.dev].MarginalCost((a.hi - a.lo) * zonesPerStrip)
			continue
		}
		best, bestT := -1, math.Inf(1)
		for i, d := range ex.Devices {
			if isDead[i] || ex.isFaulted(i) || ex.router.Dead(i) {
				continue
			}
			if t := eta[i] + d.MarginalCost((a.hi-a.lo)*zonesPerStrip); t < bestT {
				best, bestT = i, t
			}
		}
		if best < 0 {
			out = append(out, a) // everything is dead: degraded host execution
			continue
		}
		ex.router.C.Reroutes.Add(1)
		out = append(out, assignment{dev: best, lo: a.lo, hi: a.hi})
		eta[best] += ex.Devices[best].MarginalCost((a.hi - a.lo) * zonesPerStrip)
	}
	return out
}

// isFaulted reads the legacy fault flag under the executor lock.
func (ex *Executor) isFaulted(i int) bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.faulted[i]
}

// healthy returns the schedulable device indices: every device not
// excluded by an injected fault or a chaos death, or all of them if none
// survives (the correctness path must still run the sweep somewhere).
func (ex *Executor) healthy() []int {
	out := make([]int, 0, len(ex.Devices))
	for i := range ex.Devices {
		if !ex.isFaulted(i) && !ex.router.Dead(i) {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		for i := range ex.Devices {
			out = append(out, i)
		}
	}
	return out
}

// staticPlan splits [0, nStrips) proportionally to raw ZoneRate: one
// kernel per healthy device.
func (ex *Executor) staticPlan(nStrips int) []assignment {
	devs := ex.healthy()
	total := 0.0
	for _, i := range devs {
		total += ex.Devices[i].Spec.ZoneRate
	}
	plan := make([]assignment, 0, len(devs))
	lo := 0
	acc := 0.0
	for n, i := range devs {
		acc += ex.Devices[i].Spec.ZoneRate
		hi := int(math.Round(float64(nStrips) * acc / total))
		if n == len(devs)-1 {
			hi = nStrips
		}
		if hi > lo {
			plan = append(plan, assignment{dev: i, lo: lo, hi: hi})
		}
		lo = hi
	}
	return plan
}

// dynamicPlan models a work queue with deterministic list scheduling:
// chunks are assigned, in order, to the device that would finish them
// earliest given everything already assigned in this sweep.
func (ex *Executor) dynamicPlan(nStrips, zonesPerStrip int) []assignment {
	devs := ex.healthy()
	chunk := ex.ChunkStrips
	if chunk <= 0 {
		chunk = nStrips / (8 * len(devs))
		if chunk < 1 {
			chunk = 1
		}
	}
	eta := make([]float64, len(ex.Devices))
	var plan []assignment
	for lo := 0; lo < nStrips; lo += chunk {
		hi := lo + chunk
		if hi > nStrips {
			hi = nStrips
		}
		zones := (hi - lo) * zonesPerStrip
		best, bestT := devs[0], math.Inf(1)
		for _, i := range devs {
			t := eta[i] + ex.Devices[i].MarginalCost(zones)
			if t < bestT {
				best, bestT = i, t
			}
		}
		eta[best] = bestT
		plan = append(plan, assignment{dev: best, lo: lo, hi: hi})
	}
	return plan
}

// routedPlan is the health-scored placement: probing devices get one
// minimal probe kernel, then chunks sized by capacity share are placed
// by minimising ETA + cost + affinity + fragmentation:
//
//   - cost uses the router's *observed* per-zone latency, so placements
//     track effective, not nominal, speed;
//   - affinity discounts a staged device re-owning strips it held last
//     phase (working set already resident) and half-discounts a handoff
//     inside the same interconnect domain;
//   - fragmentation adds one launch latency per kernel a device already
//     holds, biasing toward few large contiguous kernels;
//   - weights embody equivalent-capacity substitution: a drained fast
//     device's share redistributes over the remaining fleet.
//
// When nothing is in rotation the executor demotes to the degraded
// serial path over whatever healthy() returns — the run always finishes.
func (ex *Executor) routedPlan(d state.Direction, nStrips, zonesPerStrip int) []assignment {
	weights, probes := ex.router.planWeights()

	var plan []assignment
	lo := 0
	probeStrips := ex.router.Config().ProbeStrips
	for _, pi := range probes {
		if lo >= nStrips {
			break
		}
		hi := lo + probeStrips
		if hi > nStrips {
			hi = nStrips
		}
		plan = append(plan, assignment{dev: pi, lo: lo, hi: hi})
		lo = hi
	}

	var elig []int
	totalW := 0.0
	for i, w := range weights {
		if w > 0 && !ex.isFaulted(i) {
			elig = append(elig, i)
			totalW += w
		}
	}
	if lo >= nStrips {
		return plan
	}
	if len(elig) == 0 {
		// Last-healthy-device demotion: no routed capacity remains, so
		// the remainder runs degraded on the fallback set.
		ex.Stats.Degraded.Store(true)
		return append(plan, ex.degradedPlan(lo, nStrips, zonesPerStrip)...)
	}

	prev := ex.prevOwners(d, nStrips)
	eta := make([]float64, len(ex.Devices))
	kerns := make([]int, len(ex.Devices))
	perZone := make([]float64, len(ex.Devices))
	for _, i := range elig {
		perZone[i] = ex.router.EffPerZone(i)
	}
	for lo < nStrips {
		best, bestHi := -1, 0
		bestScore, bestCost := math.Inf(1), 0.0
		for _, i := range elig {
			dev := ex.Devices[i]
			chunk := int(float64(nStrips)*weights[i]/totalW/routedKernelsPerDevice + 0.5)
			if chunk < 1 {
				chunk = 1
			}
			hi := lo + chunk
			if hi > nStrips {
				hi = nStrips
			}
			zones := (hi - lo) * zonesPerStrip
			cost := dev.Spec.LaunchLatency + float64(zones)*perZone[i]
			if dev.Staged() {
				xfer := float64(stripBytes(zones)) / dev.Spec.TransferBW
				switch {
				case prev != nil && prev[lo] == i:
					// Working set still resident from the last phase.
				case prev != nil && prev[lo] >= 0 &&
					ex.Devices[prev[lo]].Spec.Domain == dev.Spec.Domain:
					cost += 0.5 * xfer // near handoff inside the domain
				default:
					cost += xfer
				}
			} else if prev != nil && prev[lo] == i {
				cost *= 0.98 // cache-warm affinity nudge
			}
			score := eta[i] + cost + float64(kerns[i])*dev.Spec.LaunchLatency
			if score < bestScore {
				best, bestHi, bestScore, bestCost = i, hi, score, cost
			}
		}
		plan = append(plan, assignment{dev: best, lo: lo, hi: bestHi})
		eta[best] += bestCost
		kerns[best]++
		lo = bestHi
	}
	return plan
}

// degradedPlan covers [lo, nStrips) on the fallback device set with
// earliest-finish list scheduling on nominal rates — the serial-safe
// demotion used when the router has drained everything.
func (ex *Executor) degradedPlan(lo, nStrips, zonesPerStrip int) []assignment {
	devs := ex.healthy()
	chunk := nStrips / (4 * len(devs))
	if chunk < 1 {
		chunk = 1
	}
	eta := make([]float64, len(ex.Devices))
	var plan []assignment
	for ; lo < nStrips; lo += chunk {
		hi := lo + chunk
		if hi > nStrips {
			hi = nStrips
		}
		zones := (hi - lo) * zonesPerStrip
		best, bestT := devs[0], math.Inf(1)
		for _, i := range devs {
			if t := eta[i] + ex.Devices[i].MarginalCost(zones); t < bestT {
				best, bestT = i, t
			}
		}
		eta[best] = bestT
		plan = append(plan, assignment{dev: best, lo: lo, hi: hi})
	}
	return plan
}

// prevOwners returns the previous phase's per-strip owner array for the
// direction, or nil when unknown or the strip count changed (AMR regrid,
// first phase).
func (ex *Executor) prevOwners(d state.Direction, nStrips int) []int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	own := ex.lastOwner[d]
	if len(own) != nStrips {
		return nil
	}
	return own
}

// rememberOwners records the plan's strip ownership for the next phase's
// affinity scoring.
func (ex *Executor) rememberOwners(d state.Direction, nStrips int, plan []assignment) {
	own := make([]int, nStrips)
	for i := range own {
		own[i] = -1
	}
	for _, a := range plan {
		for s := a.lo; s < a.hi && s < nStrips; s++ {
			own[s] = a.dev
		}
	}
	ex.mu.Lock()
	ex.lastOwner[d] = own
	ex.mu.Unlock()
}

// LoadReport summarises per-device work after a run.
type LoadReport struct {
	Name    string
	Kind    Kind
	Zones   int64
	Kernels int64
	Busy    float64 // virtual seconds
	Share   float64 // fraction of total zones
	Faulted bool    // excluded mid-run by an injected fault or chaos death
	State   string  // router drain state
	Score   float64 // rolling health score
}

// Report returns the per-device load breakdown, ordered as the devices
// were given. Safe to call while sweeps are executing.
func (ex *Executor) Report() []LoadReport {
	var total int64
	for _, d := range ex.Devices {
		total += d.Zones()
	}
	health := ex.router.HealthReport()
	out := make([]LoadReport, len(ex.Devices))
	for i, d := range ex.Devices {
		share := 0.0
		if total > 0 {
			share = float64(d.Zones()) / float64(total)
		}
		out[i] = LoadReport{
			Name: d.Spec.Name, Kind: d.Spec.Kind,
			Zones: d.Zones(), Kernels: d.Kernels(),
			Busy: d.Busy(), Share: share,
			Faulted: ex.isFaulted(i) || health[i].State == "dead",
			State:   health[i].State,
			Score:   health[i].Score,
		}
	}
	return out
}

// Imbalance returns max(busy)/mean(busy) − 1 across devices: 0 for perfect
// balance.
func (ex *Executor) Imbalance() float64 {
	if len(ex.Devices) < 2 {
		return 0
	}
	busies := make([]float64, len(ex.Devices))
	sum := 0.0
	for i, d := range ex.Devices {
		busies[i] = d.Busy()
		sum += busies[i]
	}
	mean := sum / float64(len(busies))
	if mean <= 0 {
		return 0
	}
	sort.Float64s(busies)
	return busies[len(busies)-1]/mean - 1
}
