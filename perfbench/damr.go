package main

import (
	"errors"
	"time"

	"rhsc/internal/amr"
	"rhsc/internal/cluster"
	"rhsc/internal/core"
	"rhsc/internal/damr"
	"rhsc/internal/testprob"
)

const (
	damrRanks      = 2
	damrRootBlocks = 4
	// damrJobSteps is the length of one distributed run: one buddy
	// checkpoint generation (taken at step 0) and one regrid (after step
	// 4). Runs this short give the run-level percentiles enough samples.
	damrJobSteps   = 4
	damrCkEvery    = 8
	damrTreeBuilds = 9
)

// damrConfig is the damr2d hierarchy: 16² blocks, three refinement
// levels, regrid every four steps, over the generic (non-fused) method
// of core.DefaultConfig.
func damrConfig(cfl float64) amr.Config {
	c := core.DefaultConfig()
	c.CFL = cfl
	cfg := amr.DefaultConfig(c)
	cfg.BlockN = 16
	cfg.MaxLevel = 3
	cfg.RegridEvery = 4
	return cfg
}

// damr2d runs blast2d through damr.Run on two ranks over the reliable
// transport with no chaos, one short distributed run after another.
func damr2d(r *run) error {
	p := testprob.Blast2D
	cfl := 0.36 + 0.04*r.rng.Float64()
	cfg := damrConfig(cfl)
	opts := damr.Options{
		Ranks: damrRanks, Mode: cluster.Async, Net: cluster.Infiniband(),
		Steps: damrJobSteps, CheckpointEvery: damrCkEvery,
		Transport: &cluster.TransportConfig{Reliable: true},
	}

	// Set-up: the tree every rank builds — bootstrap refinement, initial
	// data and the first recovery.
	var setupS []float64
	for i := 0; i < damrTreeBuilds; i++ {
		t0 := time.Now()
		if _, err := amr.NewTree(p, damrRootBlocks, cfg); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	// Runs repeat until the budget is spent and the p90s have enough
	// samples.
	budget, minJobs := r.budget, samplesFor(90)
	if r.trace {
		budget, minJobs = 0, 5
	}
	var results []*damr.Result
	var fps []uint64
	var jobMs, stepMs []float64
	var zu int64
	var busy time.Duration
	var heap *heapSampler
	if !r.trace {
		heap = startHeapSampler()
	}
	start := time.Now()
	for len(results) < minJobs || time.Since(start) < budget {
		if time.Since(start) > maxRun {
			break
		}
		t0 := time.Now()
		res, err := damr.Run(p, damrRootBlocks, cfg, opts)
		d := time.Since(t0)
		if !r.op(err) {
			continue
		}
		// Keep the counters, not the gathered tree.
		fps = append(fps, res.Tree.Fingerprint())
		res.Tree = nil
		results = append(results, res)
		jobMs = append(jobMs, ms(d))
		stepMs = append(stepMs, ms(res.RealTime)/float64(res.Steps))
		zu += res.ZoneUpdates
		busy += res.RealTime
	}
	peak := heap.stopMB()
	if len(results) == 0 {
		return errors.New("no distributed run completed")
	}

	// Correctness: every distributed run ends bitwise where the serial
	// tree does, without a recovery.
	ref, err := amr.NewTree(p, damrRootBlocks, cfg)
	if err != nil {
		return err
	}
	var serialMs []float64
	for i := 0; i < damrJobSteps; i++ {
		t0 := time.Now()
		if !r.op(ref.Step(ref.MaxDt())) {
			break
		}
		serialMs = append(serialMs, ms(time.Since(t0)))
	}
	want := ref.Fingerprint()
	for i, res := range results {
		r.check(fps[i] == want, "distributed run differs from the serial tree")
		r.check(res.Recoveries == 0, "clean fabric triggered %d recoveries", res.Recoveries)
	}

	if !r.trace {
		r.set("setup_s", median(setupS))
		r.set("mzups", float64(zu)/busy.Seconds()/1e6)
		r.tail("step_ms", stepMs, 50, 90)
		r.tail("job_latency_ms", jobMs, 50, 90)
		r.set("urgent_latency_ms_p50", r.values["job_latency_ms_p50"])
		r.set("peak_heap_mb", peak)
		return nil
	}

	// Traced phase: a one-rank replica driven through the tree calls the
	// damr ranks make, timing each call from outside.
	t, err := amr.NewTree(p, damrRootBlocks, cfg)
	if err != nil {
		return err
	}
	rep := &replica{t: t}
	for t.Steps() < damrJobSteps && r.op(rep.step()) {
	}
	r.check(t.Fingerprint() == want, "replica differs from the serial tree")
	n := float64(len(rep.stepMs))
	lt := rep.lt
	perStep := func(d time.Duration) float64 { return ms(d) / n }
	r.set("amr.stage_ms", perStep(lt.stage))
	r.set("amr.recover_ms", perStep(lt.recover))
	r.set("amr.ghost_ms", perStep(lt.ghost))
	r.set("amr.combine_ms", perStep(lt.combine))
	r.set("amr.regrid_ms", perStep(lt.regrid))
	r.set("amr.encode_ms", perStep(lt.encode))
	if rep.encodes > 0 {
		r.set("amr.encode_bytes", float64(rep.encodeBytes)/float64(rep.encodes))
	}
	r.set("amr.leaves", float64(t.NumLeaves()))
	r.set("core.cfl_ms_per_step", perStep(lt.cfl))
	covered := lt.stage + lt.recover + lt.ghost + lt.combine + lt.regrid + lt.encode + lt.cfl
	r.set("trace.closure", float64(covered)/float64(lt.wall))
	r.set("trace.overhead", median(rep.stepMs)/median(serialMs))

	jobs := float64(len(results))
	var rebal, mig, ck, imb, virt, real float64
	var sent, sentBytes, retx, dups, timeouts, delivered float64
	for _, res := range results {
		rebal += ms(res.RebalanceTime)
		mig += float64(res.MigratedBytes)
		ck += float64(res.CheckpointBytes)
		imb += res.Imbalance
		virt += res.VirtualTime
		real += res.RealTime.Seconds()
		if net := res.Net; net != nil {
			sent += float64(net.Sent)
			sentBytes += float64(net.SentBytes)
			retx += float64(net.Retransmits)
			dups += float64(net.DupDiscarded)
			timeouts += float64(net.Timeouts)
			delivered += float64(net.Delivered)
		}
	}
	r.set("damr.rebalance_ms", rebal/jobs)
	r.set("damr.migrated_bytes", mig/jobs)
	r.set("damr.checkpoint_bytes", ck/jobs)
	r.set("damr.imbalance", imb/jobs)
	r.set("damr.virtual_s", virt/jobs)
	// Serial tree time over the ranks' combined wall time.
	r.set("damr.efficiency", sum(serialMs)/1e3/(damrRanks*real/jobs))
	r.set("cluster.sent", sent/jobs)
	r.set("cluster.sent_bytes", sentBytes/jobs)
	r.set("cluster.retransmits", retx/jobs)
	r.set("cluster.dup_discarded", dups/jobs)
	r.set("cluster.timeouts", timeouts/jobs)
	if sent+retx > 0 {
		r.set("cluster.useful_frac", delivered/(sent+retx))
	}
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// amrTimes accumulates the time of each tree call over replica steps.
type amrTimes struct {
	stage, recover, ghost, combine, regrid, encode, cfl time.Duration
	wall                                                time.Duration
}

// replica steps one amr.Tree exactly as a damr rank owning every leaf
// does: checkpoint encode at the loop top, the dt reduction, two Euler
// stages each followed by recovery and ghost fill, the RK2 combine with
// a CFL-armed final sync, and every RegridEvery steps a regrid from
// owner indicators followed by a sync. Each call is timed from outside.
type replica struct {
	t           *amr.Tree
	lt          amrTimes
	stepMs      []float64
	encodes     int
	encodeBytes int64
}

func (p *replica) step() error {
	t := p.t
	all := leafIndices(t)
	lt := &p.lt
	begin := time.Now()
	last := begin
	lap := func(acc *time.Duration) {
		now := time.Now()
		*acc += now.Sub(last)
		last = now
	}
	sync := func(arm bool) {
		if arm {
			t.ArmCFL(all)
		}
		t.SyncSubset(all, nil)
		lap(&lt.recover)
		t.SyncSubset(nil, all)
		lap(&lt.ghost)
	}

	if t.Steps()%damrCkEvery == 0 {
		blob, err := t.EncodeLeaves(all)
		if err != nil {
			return err
		}
		lap(&lt.encode)
		p.encodes++
		p.encodeBytes += int64(len(blob))
	}
	dt := t.MaxDtOf(all)
	lap(&lt.cfl)
	t.BeginStep(all)
	lap(&lt.combine)
	for s := 0; s < 2; s++ {
		t.StageAdvance(all, dt)
		lap(&lt.stage)
		sync(false)
	}
	t.CombineStage(all)
	lap(&lt.combine)
	sync(true)
	t.AdvanceTime(dt)
	if t.Steps()%t.RegridEvery() == 0 {
		refs := t.LeafRefs()
		vals := make(map[amr.BlockRef]float64, len(refs))
		for i, ref := range refs {
			vals[ref] = t.LeafIndicator(i)
		}
		t.RegridWithIndicators(vals)
		lap(&lt.regrid)
		all = leafIndices(t)
		sync(true)
	}
	lt.wall += time.Since(begin)
	p.stepMs = append(p.stepMs, ms(time.Since(begin)))
	return nil
}

// leafIndices lists 0..NumLeaves-1.
func leafIndices(t *amr.Tree) []int {
	idx := make([]int, t.NumLeaves())
	for i := range idx {
		idx[i] = i
	}
	return idx
}
