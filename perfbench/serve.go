package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"rhsc"
	"rhsc/internal/serve"
)

const (
	serveWorkers = 2
	// arrivalRate is the fixed Poisson arrival rate in jobs per second:
	// about a quarter of what two workers complete of this job mix by
	// service time alone, because on a 2-vCPU host the generator and the
	// HTTP stack share the workers' cores and higher rates amplify CPU
	// steal into unsteady latency percentiles.
	arrivalRate = 18.0
	// Every urgentEvery-th job is submitted at urgentPriority,
	// urgentDelay after the two jobs before it, which are sent together.
	// Those two occupy both workers (every job runs for 20 ms or more),
	// so each urgent job preempts one of them.
	urgentEvery    = 7
	urgentPriority = 10
	urgentDelay    = 10 * time.Millisecond
	serverStarts   = 41
	// directReps is how many times a traced run drives each job class
	// directly through a JobRunner.
	directReps = 5
)

// jobClass is one kind of job in the serve mix.
type jobClass struct {
	name string
	spec serve.JobSpec
}

// classes are the serve workload's job kinds, indexed like jobClasses.
var classes = []jobClass{
	{"sod1d", serve.JobSpec{Problem: "sod", N: 800, MaxSteps: 32}},
	{"blast2d", serve.JobSpec{Problem: "blast2d", N: 48, MaxSteps: 6}},
	{"amr2d", serve.JobSpec{Problem: "blast2d", AMR: true, RootBlocks: 4, BlockN: 8, MaxLevel: 2, MaxSteps: 2}},
}

// arrival is one scheduled job submission.
type arrival struct {
	at     time.Duration // offset from the start of the open loop
	class  int
	urgent bool
}

// schedule draws the seeded open-loop arrivals over the given span: the
// rate × span arrivals of a Poisson process conditioned on that count
// (exponential gaps scaled to fill the span), classes in a seeded order
// that holds each class once per consecutive three jobs, and every
// urgentEvery-th job urgent. Each urgent job is a burst: the two jobs
// before it move to the earlier one's time and the urgent job follows
// urgentDelay later; later arrivals are held back to keep the order.
func schedule(seed int64, rate float64, span time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * span.Seconds())
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	out := make([]arrival, n)
	t := 0.0
	var order []int
	for i := range out {
		t += gaps[i]
		if len(order) == 0 {
			order = rng.Perm(len(classes))
		}
		out[i] = arrival{
			at:     time.Duration(t / total * float64(span)),
			class:  order[0],
			urgent: i%urgentEvery == urgentEvery-1,
		}
		order = order[1:]
	}
	for i := urgentEvery - 1; i < n; i += urgentEvery {
		out[i-1].at = out[i-2].at
		out[i].at = out[i-2].at + urgentDelay
	}
	for i := 1; i < n; i++ {
		out[i].at = max(out[i].at, out[i-1].at)
	}
	return out
}

// jobRec is the harness's record of one submitted job.
type jobRec struct {
	arrival
	due      time.Time     // scheduled send time
	sent     time.Time     // when a sender began the POST
	admitted time.Duration // POST round trip
	id       string
	status   serve.Status // terminal status
	spooled  bool         // carried across the restart
	err      error
}

// endpoint serves whichever server is current on one loopback listener,
// so the restart swaps servers without moving the address.
type endpoint struct {
	srv     atomic.Pointer[serve.Server]
	mux     atomic.Pointer[http.ServeMux]
	httpSrv *http.Server
	url     string
	done    chan error
}

func (e *endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.mux.Load().ServeHTTP(w, r)
}

func (e *endpoint) install(s *serve.Server) {
	e.srv.Store(s)
	e.mux.Store(serve.NewMux(s))
}

// startEndpoint starts a server and its listener and waits until the
// listener answers.
func startEndpoint(client *http.Client) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	e.install(serve.New(serverConfig()))
	e.httpSrv = &http.Server{Handler: e}
	go func() { e.done <- e.httpSrv.Serve(ln) }()
	resp, err := client.Get(e.url + "/v1/jobs")
	if err != nil {
		e.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return e, nil
}

// stop closes the current server without spooling, then the listener,
// and waits for the HTTP server goroutine.
func (e *endpoint) stop() {
	e.srv.Load().Close()
	e.httpSrv.Close()
	<-e.done
}

func serverConfig() serve.Config {
	return serve.Config{Workers: serveWorkers, MaxQueue: 4096}
}

func serveWorkload(r *run) error {
	client := newClient(r.threads)
	defer client.CloseIdleConnections()

	// Reference fingerprints: each class driven directly.
	refs := make([]string, len(classes))
	for c := range classes {
		fp, err := direct(r, c)
		if err != nil {
			return err
		}
		refs[c] = fp
	}

	var setupS []float64
	var ep *endpoint
	for i := 0; i < serverStarts; i++ {
		if ep != nil {
			ep.stop()
		}
		t0 := time.Now()
		e, err := startEndpoint(client)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		ep = e
	}

	arrivals := schedule(r.seed, arrivalRate, r.budget)
	if len(arrivals) == 0 {
		return errors.New("empty arrival schedule")
	}
	if r.trace {
		// Untraced baseline of trace.overhead on the same schedule.
		base, err := openLoop(r, ep, arrivals, refs, false)
		if err != nil {
			return err
		}
		ep.stop()
		if ep, err = startEndpoint(client); err != nil {
			return err
		}
		r.note("untraced_job_latency_ms_p50", base)
		traced, err := openLoop(r, ep, arrivals, refs, true)
		ep.stop()
		if err != nil {
			return err
		}
		r.set("trace.overhead", traced/base)
		return nil
	}
	_, err := openLoop(r, ep, arrivals, refs, false)
	ep.stop()
	if err != nil {
		return err
	}
	r.set("setup_s", median(setupS))
	return nil
}

// openLoop has a load-generator process submit the arrivals over HTTP on
// schedule, restarts the server through a drain to a spool directory
// after the last burst of the first half, waits for every job to finish,
// checks each one, and records the serve metrics; traced selects the
// per-layer figures. It returns the median job latency in milliseconds.
func openLoop(r *run, ep *endpoint, arrivals []arrival, refs []string, traced bool) (float64, error) {
	spool, err := os.MkdirTemp("", "perfbench-spool-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(spool)

	var heap *heapSampler
	if !r.trace {
		runtime.GC()
		heap = startHeapSampler()
	}
	// The drain follows the last burst of the first half at once, so the
	// urgent job, the job it preempted and the one still running are
	// all spooled.
	mid := 0
	for i, a := range arrivals {
		if a.urgent && a.at < r.budget/2 {
			mid = i + 1
		}
	}
	start := time.Now()
	zero := start.Add(loadgenLead)
	recs := make([]*jobRec, len(arrivals))
	for i, a := range arrivals {
		recs[i] = &jobRec{arrival: a, due: zero.Add(a.at)}
	}
	gen, err := startLoadgen(ep.url, r.seed, r.budget, zero, mid, r.threads)
	if err != nil {
		return 0, err
	}
	defer gen.stop()

	// First life, drain to the spool, second life.
	if err := gen.half(recs, 1); err != nil {
		return 0, err
	}
	first := ep.srv.Load()
	t0 := time.Now()
	if err := first.Drain(spool); err != nil {
		return 0, fmt.Errorf("drain: %w", err)
	}
	drainMs := ms(time.Since(t0))
	carried := map[string]*jobRec{}
	for _, rec := range recs[:mid] {
		if rec.err != nil {
			continue
		}
		if st, ok := first.Get(rec.id); ok && (st.State == serve.Done || st.State == serve.Failed) {
			rec.status = st
		} else {
			rec.spooled = true
			carried[rec.id] = rec
		}
	}
	t0 = time.Now()
	second := serve.New(serverConfig())
	loaded, err := second.LoadSpool(spool)
	if err != nil {
		second.Close()
		return 0, fmt.Errorf("load spool: %w", err)
	}
	ep.install(second)
	booted := time.Now()
	bootMs := ms(booted.Sub(t0))
	if err := gen.resume(); err != nil {
		return 0, fmt.Errorf("load generator: %w", err)
	}

	// The carried jobs are read back as soon as they end, before the
	// second life's own job ids can reach theirs. A record submitted
	// after the boot belongs to a new job that was given the same id.
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for id, rec := range carried {
			st, err := second.Wait(id)
			switch {
			case err != nil:
				rec.err = err
			case st.Submitted.After(booted):
				rec.err = fmt.Errorf("spooled job %s lost: its id was given to a new job before it finished", id)
			default:
				rec.status = st
			}
		}
	}()
	if err := gen.half(recs, 2); err != nil {
		return 0, err
	}
	depthEnd := second.Metrics().QueueDepth
	if err := gen.wait(); err != nil {
		return 0, fmt.Errorf("load generator: %w", err)
	}
	<-watched
	reused := 0
	for _, rec := range recs[mid:] {
		if rec.err != nil {
			continue
		}
		if carried[rec.id] != nil {
			reused++
		}
		st, err := second.Wait(rec.id)
		if err != nil {
			rec.err = err
			continue
		}
		rec.status = st
	}
	wall := time.Since(start)
	peak := heap.stopMB()
	durable := first.DurableMetrics()

	// Checks and figures.
	var latency, urgent, stepMs, admit, queue, runMs, lag []float64
	var zu int64
	var busy time.Duration
	preemptions := 0
	var covered, total time.Duration
	for _, rec := range recs {
		st := rec.status
		switch {
		case rec.err != nil:
			r.op(rec.err)
			continue
		case st.State != serve.Done:
			r.op(fmt.Errorf("job %s (%s) ended %s: %s", rec.id, classes[rec.class].name, st.State, st.Reason))
			continue
		}
		r.check(st.Fingerprint == refs[rec.class], "job %s (%s) fingerprint %s, want %s",
			rec.id, classes[rec.class].name, st.Fingerprint, refs[rec.class])
		l := st.Finished.Sub(rec.due)
		latency = append(latency, ms(l))
		if rec.urgent {
			urgent = append(urgent, ms(l))
		}
		preemptions += st.Preemptions
		if rec.spooled {
			continue
		}
		late := rec.sent.Sub(rec.due)
		lag = append(lag, ms(late))
		wait, ran := st.Started.Sub(st.Submitted), st.Finished.Sub(st.Started)
		queue = append(queue, ms(wait))
		if st.Preemptions == 0 && st.Step > 0 {
			runMs = append(runMs, ms(ran))
			stepMs = append(stepMs, ms(ran)/float64(st.Step))
			zu += st.ZoneUpdates
			busy += ran
		}
		if traced {
			admit = append(admit, ms(rec.admitted))
			// The job's latency span and the parts of it each layer
			// accounts for, on one clock starting at the due time.
			at := func(t time.Time) time.Duration { return t.Sub(rec.due) }
			sent := at(rec.sent)
			covered += unionLen([]interval{
				{0, sent},                          // generator lag
				{sent, sent + rec.admitted},        // admission round trip
				{at(st.Submitted), at(st.Started)}, // queue wait
				{at(st.Started), at(st.Finished)},  // run
			}, interval{0, l})
			total += l
		}
	}
	if len(latency) == 0 {
		return 0, errors.New("no job finished")
	}
	r.note("jobs", len(recs))
	r.note("urgent_jobs", len(urgent))
	r.note("serve.preemptions", preemptions)
	r.note("durable.spooled_jobs", loaded)
	r.note("serve.id_reuse_after_restart", reused)
	r.note("open_loop_s", wall.Seconds())
	if !traced {
		if !r.trace {
			r.set("mzups", float64(zu)/busy.Seconds()/1e6)
			r.tail("step_ms", stepMs, 50, 90)
			r.tail("job_latency_ms", latency, 50, 90)
			r.tail("urgent_latency_ms", urgent, 50)
			r.set("peak_heap_mb", peak)
		}
		return median(latency), nil
	}
	r.set("serve.admit_ms_p50", median(admit))
	q50, _ := tailValue(queue, 50)
	q90, _ := tailValue(queue, 90)
	r.set("serve.queue_wait_ms_p50", q50)
	r.set("serve.queue_wait_ms_p90", q90)
	r.set("serve.run_ms_p50", median(runMs))
	r.set("serve.preemptions", float64(preemptions))
	r.set("durable.drain_ms", drainMs)
	r.set("durable.boot_ms", bootMs)
	r.set("durable.spooled_jobs", float64(loaded))
	r.set("durable.commit_bytes", float64(durable.CommitBytes))
	lagMax := 0.0
	for _, x := range lag {
		lagMax = max(lagMax, x)
	}
	r.set("loadgen.lag_ms_max", lagMax)
	r.set("loadgen.queue_depth_end", float64(depthEnd))
	r.set("trace.closure", float64(covered)/float64(total))
	return median(latency), nil
}

// direct drives one job class through rhsc.JobRunner as the serving
// layer does and returns the final fingerprint. A traced run also
// checkpoints and resumes halfway, writes the result, and compares the
// guarded step with a bare solver step, timing each call.
func direct(r *run, c int) (string, error) {
	spec := classes[c].spec
	o := rhsc.Options{Problem: spec.Problem, N: spec.N}
	var ao *rhsc.AMROptions
	if spec.AMR {
		ao = &rhsc.AMROptions{MaxLevel: spec.MaxLevel, RootBlocks: spec.RootBlocks, BlockN: spec.BlockN}
	}
	finished := func(jr rhsc.JobRunner) bool {
		return jr.Steps() >= spec.MaxSteps || jr.Time() >= jr.TEnd()-1e-14
	}
	if !r.trace {
		jr, err := rhsc.NewJobRunner(o, ao, spec.TEnd)
		if err != nil {
			return "", err
		}
		for !finished(jr) {
			if _, err := jr.StepOnce(); err != nil {
				return "", err
			}
		}
		return fmt.Sprintf("%016x", jr.Fingerprint()), nil
	}

	var build, step, ckpt, resume, result, bare []float64
	var ckBytes int
	var fp string
	for rep := 0; rep < directReps; rep++ {
		t0 := time.Now()
		jr, err := rhsc.NewJobRunner(o, ao, spec.TEnd)
		if err != nil {
			return "", err
		}
		build = append(build, ms(time.Since(t0)))
		for !finished(jr) {
			if jr.Steps() == spec.MaxSteps/2 {
				var buf bytes.Buffer
				t0 = time.Now()
				if err := jr.CheckpointExact(&buf); err != nil {
					return "", err
				}
				ckpt = append(ckpt, ms(time.Since(t0)))
				ckBytes = buf.Len()
				t0 = time.Now()
				next, err := rhsc.ResumeJobRunner(&buf, o, spec.AMR, spec.TEnd)
				if err != nil {
					return "", err
				}
				next.SetStepBase(jr.Steps())
				resume = append(resume, ms(time.Since(t0)))
				jr = next
			}
			t0 = time.Now()
			_, err := jr.StepOnce()
			step = append(step, ms(time.Since(t0)))
			if err != nil {
				return "", err
			}
		}
		t0 = time.Now()
		if err := jr.WriteResult(io.Discard); err != nil {
			return "", err
		}
		result = append(result, ms(time.Since(t0)))
		fp = fmt.Sprintf("%016x", jr.Fingerprint())
		bareMs, err := bareSteps(o, ao, spec)
		if err != nil {
			return "", err
		}
		bare = append(bare, bareMs...)
	}
	name := "rhsc." + classes[c].name + "."
	r.set(name+"build_ms", median(build))
	r.set(name+"step_ms", median(step))
	r.set(name+"checkpoint_ms", median(ckpt))
	r.set(name+"checkpoint_bytes", float64(ckBytes))
	r.set(name+"resume_ms", median(resume))
	r.set(name+"result_ms", median(result))
	r.set(name+"guard_overhead", median(step)/median(bare))
	return fp, nil
}

// bareSteps times the same steps taken without the job runner: the
// solver's own Step for a single grid, the tree's for AMR.
func bareSteps(o rhsc.Options, ao *rhsc.AMROptions, spec serve.JobSpec) ([]float64, error) {
	var out []float64
	if ao != nil {
		a, err := rhsc.NewAMRSim(o, *ao)
		if err != nil {
			return nil, err
		}
		for i := 0; i < spec.MaxSteps; i++ {
			t0 := time.Now()
			if err := a.Tree.Step(a.Tree.MaxDt()); err != nil {
				return nil, err
			}
			out = append(out, ms(time.Since(t0)))
		}
		return out, nil
	}
	sim, err := rhsc.NewSim(o)
	if err != nil {
		return nil, err
	}
	sim.Solver.RecoverPrimitives()
	for i := 0; i < spec.MaxSteps; i++ {
		t0 := time.Now()
		if err := sim.Solver.Step(sim.Solver.MaxDt()); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}
