package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"rhsc/internal/serve"
)

// The serve workload's load generator runs in a child process: the
// benchmark's own binary started with loadgenArg. Inside the server's
// process a sending goroutine waits behind workers that hold every
// scheduler slot, up to the Go runtime's 10 ms preemption period, and
// that lateness would count in every job's latency. A separate process
// is woken by the operating system on time.
//
// The child computes the same seeded schedule as the parent, sends the
// arrivals before the pause index on time, reports them, and waits for
// one line on standard input (the parent's restart is done) before it
// sends and reports the rest.

const (
	loadgenArg = "loadgen"
	// loadgenLead is how far in the future the schedule starts, so the
	// child is running before the first arrival is due.
	loadgenLead = 200 * time.Millisecond
)

// genMsg is one line of the generator's report: the outcome of one
// submission, or, with Half set, the end of that half of the schedule.
type genMsg struct {
	Half  int    `json:"half,omitempty"`
	I     int    `json:"i"`
	ID    string `json:"id,omitempty"`
	Sent  int64  `json:"sent,omitempty"`  // Unix nanoseconds at which the POST began
	Admit int64  `json:"admit,omitempty"` // POST round trip in nanoseconds
	Err   string `json:"err,omitempty"`
}

// newClient is an HTTP client with at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		},
	}
}

// loadgenMain is the child's entry point.
func loadgenMain(args []string) error {
	fs := flag.NewFlagSet(loadgenArg, flag.ContinueOnError)
	url := fs.String("url", "", "server base URL")
	seed := fs.Int64("seed", 1, "schedule seed")
	span := fs.Duration("span", 0, "schedule span")
	zero := fs.Int64("zero", 0, "Unix nanoseconds at which the schedule starts")
	mid := fs.Int("mid", 0, "arrivals sent before the pause")
	conns := fs.Int("conns", 1, "senders, one connection each at most")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arrivals := schedule(*seed, arrivalRate, *span)
	if *mid < 0 || *mid > len(arrivals) || *conns < 1 {
		return fmt.Errorf("bad pause index %d or sender count %d", *mid, *conns)
	}
	client := newClient(*conns)
	defer client.CloseIdleConnections()
	start := time.Unix(0, *zero)
	out := json.NewEncoder(os.Stdout)

	// send posts arrivals lo..hi-1 on schedule from a fixed set of
	// senders and reports them in order once all have returned.
	send := func(lo, hi int) error {
		res := make([]genMsg, hi-lo)
		ch := make(chan int, hi-lo) // one slot per send
		var wg sync.WaitGroup
		for w := 0; w < *conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ch {
					res[i-lo] = submit(client, *url, i, arrivals[i])
				}
			}()
		}
		for i := lo; i < hi; i++ {
			if d := time.Until(start.Add(arrivals[i].at)); d > 0 {
				time.Sleep(d)
			}
			ch <- i
		}
		close(ch)
		wg.Wait()
		for _, m := range res {
			if err := out.Encode(m); err != nil {
				return err
			}
		}
		return nil
	}

	if err := send(0, *mid); err != nil {
		return err
	}
	if err := out.Encode(genMsg{Half: 1}); err != nil {
		return err
	}
	if _, err := bufio.NewReader(os.Stdin).ReadString('\n'); err != nil {
		return fmt.Errorf("waiting for the restart: %w", err)
	}
	if err := send(*mid, len(arrivals)); err != nil {
		return err
	}
	return out.Encode(genMsg{Half: 2})
}

// submit posts arrival i and reports the id it was given.
func submit(client *http.Client, url string, i int, a arrival) genMsg {
	m := genMsg{I: i}
	spec := classes[a.class].spec
	if a.urgent {
		spec.Priority = urgentPriority
	}
	body, err := json.Marshal(spec)
	if err != nil {
		m.Err = err.Error()
		return m
	}
	t0 := time.Now()
	m.Sent = t0.UnixNano()
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		m.Err = err.Error()
		return m
	}
	defer resp.Body.Close()
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	m.Admit = int64(time.Since(t0))
	switch {
	case err != nil:
		m.Err = "submit: " + err.Error()
	case resp.StatusCode != http.StatusAccepted:
		m.Err = fmt.Sprintf("submit: %s: %s", resp.Status, st.Reason)
	default:
		m.ID = st.ID
	}
	return m
}

// loadgen is the parent's handle on a running generator.
type loadgen struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *json.Decoder
	exited bool
}

// startLoadgen starts a generator for the schedule of seed over span
// that starts at zero, pausing after mid arrivals.
func startLoadgen(url string, seed int64, span time.Duration, zero time.Time, mid, conns int) (*loadgen, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, loadgenArg,
		"-url", url, "-seed", strconv.FormatInt(seed, 10), "-span", span.String(),
		"-zero", strconv.FormatInt(zero.UnixNano(), 10),
		"-mid", strconv.Itoa(mid), "-conns", strconv.Itoa(conns))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &loadgen{cmd: cmd, in: in, out: json.NewDecoder(out)}, nil
}

// half reads the reports of one half of the schedule into recs.
func (g *loadgen) half(recs []*jobRec, n int) error {
	for {
		var m genMsg
		if err := g.out.Decode(&m); err != nil {
			return fmt.Errorf("load generator: %w", err)
		}
		if m.Half == n {
			return nil
		}
		if m.Half != 0 || m.I < 0 || m.I >= len(recs) {
			return fmt.Errorf("load generator: unexpected report %+v", m)
		}
		rec := recs[m.I]
		rec.id, rec.admitted = m.ID, time.Duration(m.Admit)
		if m.Sent != 0 {
			rec.sent = time.Unix(0, m.Sent)
		}
		if m.Err != "" {
			rec.err = errors.New(m.Err)
		}
	}
}

// resume lets the generator send the second half.
func (g *loadgen) resume() error {
	_, err := io.WriteString(g.in, "go\n")
	return err
}

// wait waits for the generator to exit after its last report.
func (g *loadgen) wait() error {
	g.in.Close()
	g.exited = true
	return g.cmd.Wait()
}

// stop kills a generator that has not been waited for and waits until
// it has ended.
func (g *loadgen) stop() {
	if g.exited {
		return
	}
	g.in.Close()
	g.cmd.Process.Kill()
	g.cmd.Wait()
	g.exited = true
}
