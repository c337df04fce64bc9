package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
	"eilid/internal/fleet/serve"
)

// lifetimeSubmissions is how many submissions one daemon lifetime of
// fleetd-mixed makes; a lifetime is one window, so it must be at least
// minWindowBatches. The daemon retains memory with every batch, so a
// run is a series of equal lifetimes rather than one daemon that grows
// with the run's length.
const lifetimeSubmissions = 150

// daemon is an in-process fleetd serving on a loopback port.
type daemon struct {
	s      *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// startDaemon is fleetd-mixed's set-up: a fresh pipeline and server,
// up until /healthz answers.
func startDaemon() (*daemon, error) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		s:      serve.New(p, serve.Options{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
		served: make(chan error, 1),
	}
	d.hs = &http.Server{Handler: d.s.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := d.client.Get(d.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the HTTP server and the executor and waits for both.
func (d *daemon) close() {
	d.hs.Close()
	<-d.served
	d.client.CloseIdleConnections()
	d.s.Stop()
}

// submission is one client-observed batch.
type submission struct {
	id       string
	refused  bool // the POST got no 202
	submit   time.Duration
	firstJob time.Duration // POST until the first job line is read
	batch    time.Duration // POST until the summary line is read
	digest   string
	summary  fleet.JournalSummary
}

// submit posts spec and reads its journal stream to the end.
func (d *daemon) submit(spec fleet.BatchSpec) (submission, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return submission{}, err
	}
	var sub submission
	start := time.Now()
	resp, err := d.client.Post(d.url+"/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		return sub, err
	}
	var st serve.BatchStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	sub.submit = time.Since(start)
	if resp.StatusCode != http.StatusAccepted {
		sub.refused = true
		return sub, nil
	}
	if err != nil {
		return sub, fmt.Errorf("decoding submission status: %w", err)
	}
	sub.id = st.ID

	resp, err = d.client.Get(d.url + "/batches/" + st.ID + "/journal")
	if err != nil {
		return sub, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sub, fmt.Errorf("journal of %s: %s", st.ID, resp.Status)
	}
	h := sha256.New()
	br := bufio.NewReader(resp.Body)
	var last []byte
	for n := 0; ; n++ {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			h.Write(line)
			last = line
			if n == 1 {
				sub.firstJob = time.Since(start)
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return sub, fmt.Errorf("reading journal of %s: %w", st.ID, err)
		}
	}
	sub.batch = time.Since(start)
	sub.digest = hex.EncodeToString(h.Sum(nil))
	if err := json.Unmarshal(last, &sub.summary); err != nil || sub.summary.Journal != "summary" {
		return sub, fmt.Errorf("journal of %s does not end in a summary line", st.ID)
	}
	return sub, nil
}

// status fetches the server's record of a batch.
func (d *daemon) status(id string) (serve.BatchStatus, error) {
	var st serve.BatchStatus
	resp, err := d.client.Get(d.url + "/batches/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status of %s: %s", id, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// daemonSetups measures fleetd-mixed's set-up setupReps times.
func daemonSetups() ([]float64, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		d, err := startDaemon()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		d.close()
	}
	return setups, nil
}

// lifetime is one daemon lifetime of fleetd-mixed's closed loop: prime
// the warm seeds, then submit seeds back to back, each after the
// previous journal has been read to its end, and call each with every
// accepted submission. The submissions after priming form one window
// of out. digests holds each seed's journal digest; every submission
// of a seed must stream the same bytes.
func lifetime(d *daemon, out *outcome, seeds []uint64, digests map[uint64]string, each func(submission) error) error {
	record := func(seed uint64, sub submission) error {
		if sub.summary.Failures+sub.summary.ChecksFailed > 0 {
			return fmt.Errorf("seed %d: %d failed jobs, %d failed checks", seed, sub.summary.Failures, sub.summary.ChecksFailed)
		}
		if prev, ok := digests[seed]; ok && prev != sub.digest {
			return fmt.Errorf("seed %d streamed journal %s, earlier %s", seed, sub.digest, prev)
		}
		digests[seed] = sub.digest
		return nil
	}
	for _, seed := range warmSeeds {
		sub, err := d.submit(genSpec(seed))
		if err != nil {
			return err
		}
		if sub.refused {
			return fmt.Errorf("priming submission of seed %d refused", seed)
		}
		if err := record(seed, sub); err != nil {
			return err
		}
	}
	win := out.openWindow()
	for _, seed := range seeds {
		sub, err := d.submit(genSpec(seed))
		if err != nil {
			return err
		}
		if sub.refused {
			out.failed++
			out.attempts++
			continue
		}
		if err := record(seed, sub); err != nil {
			return err
		}
		rep := &fleet.Report{Jobs: sub.summary.Jobs, Failures: sub.summary.Failures,
			ChecksFailed: sub.summary.ChecksFailed, TotalCycles: sub.summary.TotalCycles}
		out.addBatch(rep, sub.firstJob, sub.batch)
		if each != nil {
			if err := each(sub); err != nil {
				return err
			}
		}
	}
	out.closeWindow(win)
	return nil
}

// lifetimeSeeds are the generated seeds of the n submissions of a
// run's lifetime-th daemon lifetime. Lifetimes share the warm seeds and
// differ in their cold ones, so a run's cold work averages over many
// seeds. The first lifetime's specs make the run's identity.
func lifetimeSeeds(out *outcome, workloadSeed uint64, lifetime, n int) ([]uint64, error) {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = submissionSeed(workloadSeed, lifetime*n+i)
		if lifetime > 0 {
			continue
		}
		if err := out.addSpec(genSpec(seeds[i])); err != nil {
			return nil, err
		}
	}
	return seeds, nil
}

// checkBatchPath is fleetd-mixed's output gate: for every seed
// submitted, the journal the daemon streamed must be byte-identical to
// the one the batch path (a cold fleet.Runner, as `eilid-fleet -spec`
// uses) writes for the same spec.
func checkBatchPath(p *core.Pipeline, digests map[uint64]string, o options) error {
	for seed, got := range digests {
		r, err := fleet.NewRunner(p, genSpec(seed))
		if err != nil {
			return err
		}
		jr, err := runJournal(r, o.path("fleetd-batch-path.ndjson"))
		if err != nil {
			return err
		}
		if jr.digest != got {
			return fmt.Errorf("seed %d: fleetd streamed journal %s, batch path wrote %s", seed, got, jr.digest)
		}
	}
	return nil
}

// timedFleetd is fleetd-mixed's untraced run: daemon lifetimes of
// lifetimeSubmissions submissions each, every one on a fresh daemon,
// until the run has lasted the requested time.
func timedFleetd(w workload, o options) (*outcome, error) {
	setups, err := daemonSetups()
	if err != nil {
		return nil, err
	}
	out := newOutcome(w, o)
	out.setupS = median(setups)
	digests := map[uint64]string{}
	for start, n := time.Now(), 0; n == 0 || time.Since(start).Seconds() < o.seconds; n++ {
		seeds, err := lifetimeSeeds(out, o.seed, n, lifetimeSubmissions)
		if err != nil {
			return nil, err
		}
		d, err := startDaemon()
		if err != nil {
			return nil, err
		}
		err = lifetime(d, out, seeds, digests, nil)
		d.close()
		if err != nil {
			return nil, err
		}
		// Collect the closed daemon now, so the next lifetime does not
		// pay for its predecessor's heap.
		debug.FreeOSMemory()
	}
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := checkBatchPath(p, digests, o); err != nil {
		return nil, err
	}
	if out.overhead, err = tableIVOverhead(p); err != nil {
		return nil, err
	}
	return out, nil
}
