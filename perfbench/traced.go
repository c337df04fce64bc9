package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
)

// Sizing of the traced run. Each spec's untraced reference runs batches
// for referenceShare of the requested seconds, capped at maxReplayJobs
// jobs so the in-memory span log stays small; the traced replay, the
// no-monitor twin pass and the one-worker pass each run as many batches
// again.
const (
	referenceShare = 0.2
	maxReplayJobs  = 50000
	bootReps       = 5
	// probeSubmissions is how many times a batch workload's traced run
	// submits its spec to fleetd: the first cold, the rest warm.
	probeSubmissions = 5
	// tracedSubmissions is the length of fleetd-mixed's traced loop.
	tracedSubmissions = 110
)

// phases are the per-job spans whose self times, plus the unaccounted
// remainder, make up the untraced per-job host time.
var phases = []string{spanConstruct, spanRecycle, spanBoot, spanRun, spanExecute, spanCheck, spanEncode, spanWrite}

// pass is the spans one replay pass recorded over one spec's jobs,
// with each job's simulated cycles and the number of batches after the
// warm-up.
type pass struct {
	tracers []*tracer
	jobs    []fleet.Job
	cycles  []uint64
	batches int
}

// profile accumulates a traced run's batch passes over its specs.
// Everything but preparation and machine construction counts only the
// batches after the warm-up (span batch ≥ 1).
type profile struct {
	prep         []*tracer
	traced, twin []pass
	refWall      time.Duration // untraced reference, two workers
	refJobs      int
	tracedWall   time.Duration
	tracedJobs   int
	oneWall      time.Duration // untraced, one worker
	oneJobs      int
	journalBytes int64 // job lines of the untraced journal
	journalJobs  int
	boot         time.Duration // summed over bootN boots
	bootN        int
	goDelta      goCounters // over the untraced reference
}

// after keeps the spans of the batches after the warm-up.
func after(s *span) bool { return s.Batch >= 1 }

// profileSpec runs the batch passes of a traced run on one spec: the
// untraced reference at two workers (the timing every phase is set
// against, and the journal the replay must reproduce), one worker, the
// traced replay, the twin pass, and the side measurement of Boot.
func (pf *profile) profileSpec(p *core.Pipeline, spec fleet.BatchSpec, o options, share float64, want string) error {
	r, err := fleet.NewRunner(p, spec)
	if err != nil {
		return err
	}
	refPath := o.path("traced-reference.ndjson")
	warm, err := runJournal(r, refPath)
	if err != nil {
		return err
	}
	if want != "" && warm.digest != want {
		return fmt.Errorf("journal sha256 %s, recorded %s", warm.digest, want)
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		return err
	}
	jobs := r.Jobs()
	pf.journalBytes += jobLineBytes(ref)
	pf.journalJobs += len(jobs)

	// Untraced reference.
	maxBatches := max(1, maxReplayJobs/len(jobs))
	g0 := readGoCounters()
	var batches int
	for start := time.Now(); batches < 2 || (batches < maxBatches && time.Since(start).Seconds() < share*o.seconds); batches++ {
		jr, err := runJournal(r, refPath)
		if err != nil {
			return err
		}
		if jr.digest != warm.digest {
			return fmt.Errorf("untraced journal changed between batches: %s then %s", warm.digest, jr.digest)
		}
		pf.refWall += jr.wall
		pf.refJobs += jr.report.Jobs
	}
	pf.goDelta = pf.goDelta.plus(readGoCounters().since(g0))

	// One worker, for the pool's scaling.
	one := spec
	one.Exec.Workers = 1
	r1, err := fleet.NewRunner(p, one)
	if err != nil {
		return err
	}
	for b := 0; b <= batches; b++ {
		jr, err := runJournal(r1, o.path("traced-one-worker.ndjson"))
		if err != nil {
			return err
		}
		if jr.digest != warm.digest {
			return fmt.Errorf("one-worker journal %s differs from the two-worker journal %s", jr.digest, warm.digest)
		}
		if b > 0 {
			pf.oneWall += jr.wall
			pf.oneJobs += jr.report.Jobs
		}
	}

	// Traced replay: batch 0 constructs the machines, every batch must
	// reproduce the untraced journal.
	epoch := time.Now()
	prep := newTracer(epoch)
	rp, err := newReplay(p, spec, jobs, prep)
	if err != nil {
		return err
	}
	pf.prep = append(pf.prep, prep)
	traced := newWorkers(epoch)
	emit := newTracer(epoch)
	replayPath := o.path("traced-replay.ndjson")
	for b := 0; b <= batches; b++ {
		digest, wall, _, err := rp.replayBatch(traced, emit, b, false, replayPath)
		if err != nil {
			return err
		}
		if digest != warm.digest {
			return replicaError(refPath, replayPath)
		}
		if b > 0 {
			pf.tracedWall += wall
			pf.tracedJobs += len(jobs)
		}
	}
	refJournal, err := fleet.ParseJournal(ref)
	if err != nil {
		return err
	}
	cycles := make([]uint64, len(jobs))
	for i, jr := range refJournal.Results {
		cycles[i] = jr.Cycles
	}
	pf.traced = append(pf.traced, pass{tracers: append(tracersOf(traced), emit), jobs: jobs, cycles: cycles, batches: batches})

	// The twin pass runs the defended columns without their monitors.
	rp.twinBudgets = cycles
	twin := newWorkers(epoch)
	twinEmit := newTracer(epoch)
	var twinCycles []uint64
	for b := 0; b <= batches; b++ {
		if _, _, twinCycles, err = rp.replayBatch(twin, twinEmit, b, true, o.path("traced-twin.ndjson")); err != nil {
			return err
		}
	}
	pf.twin = append(pf.twin, pass{tracers: tracersOf(twin), jobs: jobs, cycles: twinCycles, batches: batches})

	boot, n, err := bootTimes(traced, bootReps)
	pf.boot += boot
	pf.bootN += n
	return err
}

func newWorkers(epoch time.Time) []*replayWorker {
	ws := make([]*replayWorker, workers)
	for i := range ws {
		ws[i] = &replayWorker{tr: newTracer(epoch), machines: map[string]*core.Machine{}}
	}
	return ws
}

func tracersOf(ws []*replayWorker) []*tracer {
	out := make([]*tracer, len(ws))
	for i, w := range ws {
		out[i] = w.tr
	}
	return out
}

// jobLineBytes is the size of a journal's job lines (all but the
// header and summary lines).
func jobLineBytes(journal []byte) int64 {
	lines := bytes.SplitAfter(journal, []byte("\n"))
	var n int64
	for _, l := range lines[1 : len(lines)-2] {
		n += int64(len(l))
	}
	return n
}

// replicaError names the first line where the replay's journal departs
// from the untraced one.
func replicaError(refPath, replayPath string) error {
	a, errA := os.ReadFile(refPath)
	b, errB := os.ReadFile(replayPath)
	if errA != nil || errB != nil {
		return fmt.Errorf("replay journal differs from the untraced journal")
	}
	sa, sb := bufio.NewScanner(bytes.NewReader(a)), bufio.NewScanner(bytes.NewReader(b))
	sa.Buffer(nil, 1<<20)
	sb.Buffer(nil, 1<<20)
	for line := 1; ; line++ {
		okA, okB := sa.Scan(), sb.Scan()
		if !okA || !okB || !bytes.Equal(sa.Bytes(), sb.Bytes()) {
			return fmt.Errorf("replay journal departs from the untraced journal at line %d:\n  untraced %s\n  replay   %s", line, sa.Text(), sb.Text())
		}
	}
}
