package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
)

// journalRun is one batch written as a journal the way `eilid-fleet
// -json` writes it: header, one flushed line per job in job order,
// summary.
type journalRun struct {
	digest   string
	report   *fleet.Report
	firstJob time.Duration // dispatch until the first job line is written
	wall     time.Duration // dispatch until the summary is written
}

// runJournal runs the runner's batch once, journalling it to path.
func runJournal(r *fleet.Runner, path string) (journalRun, error) {
	f, err := os.Create(path)
	if err != nil {
		return journalRun{}, err
	}
	h := sha256.New()
	w := bufio.NewWriter(io.MultiWriter(f, h))
	var out journalRun
	start := time.Now()
	werr := fleet.WriteJournalHeader(w, r.JournalHeader())
	if werr == nil {
		werr = w.Flush()
	}
	rep, err := r.RunStream(func(jr fleet.JobResult) {
		if werr != nil {
			return
		}
		if werr = fleet.WriteNDJSONLine(w, jr); werr == nil {
			werr = w.Flush()
		}
		if out.firstJob == 0 {
			out.firstJob = time.Since(start)
		}
	})
	if err == nil {
		err = werr
	}
	if err == nil {
		err = fleet.WriteJournalSummary(w, rep)
	}
	if err == nil {
		err = w.Flush()
	}
	out.wall = time.Since(start)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return journalRun{}, fmt.Errorf("journalling to %s: %w", path, err)
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.report = rep
	return out, nil
}

// setupReps is how many times a run measures its set-up; setup_s is the
// median.
const setupReps = 21

// newBatchRunner is the batch workloads' set-up: a fresh pipeline until
// the runner is ready.
func newBatchRunner(spec fleet.BatchSpec) (*core.Pipeline, *fleet.Runner, error) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	r, err := fleet.NewRunner(p, spec)
	if err != nil {
		return nil, nil, err
	}
	return p, r, nil
}

// timedBatch is the untraced run of a batch workload: set-up measured
// setupReps times, one warm-up batch that constructs the pooled
// machines, then windows of closed batches back to back until the run
// has lasted the requested time. Every batch's journal must match the
// recorded digest.
func timedBatch(w workload, o options) (*outcome, error) {
	want, err := recordedDigest(w.name)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var p *core.Pipeline
	var runner *fleet.Runner
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if p, runner, err = newBatchRunner(*w.batch); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	journal := o.path(w.name + ".ndjson")
	warm, err := runJournal(runner, journal)
	if err != nil {
		return nil, err
	}
	if warm.digest != want {
		return nil, fmt.Errorf("%s: journal sha256 %s, recorded %s", w.name, warm.digest, want)
	}

	out := newOutcome(w, o)
	if err := out.addSpec(runner.Spec()); err != nil {
		return nil, err
	}
	out.setupS = median(setups)
	for start := time.Now(); len(out.windows) == 0 || time.Since(start).Seconds() < o.seconds; {
		win := out.openWindow()
		for !win.full() {
			jr, err := runJournal(runner, journal)
			if err != nil {
				return nil, err
			}
			if jr.digest != want {
				return nil, fmt.Errorf("%s: journal sha256 %s, recorded %s", w.name, jr.digest, want)
			}
			out.addBatch(jr.report, jr.firstJob, jr.wall)
		}
		out.closeWindow(win)
	}
	if out.overhead, err = tableIVOverhead(p); err != nil {
		return nil, err
	}
	if w.name == "apps-x4" {
		// The recycled fleet machines must time the apps exactly as
		// fresh machines do.
		fromJournal, err := overheadFromJournal(journal)
		if err != nil {
			return nil, err
		}
		if fromJournal != out.overhead {
			return nil, fmt.Errorf("eilid overhead %.6f%% in the journal, %.6f%% on fresh machines", fromJournal, out.overhead)
		}
	}
	return out, nil
}
