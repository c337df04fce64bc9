package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eilid/internal/apps"
	"eilid/internal/core"
	"eilid/internal/eval"
	"eilid/internal/fleet"
)

// options are the command-line settings of one run.
type options struct {
	seed    uint64
	seconds float64
	dir     string // build directory for journals and span files
}

func (o options) path(name string) string { return filepath.Join(o.dir, name) }

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// identity pins what a run measured: a changed defense registry or
// matrix shows up as a different fingerprint or job count, and records
// from different hosts or toolchains never read as one series.
type identity struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	// Fingerprint is the journal fingerprint of the run's batch spec;
	// a run that submits several specs gets the sha256 of their
	// fingerprints in submission order.
	Fingerprint  string `json:"fingerprint"`
	Specs        int    `json:"specs"`
	JobsPerBatch int    `json:"jobs_per_batch"`
	// Jobs counts the jobs behind the metrics.
	Jobs    int  `json:"jobs"`
	Workers int  `json:"workers"`
	Host    host `json:"host"`
	// Samples counts the samples behind each percentile metric, and
	// Windows the windows each metric is the median over.
	Samples map[string]int `json:"samples,omitempty"`
	Windows int            `json:"windows,omitempty"`
	// StealPct is the median over windows of the share of the host's
	// CPU time the hypervisor withheld: the main source of run-to-run
	// spread on a shared host.
	StealPct float64 `json:"steal_pct,omitempty"`
	// MaxRSSMB is the process's ru_maxrss: its true peak, which unlike
	// rss_peak_mb also counts garbage not yet collected and so moves
	// with the collector's timing from run to run.
	MaxRSSMB float64 `json:"max_rss_mb,omitempty"`
	// PaperRuntimeOverheadPct is the paper's Table IV average, printed
	// beside eilid_overhead_pct.
	PaperRuntimeOverheadPct float64 `json:"paper_runtime_overhead_pct"`
	// Breakdown is the traced run's per-job host-time account.
	Breakdown map[string]float64 `json:"breakdown_us_per_job,omitempty"`
}

// windowSeconds is the least length of the windows a timed run is cut
// into; a window also lasts until it holds minWindowBatches batches.
// Every end-to-end metric but setup_s is computed per window and
// reported as the median over the windows. The host steals CPU time
// from this process by the tens of percent for seconds at a time, and
// a median lets a disturbed window move the figure less.
const windowSeconds = 5.0

// minWindowBatches is the least number of batches in a window, so that
// a window's p90 has at least minTail samples beyond it.
const minWindowBatches = 110

// window is one stretch of a timed run.
type window struct {
	start   time.Time
	cpu0    time.Duration
	steal0  float64
	jobs    int
	cycles  uint64
	firstMS []float64
	batchMS []float64
	wall    time.Duration
	cpu     time.Duration
	steal   float64 // CPU seconds the host withheld
	rssKB   float64 // resident set at the window's end, settled
}

// full reports whether the window has lasted long enough.
func (w *window) full() bool {
	return len(w.batchMS) >= minWindowBatches && time.Since(w.start).Seconds() >= windowSeconds
}

// outcome accumulates one untraced run.
type outcome struct {
	id       identity
	setupS   float64
	jobs     int
	failed   int // jobs with an error or a failed check, plus refused submissions
	attempts int // jobs, plus submissions that never ran
	windows  []*window
	overhead float64
}

// openWindow starts a window; batches added until closeWindow count
// towards it.
func (out *outcome) openWindow() *window {
	w := &window{cpu0: cpuTime(), steal0: stealSeconds(), start: time.Now()}
	out.windows = append(out.windows, w)
	return w
}

// closeWindow ends the open window, then settles the resident set
// outside the window's clock.
func (out *outcome) closeWindow(w *window) {
	w.wall = time.Since(w.start)
	w.cpu = cpuTime() - w.cpu0
	w.steal = stealSeconds() - w.steal0
	w.rssKB = settledRSSKB()
}

func newOutcome(w workload, o options) *outcome {
	_, _, paperRuntime := eval.PaperAverages()
	return &outcome{id: identity{
		Workload: w.name, Seed: o.seed, Workers: workers,
		Host: hostInfo(), PaperRuntimeOverheadPct: paperRuntime,
	}}
}

// addSpec records a submitted spec in the run's identity.
func (out *outcome) addSpec(spec fleet.BatchSpec) error {
	h, err := fleet.JournalHeaderForSpec(spec)
	if err != nil {
		return err
	}
	if out.id.Specs == 0 {
		out.id.Fingerprint = h.Fingerprint
		out.id.JobsPerBatch = h.Jobs
	} else {
		sum := sha256.Sum256([]byte(out.id.Fingerprint + "\n" + h.Fingerprint))
		out.id.Fingerprint = hex.EncodeToString(sum[:])
		if h.Jobs != out.id.JobsPerBatch {
			out.id.JobsPerBatch = 0 // the specs differ in size
		}
	}
	out.id.Specs++
	return nil
}

// addBatch folds one completed batch into the run and its open window,
// if any.
func (out *outcome) addBatch(rep *fleet.Report, firstJob, wall time.Duration) {
	out.jobs += rep.Jobs
	out.attempts += rep.Jobs
	out.failed += rep.Failures + rep.ChecksFailed
	if n := len(out.windows); n > 0 {
		w := out.windows[n-1]
		w.jobs += rep.Jobs
		w.cycles += rep.TotalCycles
		w.firstMS = append(w.firstMS, ms(firstJob))
		w.batchMS = append(w.batchMS, ms(wall))
	}
}

// metrics computes the end-to-end metrics.
func (out *outcome) metrics() (map[string]metric, error) {
	if len(out.windows) == 0 {
		return nil, fmt.Errorf("the run measured no window")
	}
	overWindows := func(f func(w *window) float64) float64 {
		xs := make([]float64, len(out.windows))
		for i, w := range out.windows {
			xs[i] = f(w)
		}
		return median(xs)
	}
	m := map[string]metric{
		"setup_s":            {out.setupS, "s"},
		"jobs_per_s":         {overWindows(func(w *window) float64 { return float64(w.jobs) / w.wall.Seconds() }), "jobs/s"},
		"sim_mcycles_per_s":  {overWindows(func(w *window) float64 { return float64(w.cycles) / 1e6 / w.wall.Seconds() }), "Mcycles/s"},
		"cpu_us_per_job":     {overWindows(func(w *window) float64 { return us(w.cpu) / float64(w.jobs) }), "us"},
		"rss_peak_mb":        {overWindows(func(w *window) float64 { return w.rssKB / 1024 }), "MB"},
		"eilid_overhead_pct": {out.overhead, "%"},
	}
	out.id.Samples = map[string]int{}
	for _, series := range []struct {
		name string
		xs   func(w *window) []float64
	}{
		{"first_job_ms", func(w *window) []float64 { return w.firstMS }},
		{"batch_ms", func(w *window) []float64 { return w.batchMS }},
	} {
		for _, p := range []float64{50, 90} {
			key := fmt.Sprintf("%s.p%g", series.name, p)
			var err error
			m[key] = metric{overWindows(func(w *window) float64 {
				v, perr := percentile(series.xs(w), p)
				if perr != nil {
					err = perr
				}
				return v
			}), "ms"}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", key, err)
			}
			for _, w := range out.windows {
				out.id.Samples[key] += len(series.xs(w))
			}
		}
	}
	out.id.Jobs = out.jobs
	out.id.Windows = len(out.windows)
	out.id.MaxRSSMB = peakRSSMB()
	out.id.StealPct = overWindows(func(w *window) float64 {
		return 100 * w.steal / (w.wall.Seconds() * float64(runtime.NumCPU()))
	})
	return m, nil
}

// tableIVOverhead is the simulated run-time overhead of the eilid
// column over the baseline, averaged over the seven Table IV apps, each
// run once on a fresh machine per column — the paper's Table IV
// "time diff" column.
func tableIVOverhead(p *core.Pipeline) (float64, error) {
	var t eval.TableIV
	for _, name := range tableIVApps {
		app, ok := apps.ByName(name)
		if !ok {
			return 0, fmt.Errorf("unknown application %q", name)
		}
		build, err := p.Build(app.Name+".s", app.Source)
		if err != nil {
			return 0, err
		}
		row := eval.TableIVRow{App: name}
		for _, d := range []*core.DefenseSpec{core.DefenseBaseline, core.DefenseEILID} {
			insp, _, err := fleet.ExecuteApp(p, app, build, d, nil)
			if err != nil {
				return 0, fmt.Errorf("%s on %s: %w", name, d.Name, err)
			}
			if err := app.Check(insp); err != nil {
				return 0, fmt.Errorf("%s on %s: %w", name, d.Name, err)
			}
			if d == core.DefenseBaseline {
				row.CyclesOrig = insp.Cycles
			} else {
				row.CyclesEILID = insp.Cycles
			}
		}
		t.Rows = append(t.Rows, row)
	}
	_, _, runtime := t.Averages()
	return runtime, nil
}

// overheadFromJournal is tableIVOverhead read off an apps-x4 journal's
// first repeat instead of fresh runs.
func overheadFromJournal(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	j, err := fleet.ParseJournal(data)
	if err != nil {
		return 0, err
	}
	cycles := map[string]uint64{}
	for _, jr := range j.Results {
		if jr.Kind == "app" && jr.Repeat == 0 {
			cycles[jr.Name+"/"+jr.Defense] = jr.Cycles
		}
	}
	var t eval.TableIV
	for _, name := range tableIVApps {
		row := eval.TableIVRow{App: name, CyclesOrig: cycles[name+"/baseline"], CyclesEILID: cycles[name+"/eilid"]}
		if row.CyclesOrig == 0 || row.CyclesEILID == 0 {
			return 0, fmt.Errorf("journal %s lacks %s on baseline or eilid", path, name)
		}
		t.Rows = append(t.Rows, row)
	}
	_, _, runtime := t.Averages()
	return runtime, nil
}
