package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"time"

	"eilid/internal/apps"
	"eilid/internal/asm"
	"eilid/internal/attacks"
	"eilid/internal/core"
	"eilid/internal/fleet"
	"eilid/internal/fleet/pool"
	"eilid/internal/isa"
	"eilid/internal/scenario"
)

// Span names: one per layer call the replay times.
const (
	spanJob       = "fleet.job"
	spanPrepare   = "fleet.prepare"
	spanBuild     = "core.pipeline.build"
	spanPredecode = "isa.predecode"
	spanConstruct = "core.machine.construct"
	spanRecycle   = "core.machine.recycle"
	spanBoot      = "core.machine.boot"
	spanRun       = "core.machine.run"
	spanExecute   = "attacks.execute"
	spanCheck     = "oracle.check"
	spanEncode    = "fleet.journal.encode"
	spanWrite     = "fleet.journal.write"
)

// replay re-runs a batch's jobs through the public calls the fleet
// runner makes — attacks.TargetFor, Target.NewMachine, Snapshot and
// Recycle, UART.Feed, Boot, Run, apps.Inspect, App.Check,
// attacks.ExecuteOn, Generated.Check and fleet.WriteNDJSONLine — with a
// span around each. The runner's internals are private; the replay's
// journal must equal the runner's byte for byte, which is what makes
// its spans a breakdown of the runner's work.
type replay struct {
	p      *core.Pipeline
	header *fleet.JournalHeader
	jobs   []fleet.Job
	arts   map[string]*artifact // by artifactKey
	scen   map[string]attacks.Scenario
	gen    map[string]scenario.Generated
	defs   map[string]*core.DefenseSpec
	// twins are the defended columns with no monitor wired: same
	// image, ROM and interrupt gate, so their run cost is the column's
	// minus its monitor hooks.
	twins map[string]*core.DefenseSpec
	// twinBudgets caps each attack or generated job's run on a twin at
	// the cycles the job simulated with its monitor. A monitor that
	// fires resets the device; its twin runs the attack on instead, for
	// up to the scenario's full budget, and would simulate a different
	// workload.
	twinBudgets []uint64
}

// artifact is one firmware build with its decode cache per build
// flavour (original, instrumented).
type artifact struct {
	build *core.BuildResult
	pre   [2]*isa.Predecoded
}

func (a *artifact) predecoded(spec *core.DefenseSpec) *isa.Predecoded {
	if spec.Instrumented {
		return a.pre[1]
	}
	return a.pre[0]
}

func artifactKey(job fleet.Job) string {
	if job.Kind == "gen" {
		return "gen/" + job.Victim
	}
	return job.Kind + "/" + job.Name
}

// newReplay prepares the spec's firmware the way the runner does —
// build, then predecode and fuse blocks per flavour — recording the
// preparation spans on tr. jobs is the runner's enumeration of the same
// spec.
func newReplay(p *core.Pipeline, spec fleet.BatchSpec, jobs []fleet.Job, tr *tracer) (*replay, error) {
	spec, err := fleet.ResolveSpec(spec)
	if err != nil {
		return nil, err
	}
	header, err := fleet.JournalHeaderForSpec(spec)
	if err != nil {
		return nil, err
	}
	rp := &replay{
		p: p, header: header, jobs: jobs, arts: map[string]*artifact{},
		scen: map[string]attacks.Scenario{}, gen: map[string]scenario.Generated{},
		defs: map[string]*core.DefenseSpec{}, twins: map[string]*core.DefenseSpec{},
	}
	for _, name := range spec.Matrix.Defenses {
		d, err := core.DefenseByName(name)
		if err != nil {
			return nil, err
		}
		rp.defs[name] = d
		if d.New != nil {
			rp.twins[name] = &core.DefenseSpec{Name: d.Name, Instrumented: d.Instrumented, GateIRQ: d.GateIRQ, Kinds: d.Kinds}
		}
	}
	for _, name := range spec.Matrix.Apps {
		app, ok := apps.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown application %q", name)
		}
		if err := rp.prepare(tr, "app/"+name, name+".s", app.Source); err != nil {
			return nil, err
		}
	}
	for _, sc := range attacks.Scenarios() {
		rp.scen[sc.Name] = sc
	}
	for _, name := range spec.Matrix.Scenarios {
		sc, ok := rp.scen[name]
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q", name)
		}
		if err := rp.prepare(tr, "attack/"+name, name+".s", sc.Source); err != nil {
			return nil, err
		}
	}
	if g := spec.Matrix.Generated; g.Count > 0 {
		batch := scenario.Generate(g.Seed, g.Count)
		for _, v := range batch.Victims {
			if err := rp.prepare(tr, "gen/"+v.Name, v.Name+".s", v.Source); err != nil {
				return nil, err
			}
		}
		for _, item := range batch.Items {
			rp.gen[item.Scenario.Name] = item
		}
	}
	return rp, nil
}

// prepare builds one firmware and snapshots its decode caches.
func (rp *replay) prepare(tr *tracer, key, file, source string) error {
	tr.begin(spanPrepare)
	defer tr.end()
	tr.begin(spanBuild)
	build, err := rp.p.Build(file, source)
	tr.end()
	if err != nil {
		return fmt.Errorf("building %s: %w", file, err)
	}
	a := &artifact{build: build}
	for i, img := range []*asm.Image{build.Original.Image, build.Instrumented.Image} {
		opts := core.MachineOptions{Config: rp.p.Config()}
		if i == 1 {
			opts.ROM = rp.p.ROM()
			opts.Defense = core.DefenseEILID
		}
		m, err := core.NewMachine(opts)
		if err != nil {
			return err
		}
		if err := img.WriteTo(m.Space); err != nil {
			return err
		}
		tr.begin(spanPredecode)
		a.pre[i] = m.EnablePredecode()
		a.pre[i].Blocks()
		tr.end()
	}
	rp.arts[key] = a
	return nil
}

// replayWorker is one pool worker's tracer and machine pool.
type replayWorker struct {
	tr       *tracer
	machines map[string]*core.Machine
}

// machine returns the worker's machine for the job's cell, recycled,
// or constructs and seals one on the cell's first job.
func (rp *replay) machine(ws *replayWorker, job fleet.Job, spec *core.DefenseSpec, twin bool) (*core.Machine, attacks.Target, error) {
	a := rp.arts[artifactKey(job)]
	t := attacks.TargetFor(rp.p, a.build, spec)
	t.Predecoded = a.predecoded(spec)
	key := artifactKey(job) + "/" + spec.Name
	if twin {
		key += "/twin"
	}
	if m, ok := ws.machines[key]; ok {
		ws.tr.begin(spanRecycle)
		err := m.Recycle()
		ws.tr.end()
		return m, t, err
	}
	ws.tr.begin(spanConstruct)
	m, err := t.NewMachine()
	if err == nil {
		m.Snapshot()
	}
	ws.tr.end()
	if err != nil {
		return nil, t, err
	}
	ws.machines[key] = m
	return m, t, nil
}

// runJob replays one job. With twin set, defended columns run on their
// no-monitor twins; such results differ from the journal's and serve
// only to time the run.
func (rp *replay) runJob(ws *replayWorker, job fleet.Job, twin bool) fleet.JobResult {
	ws.tr.job = job.Index
	ws.tr.begin(spanJob)
	defer ws.tr.end()
	res := fleet.JobResult{Job: job}
	spec := rp.defs[job.Defense]
	run := spec
	if twin && rp.twins[job.Defense] != nil {
		run = rp.twins[job.Defense]
	}
	m, t, err := rp.machine(ws, job, run, twin)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	switch job.Kind {
	case "app":
		rp.appJob(ws.tr, m, &res)
	case "attack":
		o, ok := rp.scenarioJob(ws.tr, m, t, rp.twinScenario(rp.scen[job.Name], job, twin), &res)
		if !ok {
			return res
		}
		// The runner's per-column check of a handcrafted attack.
		ws.tr.begin(spanCheck)
		switch {
		case spec.New == nil:
			res.CheckOK = o.Compromised
		case spec.Name == core.DefenseEILID.Name:
			res.CheckOK = !o.Compromised && o.Resets > 0
		default:
			res.CheckOK = o.Resets == 0 || spec.EmitsReason(o.Reason)
		}
		ws.tr.end()
	case "gen":
		g := rp.gen[job.Name]
		o, ok := rp.scenarioJob(ws.tr, m, t, rp.twinScenario(g.Scenario, job, twin), &res)
		if !ok {
			return res
		}
		ws.tr.begin(spanCheck)
		res.Oracle = g.Check(spec, o)
		ws.tr.end()
		res.CheckOK = res.Oracle == ""
	}
	return res
}

// twinScenario caps the scenario's run at the job's twin budget when it
// runs on a twin.
func (rp *replay) twinScenario(sc attacks.Scenario, job fleet.Job, twin bool) attacks.Scenario {
	if twin {
		sc.Budget = rp.twinBudgets[job.Index]
	}
	return sc
}

// appJob is fleet.ExecuteAppOn plus the runner's app check.
func (rp *replay) appJob(tr *tracer, m *core.Machine, res *fleet.JobResult) {
	app, _ := apps.ByName(res.Name)
	tr.begin(spanExecute)
	if app.UARTInput != "" {
		m.UART.Feed([]byte(app.UARTInput))
	}
	tr.begin(spanBoot)
	m.Boot()
	tr.end()
	tr.begin(spanRun)
	run, runErr := m.Run(app.MaxCycles)
	tr.end()
	tr.end()

	tr.begin(spanCheck)
	defer tr.end()
	insp := apps.Inspect(m, run)
	if runErr != nil {
		res.Err = runErr.Error()
	}
	res.Cycles, res.Insns, res.Halted, res.ExitCode = insp.Cycles, insp.Insns, insp.Halted, insp.ExitCode
	res.Resets, res.ReasonsRecorded, res.UART = insp.Resets, insp.ReasonsRecorded, insp.UART
	if len(m.ResetReasons) > 0 {
		res.Reason = m.ResetReasons[0].Kind.String()
	}
	if runErr == nil {
		if chk := app.Check(insp); chk != nil {
			res.Err = fmt.Sprintf("behaviour check failed: %v", chk)
		} else {
			res.CheckOK = true
		}
	}
}

// scenarioJob runs an attack or generated scenario and copies its
// outcome into res; false means the run itself failed.
func (rp *replay) scenarioJob(tr *tracer, m *core.Machine, t attacks.Target, sc attacks.Scenario, res *fleet.JobResult) (attacks.Outcome, bool) {
	tr.begin(spanExecute)
	o, err := attacks.ExecuteOn(m, t, sc)
	tr.end()
	if err != nil {
		res.Err = err.Error()
		return o, false
	}
	res.Cycles, res.Insns, res.Halted, res.ExitCode = o.Cycles, o.Insns, o.Halted, o.ExitCode
	res.Resets, res.ReasonsRecorded, res.Reason = o.Resets, o.ReasonsRecorded, o.Reason
	res.UART, res.Compromised = o.UART, o.Compromised
	return o, true
}

// spanWriter times each journal write, including the per-job flush the
// batch journal makes.
type spanWriter struct {
	tr *tracer
	w  *bufio.Writer
}

func (sw *spanWriter) Write(b []byte) (int, error) {
	sw.tr.begin(spanWrite)
	defer sw.tr.end()
	n, err := sw.w.Write(b)
	if err == nil {
		err = sw.w.Flush()
	}
	return n, err
}

// replayBatch replays the whole batch once on len(ws) workers, numbered
// batch in the spans, and journals it to path exactly as runJournal
// does. It returns the journal's digest, the wall time from dispatch
// until the summary, and each job's simulated cycles.
func (rp *replay) replayBatch(ws []*replayWorker, emit *tracer, batch int, twin bool, path string) (string, time.Duration, []uint64, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", 0, nil, err
	}
	h := sha256.New()
	bw := bufio.NewWriter(io.MultiWriter(f, h))
	sw := &spanWriter{tr: emit, w: bw}
	start := time.Now()
	werr := fleet.WriteJournalHeader(bw, rp.header)
	if werr == nil {
		werr = bw.Flush()
	}
	rep := &fleet.Report{Workers: len(ws)}
	cycles := make([]uint64, len(rp.jobs))
	emit.batch = batch
	for _, w := range ws {
		w.tr.batch = batch
	}
	pool.StreamIndexed(len(rp.jobs), len(ws),
		func(worker, i int) fleet.JobResult { return rp.runJob(ws[worker], rp.jobs[i], twin) },
		func(_ int, jr fleet.JobResult) {
			rep.Add(jr)
			cycles[jr.Index] = jr.Cycles
			if werr != nil {
				return
			}
			emit.job = jr.Index
			emit.begin(spanEncode)
			werr = fleet.WriteNDJSONLine(sw, jr)
			emit.end()
		})
	if werr == nil {
		werr = fleet.WriteJournalSummary(bw, rep)
	}
	if werr == nil {
		werr = bw.Flush()
	}
	wall := time.Since(start)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", 0, nil, fmt.Errorf("journalling replay to %s: %w", path, werr)
	}
	return hex.EncodeToString(h.Sum(nil)), wall, cycles, nil
}

// bootTimes boots every machine the workers hold, each freshly
// recycled, reps times, and returns the summed Boot time and the number
// of boots. It times Boot apart from the jobs because attack and
// generated jobs boot inside attacks.ExecuteOn, where the replay cannot
// separate it from the attack.
func bootTimes(ws []*replayWorker, reps int) (total time.Duration, n int, err error) {
	for _, w := range ws {
		for _, m := range w.machines {
			for r := 0; r < reps; r++ {
				if err := m.Recycle(); err != nil {
					return 0, 0, err
				}
				start := time.Now()
				m.Boot()
				total += time.Since(start)
				n++
			}
		}
	}
	return total, n, nil
}
