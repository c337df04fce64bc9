package core_test

import (
	"errors"
	"fmt"
	"testing"

	"eilid/internal/apps"
	"eilid/internal/core"
	"eilid/internal/cpu"
	"eilid/internal/isa"
)

// newLoadedMachine constructs a machine for one app build variant with
// the firmware loaded and a decode cache installed — the state the
// fleet seals with Snapshot before the first job.
func newLoadedMachine(t *testing.T, p *core.Pipeline, build *core.BuildResult, spec *core.DefenseSpec) *core.Machine {
	t.Helper()
	opts := core.MachineOptions{Config: p.Config(), Defense: spec}
	img := build.Original.Image
	if spec.Instrumented {
		opts.ROM = p.ROM()
		img = build.Instrumented.Image
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadFirmware(img); err != nil {
		t.Fatal(err)
	}
	m.EnablePredecode()
	return m
}

// observeOn runs the app on a prepared machine (fresh or recycled) with
// a fresh event recorder wired over the machine's base watcher, and
// returns the full observation plus the final register file.
func observeOn(t *testing.T, m *core.Machine, base cpu.Watcher, app apps.App) (observed, [16]uint16) {
	t.Helper()
	rec := &eventRecorder{inner: base, clock: func() uint64 { return m.CPU.Cycles }}
	m.CPU.SetWatcher(rec)
	if app.UARTInput != "" {
		m.UART.Feed([]byte(app.UARTInput))
	}
	m.Boot()
	res, runErr := m.Run(app.MaxCycles)
	o := observed{
		insp:      apps.Inspect(m, res),
		res:       res,
		err:       runErr,
		busErrors: m.Space.BusErrors,
		events:    rec.events,
		irqCycles: rec.irqCycles,
	}
	for _, v := range m.ResetReasons {
		o.reasons = append(o.reasons, v.Error())
	}
	return o, m.CPU.R
}

// TestRecycleDifferential is the machine-level recycling contract: for
// every Table IV application under every registered defense, a machine sealed
// with Snapshot and recycled with Recycle reproduces a fresh machine's
// run exactly — cycles, instruction counts, bus errors, the full
// watcher event stream, interrupt arrival cycles, reset reasons, the
// register file and every observable of the inspection — across
// back-to-back recycles.
func TestRecycleDifferential(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			build, err := p.Build(app.Name+".s", app.Source)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range core.Defenses() {
				what := fmt.Sprintf("%s defense=%s", app.Name, spec.Name)
				m := newLoadedMachine(t, p, build, spec)
				base := m.CPU.Watcher()
				m.Snapshot()
				fresh, freshR := observeOn(t, m, base, app)
				// The sealed-and-run machine must itself match an
				// untouched fresh machine (Snapshot perturbs nothing).
				ref := runObserved(t, p, app, build, spec, nil)
				compareObserved(t, what+" sealed-vs-plain", fresh, ref)
				for round := 1; round <= 2; round++ {
					if err := m.Recycle(); err != nil {
						t.Fatalf("%s: recycle %d: %v", what, round, err)
					}
					got, gotR := observeOn(t, m, base, app)
					compareObserved(t, fmt.Sprintf("%s recycle=%d", what, round), fresh, got)
					if freshR != gotR {
						t.Errorf("%s recycle=%d: register files diverged:\n%v\n%v",
							what, round, freshR, gotR)
					}
				}
			}
		})
	}
}

// TestRecycleDifferentialUnwatched re-runs the matrix with no event
// recorder installed — the configuration in which the pure-block fast
// path runs on the baseline — so recycling is proven identical on the
// exact code paths the fleet executes.
func TestRecycleDifferentialUnwatched(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(m *core.Machine, app apps.App) (core.RunResult, [16]uint16, int, *apps.Inspection) {
		if app.UARTInput != "" {
			m.UART.Feed([]byte(app.UARTInput))
		}
		m.Boot()
		res, runErr := m.Run(app.MaxCycles)
		if runErr != nil {
			t.Fatalf("%s: %v", app.Name, runErr)
		}
		return res, m.CPU.R, m.Space.BusErrors, apps.Inspect(m, res)
	}
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			build, err := p.Build(app.Name+".s", app.Source)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range core.Defenses() {
				what := fmt.Sprintf("%s defense=%s", app.Name, spec.Name)
				m := newLoadedMachine(t, p, build, spec)
				m.Snapshot()
				fRes, fR, fBE, fInsp := run(m, app)
				if err := m.Recycle(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				rRes, rR, rBE, rInsp := run(m, app)
				if fRes.Cycles != rRes.Cycles || fRes.Insns != rRes.Insns ||
					fRes.Halted != rRes.Halted || fRes.ExitCode != rRes.ExitCode ||
					fRes.Resets != rRes.Resets {
					t.Errorf("%s: RunResult diverged: %+v vs %+v", what, fRes, rRes)
				}
				if fR != rR {
					t.Errorf("%s: register files diverged:\n%v\n%v", what, fR, rR)
				}
				if fBE != rBE {
					t.Errorf("%s: bus errors %d vs %d", what, fBE, rBE)
				}
				if err := apps.Equivalent(fInsp, rInsp); err != nil {
					t.Errorf("%s: %v", what, err)
				}
			}
		})
	}
}

// TestRecycleResetStorm pins two properties at once on a firmware that
// violates immutability immediately after every boot (the worst-case
// reset storm a CASU-style monitor can face): the retained reason log
// stays bounded at MaxResetReasons while ResetCount keeps the true
// total, and a recycled machine replays the storm byte-identically.
func TestRecycleResetStorm(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #0xBEEF, &0xF000
spin:
    jmp spin
.org 0xFFFE
.word reset
`
	prog, err := p.BuildOriginal("storm.s", src)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 100_000
	m, err := core.NewMachine(core.MachineOptions{Config: p.Config(), ROM: p.ROM(), Defense: core.DefenseEILID})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadFirmware(prog.Image); err != nil {
		t.Fatal(err)
	}
	m.EnablePredecode()
	m.Snapshot()

	storm := func() (core.RunResult, error, int, int) {
		m.Boot()
		res, runErr := m.Run(budget)
		return res, runErr, m.ResetCount, len(m.ResetReasons)
	}
	fRes, fErr, fCount, fKept := storm()
	if !errors.Is(fErr, core.ErrCycleBudget) {
		t.Fatalf("storm ended with %v, want cycle-budget exhaustion", fErr)
	}
	if fCount <= core.MaxResetReasons {
		t.Fatalf("storm only reset %d times; the test is vacuous", fCount)
	}
	if fKept != core.MaxResetReasons {
		t.Fatalf("retained %d reasons, want the MaxResetReasons bound %d", fKept, core.MaxResetReasons)
	}
	if fRes.LastReason == nil || fRes.LastReason.Kind.String() != "pmem-write" {
		t.Fatalf("LastReason = %v, want the live pmem-write violation", fRes.LastReason)
	}
	if err := m.Recycle(); err != nil {
		t.Fatal(err)
	}
	if m.ResetCount != 0 || len(m.ResetReasons) != 0 {
		t.Fatalf("recycle did not clear reset accounting: count=%d kept=%d",
			m.ResetCount, len(m.ResetReasons))
	}
	rRes, rErr, rCount, rKept := storm()
	if !errors.Is(rErr, core.ErrCycleBudget) {
		t.Fatalf("recycled storm ended with %v", rErr)
	}
	if fRes.Cycles != rRes.Cycles || fRes.Insns != rRes.Insns || fCount != rCount || fKept != rKept {
		t.Errorf("recycled storm diverged: %d/%d cycles, %d/%d insns, %d/%d resets, %d/%d kept",
			fRes.Cycles, rRes.Cycles, fRes.Insns, rRes.Insns, fCount, rCount, fKept, rKept)
	}
}

// TestRecycleSelfModifying recycles a self-modifying job back-to-back:
// the firmware patches an instruction it then executes (staling the
// decode cache) AND persists a counter inside program memory, so a
// recycle that failed to restore code bytes or reset staleness would
// change the exit code or the cycle count of the second run.
func TestRecycleSelfModifying(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	patch := isa.MustEncode(isa.Instruction{
		Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(10),
	})
	src := fmt.Sprintf(`
.org 0xE000
reset:
    mov #0x0A00, sp
    mov &slot, r9
    inc r9
    mov r9, &slot
    mov #3, r12
loop:
    inc r8
    mov #0x%04X, &site2
site2:
    inc r11
    dec r12
    jnz loop
    mov r9, &0x00FC
spin:
    jmp spin
slot:
    .word 5
.org 0xFFFE
.word reset
`, patch[0])
	prog, err := p.BuildOriginal("selfmod-recycle.s", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.MachineOptions{Config: p.Config()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadFirmware(prog.Image); err != nil {
		t.Fatal(err)
	}
	m.EnablePredecode()
	m.Snapshot()

	run := func() (core.RunResult, [16]uint16) {
		m.Boot()
		res, err := m.Run(100_000)
		if err != nil {
			t.Fatal(err)
		}
		return res, m.CPU.R
	}
	fRes, fR := run()
	if fRes.ExitCode != 6 {
		t.Fatalf("fresh run exit code = %d, want the slot counter 6", fRes.ExitCode)
	}
	if fR[8] != 3 || fR[10] != 3 || fR[11] != 0 {
		t.Fatalf("patched loop misbehaved: r8=%d r10=%d r11=%d, want 3/3/0", fR[8], fR[10], fR[11])
	}
	for round := 1; round <= 2; round++ {
		if err := m.Recycle(); err != nil {
			t.Fatal(err)
		}
		rRes, rR := run()
		if rRes.ExitCode != 6 {
			t.Errorf("recycle %d: exit code %d — program memory not restored", round, rRes.ExitCode)
		}
		if fRes.Cycles != rRes.Cycles || fRes.Insns != rRes.Insns {
			t.Errorf("recycle %d: %d/%d vs %d/%d cycles/insns", round,
				fRes.Cycles, fRes.Insns, rRes.Cycles, rRes.Insns)
		}
		if fR != rR {
			t.Errorf("recycle %d: register files diverged:\n%v\n%v", round, fR, rR)
		}
	}
}

// TestRecycleRequiresSnapshot pins the guard: a machine that was never
// sealed cannot be recycled.
func TestRecycleRequiresSnapshot(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.MachineOptions{Config: p.Config()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Recycle(); !errors.Is(err, core.ErrNoSnapshot) {
		t.Fatalf("Recycle on an unsealed machine: %v, want ErrNoSnapshot", err)
	}
}
