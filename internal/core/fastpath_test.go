package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"eilid/internal/apps"
	"eilid/internal/core"
	"eilid/internal/cpu"
	"eilid/internal/isa"
)

// eventRecorder captures the full architectural signal stream the CASU
// monitor taps, optionally forwarding to an inner watcher (the monitor
// itself on protected machines), plus the absolute cycle of every
// accepted interrupt. The fast paths must reproduce this stream
// bit-identically.
type eventRecorder struct {
	inner  cpu.Watcher
	clock  func() uint64
	events []string
	// IRQCycles is the absolute CPU cycle at each interrupt acceptance.
	irqCycles []uint64
}

func (r *eventRecorder) OnFetch(prev, pc uint16) {
	r.events = append(r.events, fmt.Sprintf("F %04x->%04x", prev, pc))
	if r.inner != nil {
		r.inner.OnFetch(prev, pc)
	}
}

func (r *eventRecorder) OnRead(pc, addr uint16, byteWide bool) {
	r.events = append(r.events, fmt.Sprintf("R %04x %04x %v", pc, addr, byteWide))
	if r.inner != nil {
		r.inner.OnRead(pc, addr, byteWide)
	}
}

func (r *eventRecorder) OnWrite(pc, addr uint16, byteWide bool, value uint16) {
	r.events = append(r.events, fmt.Sprintf("W %04x %04x %v %04x", pc, addr, byteWide, value))
	if r.inner != nil {
		r.inner.OnWrite(pc, addr, byteWide, value)
	}
}

func (r *eventRecorder) OnInterrupt(pc uint16, line int) {
	r.events = append(r.events, fmt.Sprintf("I %04x %d", pc, line))
	r.irqCycles = append(r.irqCycles, r.clock())
	if r.inner != nil {
		r.inner.OnInterrupt(pc, line)
	}
}

// runObserved executes one app build variant with the given machine
// configuration function applied before boot and returns every
// observable: inspection, run result, reset reasons, bus errors, and
// the recorded watcher/interrupt streams.
type observed struct {
	insp      *apps.Inspection
	res       core.RunResult
	err       error
	reasons   []string
	busErrors int
	events    []string
	irqCycles []uint64
}

func runObserved(t *testing.T, p *core.Pipeline, app apps.App, build *core.BuildResult, spec *core.DefenseSpec, configure func(*core.Machine)) observed {
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
	rec := &eventRecorder{inner: m.CPU.Watcher(), clock: func() uint64 { return m.CPU.Cycles }}
	m.CPU.SetWatcher(rec)
	if configure != nil {
		configure(m)
	}
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
	return o
}

// compareObserved asserts two runs are cycle-exactly identical in every
// observable the acceptance criteria name: cycles, instruction counts,
// bus errors, watcher event streams, interrupt arrival cycles, reset
// reasons, and the behavioural inspection.
func compareObserved(t *testing.T, what string, a, b observed) {
	t.Helper()
	if a.res != b.res {
		// RunResult contains a pointer field; compare the flat parts.
		if a.res.Cycles != b.res.Cycles || a.res.Insns != b.res.Insns ||
			a.res.Halted != b.res.Halted || a.res.ExitCode != b.res.ExitCode ||
			a.res.Resets != b.res.Resets {
			t.Errorf("%s: RunResult diverged: %+v vs %+v", what, a.res, b.res)
		}
	}
	if (a.err == nil) != (b.err == nil) || (a.err != nil && a.err.Error() != b.err.Error()) {
		t.Errorf("%s: run errors diverged: %v vs %v", what, a.err, b.err)
	}
	if a.busErrors != b.busErrors {
		t.Errorf("%s: bus errors %d vs %d", what, a.busErrors, b.busErrors)
	}
	if !reflect.DeepEqual(a.reasons, b.reasons) {
		t.Errorf("%s: reset reasons diverged: %v vs %v", what, a.reasons, b.reasons)
	}
	if !reflect.DeepEqual(a.irqCycles, b.irqCycles) {
		t.Errorf("%s: interrupt arrival cycles diverged: %v vs %v", what, a.irqCycles, b.irqCycles)
	}
	if len(a.events) != len(b.events) {
		t.Errorf("%s: watcher stream lengths diverged: %d vs %d", what, len(a.events), len(b.events))
	} else {
		for i := range a.events {
			if a.events[i] != b.events[i] {
				t.Errorf("%s: watcher stream diverged at event %d: %q vs %q", what, i, a.events[i], b.events[i])
				break
			}
		}
	}
	if err := apps.Equivalent(a.insp, b.insp); err != nil {
		t.Errorf("%s: observable behaviour diverged: %v", what, err)
	}
	if a.insp.Cycles != b.insp.Cycles || a.insp.Insns != b.insp.Insns || a.insp.Resets != b.insp.Resets {
		t.Errorf("%s: cycles/insns/resets %d/%d/%d vs %d/%d/%d", what,
			a.insp.Cycles, a.insp.Insns, a.insp.Resets, b.insp.Cycles, b.insp.Insns, b.insp.Resets)
	}
}

// TestFastSlowDifferential runs every Table IV application under every
// registered defense with all fast paths on (page-table bus dispatch,
// threaded-code executors, direct RAM access, deadline-batched
// peripheral ticking) and with every fast path forced to its reference
// implementation, and requires cycle-exact equivalence.
func TestFastSlowDifferential(t *testing.T) {
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
				fast := runObserved(t, p, app, build, spec, nil)
				slow := runObserved(t, p, app, build, spec, func(m *core.Machine) { m.ForceSlowPaths() })
				compareObserved(t, fmt.Sprintf("%s defense=%s", app.Name, spec.Name), fast, slow)
			}
		})
	}
}

// TestTickEquivalence isolates the event-driven peripheral layer: only
// the ticking strategy differs (deadline-batched vs per-instruction),
// everything else stays on the fast path. Interrupt arrival cycles,
// RunResult and reset reasons must be byte-identical for every app ×
// defense.
func TestTickEquivalence(t *testing.T) {
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
				batched := runObserved(t, p, app, build, spec, nil)
				eager := runObserved(t, p, app, build, spec, func(m *core.Machine) { m.EagerTicks = true })
				compareObserved(t, fmt.Sprintf("%s defense=%s", app.Name, spec.Name), batched, eager)
			}
		})
	}
}

// TestFastSlowSelfModifying extends the differential to self-modifying
// code, where the threaded-code cache must fall back to live decode
// after the write invalidates its entry.
func TestFastSlowSelfModifying(t *testing.T) {
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
main:
    mov #2, r12
loop:
site:
    inc r9
    mov #0x%04X, &site
    dec r12
    jnz loop
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xFFFE
.word reset
`, patch[0])
	prog, err := p.BuildOriginal("selfmod-fast.s", src)
	if err != nil {
		t.Fatal(err)
	}

	run := func(slow bool) (core.RunResult, [16]uint16, int) {
		m, err := core.NewMachine(core.MachineOptions{Config: p.Config()})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadFirmware(prog.Image); err != nil {
			t.Fatal(err)
		}
		m.EnablePredecode()
		if slow {
			m.ForceSlowPaths()
		}
		m.Boot()
		res, err := m.Run(100_000)
		if err != nil {
			t.Fatalf("slow=%v: %v", slow, err)
		}
		return res, m.CPU.R, m.Space.BusErrors
	}

	fastRes, fastR, fastBE := run(false)
	slowRes, slowR, slowBE := run(true)
	if fastRes.Cycles != slowRes.Cycles || fastRes.Insns != slowRes.Insns {
		t.Errorf("self-modifying run diverged: %d/%d vs %d/%d cycles/insns",
			fastRes.Cycles, fastRes.Insns, slowRes.Cycles, slowRes.Insns)
	}
	if fastR != slowR {
		t.Errorf("register files diverged: %v vs %v", fastR, slowR)
	}
	if fastBE != slowBE {
		t.Errorf("bus errors diverged: %d vs %d", fastBE, slowBE)
	}
	if fastR[9] != 1 || fastR[10] != 1 {
		t.Errorf("patched loop executed wrong: r9=%d r10=%d, want 1/1", fastR[9], fastR[10])
	}
}

// TestTickEquivalenceAcrossMonitorReset pins the case the app matrix
// misses: a peripheral (TimerA) is mid-batch when the CASU monitor
// resets the device. Batched ticking must deliver every completed
// instruction's cycles before the reset re-anchors, so post-reset timer
// state matches per-instruction ticking exactly.
func TestTickEquivalenceAcrossMonitorReset(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Start the timer, spin long enough to leave it mid-period, then
	// trip the immutability monitor with a PMEM write.
	src := `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #1000, &0x0172
    mov #1, &0x0160
    mov #60, r10
busy:
    dec r10
    jnz busy
    mov #1, &0xE000
spin:
    jmp spin
.org 0xFFFE
.word reset
`
	prog, err := p.BuildOriginal("timer-reset.s", src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(eager bool) (uint16, uint64, core.RunResult, int) {
		m, err := core.NewMachine(core.MachineOptions{Config: p.Config(), ROM: p.ROM(), Defense: core.DefenseEILID})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadFirmware(prog.Image); err != nil {
			t.Fatal(err)
		}
		m.EnablePredecode()
		m.EagerTicks = eager
		m.Boot()
		res, err := m.RunUntilReset(1_000_000)
		if err != nil {
			t.Fatalf("eager=%v: %v", eager, err)
		}
		return m.TimerA.TAR, m.TimerA.Wraps, res, m.ResetCount
	}
	bTAR, bWraps, bRes, bResets := run(false)
	eTAR, eWraps, eRes, eResets := run(true)
	if bResets != 1 || eResets != 1 {
		t.Fatalf("expected exactly one monitor reset, got %d (batched) / %d (eager)", bResets, eResets)
	}
	if bTAR != eTAR || bWraps != eWraps {
		t.Errorf("timer state diverged across reset: TAR/Wraps %d/%d (batched) vs %d/%d (eager)",
			bTAR, bWraps, eTAR, eWraps)
	}
	if bRes.Cycles != eRes.Cycles || bRes.Insns != eRes.Insns {
		t.Errorf("RunResult diverged: %d/%d vs %d/%d cycles/insns", bRes.Cycles, bRes.Insns, eRes.Cycles, eRes.Insns)
	}
}
