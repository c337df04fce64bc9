package core_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"eilid/internal/apps"
	"eilid/internal/attacks"
	"eilid/internal/casu"
	"eilid/internal/core"
	"eilid/internal/scenario"
)

// machineState is everything a run leaves observable on a machine
// whose defense is wired directly (no event recorder in between):
// counters, the register file, a hash of memory, bus errors, every
// recorded reset reason and the monitor's trip counters.
type machineState struct {
	Cycles, Insns uint64
	Regs          [16]uint16
	RAM           [32]byte
	BusErrors     int
	Halted        bool
	ExitCode      uint16
	ResetCount    int
	Reasons       []casu.Violation
	Trips         map[casu.ViolationKind]int
	// ShadowDepth is the shadow stack's depth (-1 for other defenses):
	// a spurious or missing frame changes no trip count until a return
	// meets it.
	ShadowDepth int
	Err         string
}

func stateOf(m *core.Machine, err error) machineState {
	st := machineState{
		Cycles:      m.CPU.Cycles,
		Insns:       m.CPU.Insns,
		Regs:        m.CPU.R,
		RAM:         sha256.Sum256(m.Space.ReadRaw(0, 1<<16)),
		BusErrors:   m.Space.BusErrors,
		Halted:      m.Halted(),
		ExitCode:    m.ExitCode(),
		ResetCount:  m.ResetCount,
		Reasons:     append([]casu.Violation(nil), m.ResetReasons...),
		ShadowDepth: -1,
	}
	if m.Monitor != nil {
		st.Trips = map[casu.ViolationKind]int{}
		for k, n := range m.Monitor.TripCounts() {
			st.Trips[k] = n
		}
	}
	if s, ok := m.Monitor.(*casu.ShadowStack); ok {
		st.ShadowDepth = s.Depth()
	}
	if err != nil {
		st.Err = err.Error()
	}
	return st
}

// runModes runs one workload twice on fresh machines — with every fast
// path on, and under ForceSlowPaths — and requires identical states.
// newM builds a machine with its decode cache installed; run drives it.
func runModes(t *testing.T, what string, newM func() *core.Machine, run func(m *core.Machine) error) machineState {
	t.Helper()
	var states [2]machineState
	for i, slow := range []bool{false, true} {
		m := newM()
		if slow {
			m.ForceSlowPaths()
		}
		states[i] = stateOf(m, run(m))
	}
	if !reflect.DeepEqual(states[0], states[1]) {
		t.Errorf("%s: fast and reference paths diverged:\nfast: %+v\nslow: %+v", what, states[0], states[1])
	}
	return states[0]
}

// targetMachine returns a constructor for machines of the target with
// a decode cache (and its block table) built from the loaded image.
func targetMachine(t *testing.T, tg attacks.Target) func() *core.Machine {
	return func() *core.Machine {
		m, err := tg.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		m.EnablePredecode()
		return m
	}
}

// TestBlockDifferentialMonitored is the block executor's contract on the
// configuration the fleet runs: each defense wired directly, so
// defenses that declare a block-entry event take one OnBlock per block
// and monitored pure blocks take the unguarded path. For every column
// it runs every Table IV app, the six handcrafted attacks and a
// 200-item generated batch with all fast paths on and under
// ForceSlowPaths (per-instruction OnFetch, the reference), and compares
// cycles, instructions, registers, memory, bus errors, reset reasons
// and trip counters.
func TestBlockDifferentialMonitored(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	appBuilds := map[string]*core.BuildResult{}
	for _, app := range apps.All() {
		if appBuilds[app.Name], err = p.Build(app.Name+".s", app.Source); err != nil {
			t.Fatal(err)
		}
	}
	scenarioBuilds := map[string]*core.BuildResult{}
	for _, sc := range attacks.Scenarios() {
		if scenarioBuilds[sc.Name], err = p.Build(sc.Name+".s", sc.Source); err != nil {
			t.Fatal(err)
		}
	}
	gen := scenario.Generate(1, 200)
	genBuilds := map[string]*core.BuildResult{}
	for _, v := range gen.Victims {
		if genBuilds[v.Name], err = p.Build(v.Name+".s", v.Source); err != nil {
			t.Fatal(err)
		}
	}

	for _, spec := range core.Defenses() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			resets := 0
			for _, app := range apps.All() {
				app := app
				tg := attacks.TargetFor(p, appBuilds[app.Name], spec)
				st := runModes(t, "app "+app.Name, targetMachine(t, tg), func(m *core.Machine) error {
					if app.UARTInput != "" {
						m.UART.Feed([]byte(app.UARTInput))
					}
					m.Boot()
					_, err := m.Run(app.MaxCycles)
					return err
				})
				if !st.Halted {
					t.Errorf("app %s did not halt", app.Name)
				}
			}
			for _, sc := range attacks.Scenarios() {
				sc := sc
				tg := attacks.TargetFor(p, scenarioBuilds[sc.Name], spec)
				st := runModes(t, "attack "+sc.Name, targetMachine(t, tg), func(m *core.Machine) error {
					_, err := attacks.ExecuteOn(m, tg, sc)
					return err
				})
				resets += st.ResetCount
			}
			for _, g := range gen.Items {
				g := g
				tg := attacks.TargetFor(p, genBuilds[g.Victim], spec)
				st := runModes(t, "generated "+g.Scenario.Name, targetMachine(t, tg), func(m *core.Machine) error {
					_, err := attacks.ExecuteOn(m, tg, g.Scenario)
					return err
				})
				resets += st.ResetCount
			}
			if spec.New != nil && resets == 0 {
				t.Errorf("defense %s reset on no attack: the violation paths went unexercised", spec.Name)
			}
		})
	}
}

// monitoredKernels are handcrafted programs aimed at the block
// executor's monitored-path hazards. Each is built as original firmware
// and runs on every column through monitor resets until it halts or
// exhausts its budget.
var monitoredKernels = []struct {
	name, src string
	// check returns what is wrong with a column's final state, or "",
	// so a kernel that stops reaching its hazard fails instead of
	// passing vacuously.
	check func(defense string, st machineState) string
}{
	{
		// A straight-line run from PMEM into the secure ROM: fused
		// blocks stop at 0xF800. The fall-through enters at the ROM's
		// entry point, so eilid trips only when the run branches back
		// to PMEM from outside the exit point.
		name: "region-straddle",
		check: func(defense string, st machineState) string {
			if defense == "eilid" {
				return wantReason(st, casu.ViolationSecureExit)
			}
			return wantHalt(st)
		},
		src: `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #0x0300, r6
    br #cross
.org 0xF7F0
cross:
    add #1, r4
    mov r4, 0(r6)
    add r4, r5
    xor r5, r7
    add #1, r4
    add r4, r5
    xor r5, r7
    add #2, r4
    add r4, r5
    xor r5, r7
    add #3, r4
    br #done
.org 0xE100
done:
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xFFFE
.word reset
`,
	},
	{
		// A jump into the middle of a straight-line run inside the
		// secure ROM: the executor enters a suffix block whose first op
		// is not the ROM's entry point.
		name: "secure-mid-block",
		check: func(defense string, st machineState) string {
			if defense == "eilid" {
				return wantReason(st, casu.ViolationSecureEntry)
			}
			return wantHalt(st)
		},
		src: `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #3, r10
again:
    call #0xF806
    dec r10
    jnz again
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xF800
    add #1, r4
    add #1, r5
    add #1, r6
    add #1, r7
    add r7, r8
    xor r8, r9
    ret
.org 0xFFFE
.word reset
`,
	},
	{
		// A pure loop with interrupts enabled under a short timer
		// period: the pure path must leave every interrupt acceptance
		// on the reference cycle.
		name: "gie-pure-loop",
		check: func(defense string, st machineState) string {
			if st.Regs[15] == 0 {
				return "no interrupt was accepted"
			}
			return wantHalt(st)
		},
		src: `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #37, &0x0172
    mov #5, &0x0160
    mov #400, r10
    eint
loop:
    add #1, r4
    add r4, r5
    xor r5, r6
    add #3, r7
    sub r7, r8
    dec r10
    jnz loop
    dint
    mov r15, &0x0300
    mov #0, &0x00FC
spin:
    jmp spin
handler:
    add #1, r15
    reti
.org 0xFFF0
.word handler
.org 0xFFFE
.word reset
`,
	},
	{
		// Stores that turn a CALL (0x12B0) into `mov #leaf, r10`
		// (0x403A): site1 is patched from an earlier block, site2 from
		// inside its own block, where the store stales the block before
		// its final op. No patched site may push a shadow frame; the
		// final ret pops the one genuine frame back to reset.
		name: "call-patched-away",
		check: func(defense string, st machineState) string {
			if defense == "eilid" {
				return wantReason(st, casu.ViolationPMEMWrite)
			}
			if st.Regs[11] != 1 {
				return fmt.Sprintf("leaf ran %d times, want 1", st.Regs[11])
			}
			if st.ShadowDepth > 0 {
				return fmt.Sprintf("shadow depth %d at halt, want 0", st.ShadowDepth)
			}
			return wantHalt(st)
		},
		src: `
.org 0xE000
reset:
    mov #0x0A00, sp
    call #body
    mov #0, &0x00FC
spin:
    jmp spin
body:
    mov #3, r12
loop:
    inc r9
site1:
    call #leaf
    mov #0x403A, &site1
    mov #0x403A, &site2
site2:
    call #leaf
    dec r12
    jnz loop
    ret
leaf:
    add #1, r11
    ret
.org 0xFFFE
.word reset
`,
	},
}

// TestBlockDifferentialMonitoredKernels runs the monitored-path kernels
// on every column, fast against ForceSlowPaths.
func TestBlockDifferentialMonitoredKernels(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range monitoredKernels {
		prog, err := p.BuildOriginal(k.name+".s", k.src)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		for _, spec := range core.Defenses() {
			spec := spec
			newM := func() *core.Machine {
				opts := core.MachineOptions{Config: p.Config(), Defense: spec}
				if spec.Instrumented {
					opts.ROM = p.ROM()
				}
				m, err := core.NewMachine(opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.LoadFirmware(prog.Image); err != nil {
					t.Fatal(err)
				}
				m.EnablePredecode()
				return m
			}
			st := runModes(t, fmt.Sprintf("%s defense=%s", k.name, spec.Name), newM, func(m *core.Machine) error {
				m.Boot()
				_, err := m.Run(200_000)
				return err
			})
			if msg := k.check(spec.Name, st); msg != "" {
				t.Errorf("%s defense=%s: %s", k.name, spec.Name, msg)
			}
		}
	}
}

// wantHalt reports a run that did not halt cleanly.
func wantHalt(st machineState) string {
	trips := 0
	for _, n := range st.Trips {
		trips += n
	}
	if !st.Halted || st.ResetCount != 0 || trips != 0 {
		return fmt.Sprintf("want a clean halt, got halted=%v resets=%d trips=%v", st.Halted, st.ResetCount, st.Trips)
	}
	return ""
}

// wantReason reports a run whose first reset was not for kind.
func wantReason(st machineState, kind casu.ViolationKind) string {
	if len(st.Reasons) == 0 || st.Reasons[0].Kind != kind {
		return fmt.Sprintf("want a %s reset, got %v", kind, st.Reasons)
	}
	return ""
}
