// Package casu models the CASU active Root-of-Trust hardware that EILID
// builds on (De Oliveira Nunes et al., ICCAD 2022) plus the EILID
// extensions. CASU is a set of small hardware monitors wired to the CPU's
// program counter and data buses; whenever a monitored invariant is
// violated the hardware resets the device. The invariants:
//
//	(1) Software immutability: program memory, the secure ROM and the
//	    interrupt vector table are never written at run time; the only
//	    way to change PMEM is an authenticated secure update.
//	(2) W⊕X: instructions are fetched only from executable regions
//	    (PMEM + secure ROM); data memory never executes.
//	(3) Secure-region atomicity: the EILIDsw ROM is entered only at its
//	    architectural entry point and left only from its exit point, and
//	    interrupts never fire while it runs.
//	(4) Secure-data exclusivity (EILID extension): the shadow-stack
//	    region of DMEM is readable/writable only while the PC is inside
//	    the secure ROM.
//	(5) Violation signalling (EILID extension): a write to the violation
//	    latch from inside EILIDsw means a CFI check failed and triggers
//	    the reset; a write from anywhere else is itself a violation.
//
// The Monitor implements cpu.Watcher, observing exactly the architectural
// signals (fetch address, data address/value, interrupt acceptance) that
// the paper's Verilog taps on the openMSP430 buses.
package casu

import (
	"fmt"

	"eilid/internal/isa"
	"eilid/internal/mem"
)

// ViolationKind classifies a detected violation.
type ViolationKind uint8

const (
	// ViolationNone is the zero value (no violation).
	ViolationNone ViolationKind = iota
	// ViolationPMEMWrite is a runtime write to program memory.
	ViolationPMEMWrite
	// ViolationSecureROMWrite is a write to the EILIDsw ROM.
	ViolationSecureROMWrite
	// ViolationIVTWrite is a write to the interrupt vector table.
	ViolationIVTWrite
	// ViolationExecNonExec is an instruction fetch from a non-executable
	// region (W⊕X: DMEM/peripheral/unmapped execution).
	ViolationExecNonExec
	// ViolationSecureEntry is a jump into the secure ROM that bypasses
	// the entry point.
	ViolationSecureEntry
	// ViolationSecureExit is a control transfer out of the secure ROM
	// from anywhere but the exit point.
	ViolationSecureExit
	// ViolationSecureData is an access to the shadow-stack region while
	// the PC is outside the secure ROM.
	ViolationSecureData
	// ViolationLatchWrite is a write to the violation latch from
	// non-secure code.
	ViolationLatchWrite
	// ViolationCFIFail is EILIDsw signalling a failed CFI check (the
	// "legitimate" reset cause: an attack was stopped).
	ViolationCFIFail
	// ViolationIRQInSecure is an interrupt accepted while executing
	// inside the secure ROM (atomicity breach; normally prevented by the
	// hardware IRQ gate, kept as defence in depth).
	ViolationIRQInSecure
	// ViolationShadowRA is a return whose target does not match any
	// genuine frame on the hardware shadow stack (ShadowStack defense).
	ViolationShadowRA
	// ViolationShadowRFI is a return-from-interrupt whose target does
	// not match the interrupted context the hardware recorded
	// (ShadowStack defense).
	ViolationShadowRFI
	// ViolationCritVar is a watched decision variable whose value
	// diverged from the last attested write (CritVar defense).
	ViolationCritVar

	// violationKindEnd is one past the last kind; keep it last.
	violationKindEnd
)

// ViolationKinds returns every reportable kind (excluding
// ViolationNone) in numeric order.
func ViolationKinds() []ViolationKind {
	out := make([]ViolationKind, 0, int(violationKindEnd)-1)
	for k := ViolationPMEMWrite; k < violationKindEnd; k++ {
		out = append(out, k)
	}
	return out
}

func (k ViolationKind) String() string {
	switch k {
	case ViolationNone:
		return "none"
	case ViolationPMEMWrite:
		return "pmem-write"
	case ViolationSecureROMWrite:
		return "secure-rom-write"
	case ViolationIVTWrite:
		return "ivt-write"
	case ViolationExecNonExec:
		return "exec-from-nonexec"
	case ViolationSecureEntry:
		return "secure-entry-bypass"
	case ViolationSecureExit:
		return "secure-exit-bypass"
	case ViolationSecureData:
		return "secure-data-access"
	case ViolationLatchWrite:
		return "violation-latch-write"
	case ViolationCFIFail:
		return "cfi-check-failed"
	case ViolationIRQInSecure:
		return "irq-in-secure"
	case ViolationShadowRA:
		return "shadow-ra-mismatch"
	case ViolationShadowRFI:
		return "shadow-rfi-mismatch"
	case ViolationCritVar:
		return "critical-variable-tamper"
	}
	return fmt.Sprintf("violation(%d)", uint8(k))
}

// Violation describes the first invariant breach observed since arming.
type Violation struct {
	Kind ViolationKind
	PC   uint16 // instruction that caused it
	Addr uint16 // offending data address (when applicable)
}

func (v Violation) Error() string {
	return fmt.Sprintf("casu: %s at pc=0x%04x addr=0x%04x", v.Kind, v.PC, v.Addr)
}

// Config parameterizes the monitor.
type Config struct {
	Layout mem.Layout
	// EntryPoint is the only address at which the secure ROM may be
	// entered (S_EILID entry section).
	EntryPoint uint16
	// ExitPoint is the only address from which control may leave the
	// secure ROM (the ret in the leave section).
	ExitPoint uint16
	// ViolationAddr is the secure MMIO latch EILIDsw writes on CFI
	// failure.
	ViolationAddr uint16
	// EnforceSecureRegion enables rules (3)-(5); CASU without the EILID
	// extension (plain immutability + W⊕X) runs with it false.
	EnforceSecureRegion bool
}

// Monitor is the hardware monitor. It implements cpu.Watcher.
type Monitor struct {
	cfg Config

	curPC     uint16
	violation *Violation

	// Trips counts violations since construction (across resets).
	Trips map[ViolationKind]int
}

// NewMonitor creates an armed monitor.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{cfg: cfg, Trips: map[ViolationKind]int{}}
}

// Config returns the monitor configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Violation returns the first violation observed since the last Clear,
// or nil.
func (m *Monitor) Violation() *Violation { return m.violation }

// Clear re-arms the monitor after a device reset.
func (m *Monitor) Clear() { m.violation = nil; m.curPC = 0 }

// PowerOn returns the monitor to its freshly constructed state: armed,
// no secure-state history, trip counters zeroed. Clear survives device
// resets (Trips is "since construction"); PowerOn models the machine
// being power-cycled, which is what fleet recycling simulates. The map
// is cleared in place: the recycle path runs per job at ~3 µs and must
// not allocate.
func (m *Monitor) PowerOn() {
	m.Clear()
	clear(m.Trips)
}

// TripCounts implements Defense.
func (m *Monitor) TripCounts() map[ViolationKind]int { return m.Trips }

// InSecure reports whether the monitor last saw the PC inside the secure
// ROM (the hardware "secure state" flag).
func (m *Monitor) InSecure() bool { return m.cfg.Layout.InSecureROM(m.curPC) }

func (m *Monitor) trip(kind ViolationKind, pc, addr uint16) {
	m.Trips[kind]++
	if m.violation == nil {
		m.violation = &Violation{Kind: kind, PC: pc, Addr: addr}
	}
}

// OnFetch implements cpu.Watcher: W⊕X on the fetch side plus secure-region
// entry/exit discipline.
func (m *Monitor) OnFetch(prev, pc uint16) {
	m.curPC = pc
	l := &m.cfg.Layout
	if !l.Executable(pc) {
		m.trip(ViolationExecNonExec, prev, pc)
		return
	}
	if !m.cfg.EnforceSecureRegion {
		return
	}
	fromSec, toSec := l.InSecureROM(prev), l.InSecureROM(pc)
	switch {
	case toSec && !fromSec && pc != m.cfg.EntryPoint:
		m.trip(ViolationSecureEntry, prev, pc)
	case fromSec && !toSec && prev != m.cfg.ExitPoint:
		m.trip(ViolationSecureExit, prev, pc)
	}
}

// OnBlock implements cpu.BlockWatcher: a fused block lies in one
// region, so the fetch-side checks of its first op cover every op.
func (m *Monitor) OnBlock(prev, first, last uint16, _ isa.StackOp) {
	m.OnFetch(prev, first)
	m.curPC = last
}

// OnRead implements cpu.Watcher: shadow-stack exclusivity on the read side.
func (m *Monitor) OnRead(pc, addr uint16, byteWide bool) {
	if !m.cfg.EnforceSecureRegion {
		return
	}
	l := m.cfg.Layout
	if l.RegionOf(addr) == mem.RegionSecureData && !l.InSecureROM(pc) {
		m.trip(ViolationSecureData, pc, addr)
	}
}

// OnWrite implements cpu.Watcher: immutability, shadow-stack exclusivity
// and violation-latch semantics.
func (m *Monitor) OnWrite(pc, addr uint16, byteWide bool, value uint16) {
	l := m.cfg.Layout
	switch l.RegionOf(addr) {
	case mem.RegionPMEM:
		m.trip(ViolationPMEMWrite, pc, addr)
		return
	case mem.RegionSecureROM:
		m.trip(ViolationSecureROMWrite, pc, addr)
		return
	case mem.RegionIVT:
		m.trip(ViolationIVTWrite, pc, addr)
		return
	}
	if !m.cfg.EnforceSecureRegion {
		return
	}
	if l.RegionOf(addr) == mem.RegionSecureData && !l.InSecureROM(pc) {
		m.trip(ViolationSecureData, pc, addr)
		return
	}
	if addr == m.cfg.ViolationAddr {
		if l.InSecureROM(pc) {
			m.trip(ViolationCFIFail, pc, addr)
		} else {
			m.trip(ViolationLatchWrite, pc, addr)
		}
	}
}

// OnInterrupt implements cpu.Watcher: no interrupts inside EILIDsw.
func (m *Monitor) OnInterrupt(pc uint16, line int) {
	if m.cfg.EnforceSecureRegion && m.cfg.Layout.InSecureROM(pc) {
		m.trip(ViolationIRQInSecure, pc, 0)
	}
}

// GateIRQ wraps an interrupt source so that requests are invisible while
// the CPU executes inside the secure ROM — the hardware interrupt gate
// that gives EILIDsw its atomicity. pcNow reads the live PC.
type GateIRQ struct {
	Inner interface {
		HighestPending() int
		Acknowledge(line int)
	}
	Layout mem.Layout
	PCNow  func() uint16
}

// HighestPending implements cpu.IRQSource.
func (g *GateIRQ) HighestPending() int {
	if g.Layout.InSecureROM(g.PCNow()) {
		return -1
	}
	return g.Inner.HighestPending()
}

// Acknowledge implements cpu.IRQSource.
func (g *GateIRQ) Acknowledge(line int) { g.Inner.Acknowledge(line) }
