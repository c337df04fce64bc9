package casu

// Defense is the pluggable hardware-monitor contract every defense
// variant implements. A Defense is constructed per machine, wired to the
// CPU's architectural taps (it satisfies cpu.Watcher structurally), and
// drives the machine's reset-on-violation rule through Violation. The
// CASU/EILID Monitor is the reference implementation; ShadowStack (CFI
// CaRE-style interrupt-aware call/return matching) and CritVar
// (OAT-style critical-variable attestation) are peers, so the fleet can
// run the same attack matrix against any column of defenses.
//
// Contract notes for implementers:
//
//   - All observation methods are called synchronously by the CPU at the
//     event, so a violation raised in any of them is visible to the
//     machine's stop callback cycle-exactly — block execution and
//     per-instruction execution must observe identical violation points.
//   - OnRead, OnWrite and OnInterrupt fire at every data access and
//     interrupt acceptance on every execution path. OnFetch fires once
//     per instruction executed one at a time (cpu.CPU.Step, and every
//     instruction under SetBlockExec(false) or ForceSlowPaths).
//   - A defense that also implements cpu.BlockWatcher's OnBlock declares
//     a block-entry event: the block executor then calls OnBlock once
//     per fused block, with the previous pc, the first and last pc and
//     the final op's stack-op class, instead of OnFetch per op. A block
//     lies in one memory region and its interior ops never call or
//     return, so a defense whose fetch-side checks depend only on the
//     region and on call/return events loses nothing. A defense without
//     OnBlock keeps the per-op OnFetch stream on the guarded block path.
//   - Violation returns the first breach since the last Clear; further
//     breaches only increment the trip counters.
//   - Clear re-arms after a device reset (violation state and any
//     per-boot history are dropped; trip counters survive).
//   - PowerOn models a power cycle (fleet machine recycling): the
//     monitor returns to its freshly constructed state. Implementations
//     must not allocate on this path — it runs per job at ~3 µs.
type Defense interface {
	// OnFetch fires before the instruction at pc executes; prev is the
	// previously executed instruction.
	OnFetch(prev, pc uint16)
	// OnRead fires for each data-bus read issued by the instruction at pc.
	OnRead(pc, addr uint16, byteWide bool)
	// OnWrite fires for each data-bus write issued by the instruction at pc.
	OnWrite(pc, addr uint16, byteWide bool, value uint16)
	// OnInterrupt fires when an interrupt is accepted, before the context
	// push; pc is the interrupted instruction address.
	OnInterrupt(pc uint16, line int)

	// Violation returns the first breach observed since the last Clear,
	// or nil.
	Violation() *Violation
	// Clear re-arms the monitor after a device reset.
	Clear()
	// PowerOn returns the monitor to its freshly constructed state.
	PowerOn()
	// TripCounts exposes the per-kind violation counters since power-on.
	TripCounts() map[ViolationKind]int
}
