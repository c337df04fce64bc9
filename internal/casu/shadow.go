package casu

import "eilid/internal/isa"

// ShadowStack is a CFI CaRE-style hardware shadow stack (Nyman et al.,
// arXiv:1706.05715): dedicated hardware snoops the fetch stream,
// mirrors every call and interrupt entry onto a protected internal
// stack, and resets the device when a return (or return-from-interrupt)
// transfers control anywhere but a genuinely recorded return site. It
// needs no firmware instrumentation and no secure ROM — it runs the
// original build — so it is the natural comparative baseline for
// EILID's backward-edge properties (P1/P2). It deliberately does not
// watch forward edges (indirect calls and jumps land wherever they
// point) or data: those are exactly the gaps the defense × attack
// matrix is meant to expose.
//
// Mechanics: the monitor classifies each fetched instruction (call,
// ret — the MSP430 `mov @sp+, pc` idiom — or reti, see
// isa.ClassifyStack), then resolves the classification at the *next*
// control event, when the instruction has architecturally completed: a
// call pushes its return address, a return is checked against the
// recorded frames, an accepted interrupt pushes the interrupted pc.
// Returns match by popping to the nearest agreeing call frame (never
// across an interrupt frame), which tolerates benign tail-call idioms
// while still catching every corrupted return: a forged address equals
// no live frame.
//
// Classification has one source of truth, the CPU's view of the code.
// A fused block arrives as one OnBlock event carrying its final op's
// class from the shared block table (interior ops never call or
// return), which the CPU enters only while no write has touched the
// block's fetch window. A per-instruction fetch is classified by
// decoding the live memory through the side-effect-free tap. There is
// no private decode cache to fall out of step with memory.
type ShadowStack struct {
	cfg ShadowConfig

	violation *Violation

	stack []frame
	// pending is the classification of the most recently fetched (now
	// executing) instruction, resolved at the next fetch, block entry or
	// interrupt.
	pending stackOp

	// Trips counts violations since power-on.
	Trips map[ViolationKind]int
}

// ShadowConfig parameterizes the shadow-stack monitor.
type ShadowConfig struct {
	// Peek reads a word of memory without bus side effects (the
	// hardware's private fetch-stream tap).
	Peek func(addr uint16) uint16
	// MaxDepth bounds the hardware stack (default 256 frames). On
	// overflow the oldest frame is discarded: the monitor degrades to
	// not vouching for the eldest callers rather than false-positives
	// on deep recursion.
	MaxDepth int
}

// stackOp is a classified instruction and its fetch address.
type stackOp struct {
	isa.StackOp
	pc uint16
}

type frameClass uint8

const (
	frameCall frameClass = iota
	frameIRQ
)

// frame is one shadow-stack entry.
type frame struct {
	class frameClass
	ra    uint16
}

// NewShadowStack creates an armed shadow-stack monitor.
func NewShadowStack(cfg ShadowConfig) *ShadowStack {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 256
	}
	return &ShadowStack{
		cfg:   cfg,
		stack: make([]frame, 0, cfg.MaxDepth),
		Trips: map[ViolationKind]int{},
	}
}

// Violation implements Defense.
func (s *ShadowStack) Violation() *Violation { return s.violation }

// Clear implements Defense: re-arm after a device reset; the call
// history does not survive it.
func (s *ShadowStack) Clear() {
	s.violation = nil
	s.stack = s.stack[:0]
	s.pending = stackOp{}
}

// PowerOn implements Defense (allocation-free: the recycle path runs
// per job).
func (s *ShadowStack) PowerOn() {
	s.Clear()
	clear(s.Trips)
}

// TripCounts implements Defense.
func (s *ShadowStack) TripCounts() map[ViolationKind]int { return s.Trips }

// Depth returns the current shadow-stack depth (tests/debugging).
func (s *ShadowStack) Depth() int { return len(s.stack) }

func (s *ShadowStack) trip(kind ViolationKind, pc, addr uint16) {
	s.Trips[kind]++
	if s.violation == nil {
		s.violation = &Violation{Kind: kind, PC: pc, Addr: addr}
	}
}

// classify decodes the instruction at pc from live memory.
func (s *ShadowStack) classify(pc uint16) stackOp {
	words := [3]uint16{s.cfg.Peek(pc), s.cfg.Peek(pc + 2), s.cfg.Peek(pc + 4)}
	op := stackOp{pc: pc}
	if in, _, err := isa.Decode(words[:]); err == nil {
		op.StackOp = isa.ClassifyStack(pc, in)
	}
	return op
}

// push records a frame, discarding the eldest on overflow.
func (s *ShadowStack) push(f frame) {
	if len(s.stack) == cap(s.stack) {
		copy(s.stack, s.stack[1:])
		s.stack = s.stack[:len(s.stack)-1]
	}
	s.stack = append(s.stack, f)
}

// resolvePending applies the architectural effect of the instruction
// classified at the previous fetch, now that it has completed and
// control has arrived at target.
func (s *ShadowStack) resolvePending(target uint16) {
	p := s.pending
	s.pending = stackOp{}
	switch p.Class {
	case isa.StackCall:
		s.push(frame{class: frameCall, ra: p.RA})
	case isa.StackRet:
		// Pop to the nearest matching call frame; an interrupt frame is
		// a hard floor (a plain ret must never unwind an interrupt).
		for i := len(s.stack) - 1; i >= 0; i-- {
			f := s.stack[i]
			if f.class != frameCall {
				break
			}
			if f.ra == target {
				s.stack = s.stack[:i]
				return
			}
		}
		s.trip(ViolationShadowRA, p.pc, target)
	case isa.StackReti:
		// A return-from-interrupt must match the top frame exactly: the
		// hardware pushed it last.
		if n := len(s.stack); n > 0 && s.stack[n-1].class == frameIRQ && s.stack[n-1].ra == target {
			s.stack = s.stack[:n-1]
			return
		}
		s.trip(ViolationShadowRFI, p.pc, target)
	}
}

// OnFetch implements Defense: resolve the previously fetched
// instruction against the arrival at pc, then classify the new one.
func (s *ShadowStack) OnFetch(prev, pc uint16) {
	s.resolvePending(pc)
	s.pending = s.classify(pc)
}

// OnBlock implements cpu.BlockWatcher: resolve the previous
// instruction against the block's entry, then take the block's final op
// as the pending one.
func (s *ShadowStack) OnBlock(prev, first, last uint16, ender isa.StackOp) {
	s.resolvePending(first)
	s.pending = stackOp{StackOp: ender, pc: last}
}

// OnRead implements Defense (the shadow stack does not watch reads).
func (s *ShadowStack) OnRead(pc, addr uint16, byteWide bool) {}

// OnWrite implements Defense (the shadow stack does not watch writes).
func (s *ShadowStack) OnWrite(pc, addr uint16, byteWide bool, value uint16) {}

// OnInterrupt implements Defense: the instruction before the interrupt
// completed with control headed to pc; record the interrupted context.
func (s *ShadowStack) OnInterrupt(pc uint16, line int) {
	s.resolvePending(pc)
	s.push(frame{class: frameIRQ, ra: pc})
}
