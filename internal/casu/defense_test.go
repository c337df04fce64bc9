package casu

import (
	"testing"

	"eilid/internal/isa"
)

// wordMem is a tiny word-addressed memory for driving the monitors'
// Peek taps without a full machine.
type wordMem map[uint16]uint16

func (m wordMem) peek(addr uint16) uint16 { return m[addr&^1] }

// plant encodes in at addr and returns the address just past it.
func (m wordMem) plant(t *testing.T, addr uint16, in isa.Instruction) uint16 {
	t.Helper()
	words, err := isa.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		m[addr+uint16(2*i)] = w
	}
	return addr + uint16(2*len(words))
}

func call(target uint16) isa.Instruction {
	return isa.Instruction{Op: isa.CALL, Src: isa.ImmExt(target)}
}

// ret is the MSP430 emulated return, mov @sp+, pc.
func ret() isa.Instruction {
	return isa.Instruction{Op: isa.MOV, Src: isa.IndirectInc(isa.SP), Dst: isa.RegOp(isa.PC)}
}

func newShadow(m wordMem) *ShadowStack {
	return NewShadowStack(ShadowConfig{Peek: m.peek})
}

// TestShadowCallRetMatch: a call followed by a return to the recorded
// address pops cleanly; a return anywhere else trips ShadowRA.
func TestShadowCallRetMatch(t *testing.T) {
	m := wordMem{}
	ra := m.plant(t, 0xE000, call(0xE100)) // ra = 0xE004
	m.plant(t, 0xE100, ret())

	s := newShadow(m)
	s.OnFetch(0, 0xE000)      // fetch the call
	s.OnFetch(0xE000, 0xE100) // call completed: frame pushed; fetch the ret
	if s.Depth() != 1 {
		t.Fatalf("depth after call = %d, want 1", s.Depth())
	}
	s.OnFetch(0xE100, ra) // ret completed, target matches
	if v := s.Violation(); v != nil {
		t.Fatalf("matched return flagged: %+v", v)
	}
	if s.Depth() != 0 {
		t.Fatalf("depth after matched ret = %d, want 0", s.Depth())
	}

	// Same shape, corrupted return target.
	s = newShadow(m)
	s.OnFetch(0, 0xE000)
	s.OnFetch(0xE000, 0xE100)
	s.OnFetch(0xE100, 0xD000) // smashed RA
	v := s.Violation()
	if v == nil || v.Kind != ViolationShadowRA {
		t.Fatalf("violation = %+v, want shadow-ra-mismatch", v)
	}
	if v.PC != 0xE100 || v.Addr != 0xD000 {
		t.Errorf("violation context %+v", v)
	}
}

// TestShadowTailCall: a return may pop through nested call frames to
// the nearest matching one (benign tail-call idiom), but never across
// an interrupt frame.
func TestShadowTailCall(t *testing.T) {
	m := wordMem{}
	ra1 := m.plant(t, 0xE000, call(0xE100)) // outer call
	m.plant(t, 0xE100, call(0xE200))        // inner call
	m.plant(t, 0xE200, ret())

	s := newShadow(m)
	s.OnFetch(0, 0xE000)
	s.OnFetch(0xE000, 0xE100)
	s.OnFetch(0xE100, 0xE200)
	if s.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", s.Depth())
	}
	s.OnFetch(0xE200, ra1) // returns straight to the outer caller
	if v := s.Violation(); v != nil {
		t.Fatalf("tail-call return flagged: %+v", v)
	}
	if s.Depth() != 0 {
		t.Fatalf("depth = %d, want 0", s.Depth())
	}

	// An interrupt frame between the ret and the matching call frame is
	// a hard floor: popping across it must trip.
	s = newShadow(m)
	s.OnFetch(0, 0xE000)     // fetch the outer call
	s.OnInterrupt(0xE100, 3) // IRQ accepted as it completes: call frame, then IRQ frame
	if s.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", s.Depth())
	}
	s.OnFetch(0, 0xE200)   // handler body reaches a plain ret
	s.OnFetch(0xE200, ra1) // tries to unwind across the IRQ frame
	if v := s.Violation(); v == nil || v.Kind != ViolationShadowRA {
		t.Fatalf("violation = %+v, want shadow-ra-mismatch", v)
	}
}

// TestShadowInterruptRoundTrip: an accepted interrupt records the
// interrupted pc; RETI must return exactly there, and the push must
// happen even when the interrupt lands right after a call (pending-op
// ordering).
func TestShadowInterruptRoundTrip(t *testing.T) {
	m := wordMem{}
	m.plant(t, 0xE000, call(0xE100))
	m.plant(t, 0xF000, isa.Instruction{Op: isa.RETI})

	s := newShadow(m)
	s.OnFetch(0, 0xE000)     // fetch the call
	s.OnInterrupt(0xE100, 2) // IRQ fires as the call completes
	if s.Depth() != 2 {
		t.Fatalf("depth = %d, want 2 (call frame + IRQ frame)", s.Depth())
	}
	s.OnFetch(0, 0xF000)      // handler fetches the reti
	s.OnFetch(0xF000, 0xE100) // reti completes back to the interrupted pc
	if v := s.Violation(); v != nil {
		t.Fatalf("legal reti flagged: %+v", v)
	}
	if s.Depth() != 1 {
		t.Fatalf("depth = %d, want 1 (call frame survives)", s.Depth())
	}

	// A reti whose target does not match the recorded context trips RFI.
	s = newShadow(m)
	s.OnInterrupt(0xE100, 2)
	s.OnFetch(0, 0xF000)
	s.OnFetch(0xF000, 0xD000) // tampered saved context
	if v := s.Violation(); v == nil || v.Kind != ViolationShadowRFI {
		t.Fatalf("violation = %+v, want shadow-rfi-mismatch", v)
	}

	// A reti with no interrupt frame at all trips too.
	s = newShadow(m)
	s.OnFetch(0, 0xF000)
	s.OnFetch(0xF000, 0xE000)
	if v := s.Violation(); v == nil || v.Kind != ViolationShadowRFI {
		t.Fatalf("violation = %+v, want shadow-rfi-mismatch", v)
	}
}

// TestShadowOverflowDiscardsOldest: the bounded hardware stack drops
// the eldest frame on overflow instead of tripping on deep recursion.
func TestShadowOverflowDiscardsOldest(t *testing.T) {
	m := wordMem{}
	m.plant(t, 0xE000, call(0xE000)) // self-call, ra = 0xE004

	s := NewShadowStack(ShadowConfig{Peek: m.peek, MaxDepth: 2})
	for i := 0; i < 5; i++ {
		s.OnFetch(0, 0xE000)
	}
	if s.Depth() != 2 {
		t.Fatalf("depth = %d, want MaxDepth 2", s.Depth())
	}
	if v := s.Violation(); v != nil {
		t.Fatalf("overflow flagged: %+v", v)
	}
}

// TestShadowInvalidation: the per-instruction path classifies the live
// memory at every fetch, so a store that turns a CALL into a non-call
// pushes no frame, and restoring the CALL (off-bus, as a recycle does)
// pushes one again. The block path's counterpart is the
// call-patched-away kernel in internal/core's monitored differential.
func TestShadowInvalidation(t *testing.T) {
	m := wordMem{}
	ra := m.plant(t, 0xE000, call(0xE100))
	m.plant(t, 0xE100, ret())

	s := newShadow(m)
	s.OnFetch(0, 0xE000)
	s.OnFetch(0xE000, 0xE100) // call resolved: frame pushed
	s.OnFetch(0xE100, ra)
	if s.Violation() != nil || s.Depth() != 0 {
		t.Fatal("warm-up round trip failed")
	}

	// Overwrite the call site with something else.
	m[0xE000] = 0
	m[0xE002] = 0
	s.OnFetch(0, 0xE000)
	s.OnFetch(0xE000, 0xE100)
	if s.Depth() != 0 {
		t.Fatalf("overwritten call pushed a frame: depth = %d", s.Depth())
	}

	words := isa.MustEncode(call(0xE100))
	m[0xE000], m[0xE002] = words[0], words[1]
	s.PowerOn()
	s.OnFetch(0, 0xE000)
	s.OnFetch(0xE000, 0xE100)
	if s.Depth() != 1 {
		t.Fatalf("restored call pushed no frame: depth = %d", s.Depth())
	}
}

// TestShadowOnBlock: a block-entry event resolves the previous
// instruction and takes the block's final op from the event, so the
// same call/return sequence as TestShadowCallRetMatch needs no decode.
func TestShadowOnBlock(t *testing.T) {
	s := NewShadowStack(ShadowConfig{Peek: func(uint16) uint16 { return 0xFFFF }})
	s.OnBlock(0, 0xE000, 0xE008, isa.StackOp{Class: isa.StackCall, RA: 0xE00C})
	s.OnBlock(0xE008, 0xE100, 0xE104, isa.StackOp{Class: isa.StackRet})
	if s.Depth() != 1 {
		t.Fatalf("depth after call block = %d, want 1", s.Depth())
	}
	s.OnBlock(0xE104, 0xE00C, 0xE010, isa.StackOp{})
	if v := s.Violation(); v != nil || s.Depth() != 0 {
		t.Fatalf("matched return: violation %+v, depth %d", v, s.Depth())
	}
	s.OnBlock(0xE010, 0xE100, 0xE104, isa.StackOp{Class: isa.StackRet})
	s.OnBlock(0xE104, 0xD000, 0xD000, isa.StackOp{})
	if v := s.Violation(); v == nil || v.Kind != ViolationShadowRA || v.PC != 0xE104 || v.Addr != 0xD000 {
		t.Fatalf("violation = %+v, want shadow-ra-mismatch at 0xe104 -> 0xd000", v)
	}
}

// TestCritVarTamperAndTrack: off-bus divergence trips once per tamper;
// on-bus stores (word and both byte halves) track without tripping.
func TestCritVarTamperAndTrack(t *testing.T) {
	m := wordMem{0x0400: 0x1234, 0x0402: 0xAAAA}
	c := NewCritVar(CritVarConfig{Watch: []uint16{0x0400, 0x0402}, Peek: m.peek})

	c.OnFetch(0, 0xE000) // first boundary: snapshot
	c.OnFetch(0xE000, 0xE002)
	if c.Violation() != nil {
		t.Fatal("quiescent variable flagged")
	}

	// On-bus updates are attested.
	m[0x0400] = 0x5678
	c.OnWrite(0xE002, 0x0400, false, 0x5678)
	c.OnFetch(0xE002, 0xE004)
	if c.Violation() != nil {
		t.Fatal("on-bus word store flagged")
	}
	m[0x0402] = 0xAA55
	c.OnWrite(0xE004, 0x0402, true, 0x55) // low byte
	m[0x0402] = 0xBB55
	c.OnWrite(0xE006, 0x0403, true, 0xBB) // high byte
	c.OnFetch(0xE006, 0xE008)
	if v := c.Violation(); v != nil {
		t.Fatalf("on-bus byte stores flagged: %+v", v)
	}

	// Off-bus tamper: the comparator sweep catches it at the next
	// boundary, attributes the watched address, and reports once.
	m[0x0400] = 0xDEAD
	c.OnFetch(0xE008, 0xE00A)
	v := c.Violation()
	if v == nil || v.Kind != ViolationCritVar {
		t.Fatalf("violation = %+v, want critical-variable-tamper", v)
	}
	if v.PC != 0xE00A || v.Addr != 0x0400 {
		t.Errorf("violation context %+v", v)
	}
	c.OnFetch(0xE00A, 0xE00C)
	c.OnFetch(0xE00C, 0xE00E)
	if got := c.Trips[ViolationCritVar]; got != 1 {
		t.Fatalf("tamper reported %d times, want once (re-attested)", got)
	}

	// Clear re-arms and resnapshots: the tampered value is the new
	// baseline, not a fresh violation.
	c.Clear()
	if c.Violation() != nil {
		t.Fatal("Clear left the violation latched")
	}
	c.OnFetch(0, 0xE000)
	c.OnFetch(0xE000, 0xE002)
	if c.Violation() != nil {
		t.Fatal("post-reset snapshot flagged the old tamper")
	}
	if c.Trips[ViolationCritVar] != 1 {
		t.Fatal("Clear erased the trip history")
	}
}

// TestDefensePowerOnAllocFree: PowerOn runs on the machine-recycle hot
// path (~µs budget per job) for every monitor, so none of them may
// allocate.
func TestDefensePowerOnAllocFree(t *testing.T) {
	m := wordMem{0x0400: 1}
	defenses := map[string]Defense{
		"monitor": NewMonitor(testConfig()),
		"shadow":  newShadow(m),
		"critvar": NewCritVar(CritVarConfig{Watch: []uint16{0x0400}, Peek: m.peek}),
	}
	for name, d := range defenses {
		// Dirty some state first so the clears do real work.
		d.OnFetch(0, 0x0300)
		d.OnWrite(0xE000, 0xE100, false, 1)
		if allocs := testing.AllocsPerRun(100, d.PowerOn); allocs != 0 {
			t.Errorf("%s: PowerOn allocates %.1f objects/run", name, allocs)
		}
		if d.Violation() != nil {
			t.Errorf("%s: PowerOn left a violation latched", name)
		}
		if len(d.TripCounts()) != 0 {
			t.Errorf("%s: PowerOn kept trip counts %v", name, d.TripCounts())
		}
	}
}
