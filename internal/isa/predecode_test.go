package isa

import "testing"

// TestPredecodeMatchesDecode: every cached entry must be exactly what
// Decode returns for the same words, and addresses that fail to decode
// must stay uncached.
func TestPredecodeMatchesDecode(t *testing.T) {
	// A small "memory": two valid instructions, a data word that does
	// not decode, then another instruction.
	mem := map[uint16]uint16{}
	addr := uint16(0x1000)
	put := func(ws []uint16) {
		for _, w := range ws {
			mem[addr] = w
			addr += 2
		}
	}
	put(MustEncode(Instruction{Op: MOV, Src: ImmExt(0x1234), Dst: RegOp(10)}))
	put(MustEncode(Instruction{Op: ADD, Src: RegOp(10), Dst: RegOp(11)}))
	put([]uint16{0x0000}) // invalid opcode word
	put(MustEncode(Instruction{Op: JMP, JumpOffset: -1}))
	end := addr

	read := func(a uint16) uint16 { return mem[a] }
	p := Predecode(read, 0x1000, end, nil)

	for a := uint16(0x1000); a < end; a += 2 {
		words := []uint16{read(a), read(a + 2), read(a + 4)}
		want, _, wantErr := Decode(words)
		in, size, cycles, ok := p.Lookup(a)
		if wantErr != nil {
			if ok {
				t.Errorf("0x%04x: cached but Decode fails", a)
			}
			continue
		}
		if !ok {
			t.Errorf("0x%04x: decodable but not cached", a)
			continue
		}
		if in != want {
			t.Errorf("0x%04x: cached %+v, Decode gives %+v", a, in, want)
		}
		if size != want.Size() || int(cycles) != Cycles(want) {
			t.Errorf("0x%04x: size/cycles %d/%d, want %d/%d", a, size, cycles, want.Size(), Cycles(want))
		}
	}
}

func TestPredecodeLookupBounds(t *testing.T) {
	read := func(a uint16) uint16 { return 0x4303 } // nop (mov r3, r3)
	p := Predecode(read, 0x2000, 0x2010, nil)

	if _, _, _, ok := p.Lookup(0x1FFE); ok {
		t.Error("below window cached")
	}
	if _, _, _, ok := p.Lookup(0x2012); ok {
		t.Error("above window cached")
	}
	if _, _, _, ok := p.Lookup(0x2001); ok {
		t.Error("odd address cached")
	}
	if _, _, _, ok := p.Lookup(0x2000); !ok {
		t.Error("window start not cached")
	}
	var nilP *Predecoded
	if _, _, _, ok := nilP.Lookup(0x2000); ok {
		t.Error("nil cache returned a hit")
	}
	if nilP.Len() != 0 {
		t.Error("nil cache has entries")
	}
}

// TestPredecodeWrapWindow: the top two word slots would need a wrapped
// fetch window and must never be cached.
func TestPredecodeWrapWindow(t *testing.T) {
	read := func(a uint16) uint16 { return 0x4303 }
	p := Predecode(read, 0xFFF0, 0xFFFF, nil)
	for _, a := range []uint16{0xFFFC, 0xFFFE} {
		if _, _, _, ok := p.Lookup(a); ok {
			t.Errorf("0x%04x cached despite wrapping fetch window", a)
		}
	}
	if _, _, _, ok := p.Lookup(0xFFFA); !ok {
		t.Error("0xFFFA should be cacheable")
	}
}

// TestPredecodeFetchablePredicate: an address whose three-word fetch
// window strays outside the accepted region must stay uncached, because
// the live path's speculative reads there have observable side effects.
func TestPredecodeFetchablePredicate(t *testing.T) {
	read := func(a uint16) uint16 { return 0x4303 } // nop (mov r3, r3)
	region := func(a uint16) int {
		if a < 0x3010 {
			return 0
		}
		return -1
	}
	p := Predecode(read, 0x3000, 0x3020, region)
	if _, _, _, ok := p.Lookup(0x3008); !ok {
		t.Error("window fully inside the region should be cached")
	}
	// 0x300C reads 0x300C/0x300E/0x3010; the last word is outside.
	for _, a := range []uint16{0x300C, 0x300E, 0x3010, 0x3012} {
		if _, _, _, ok := p.Lookup(a); ok {
			t.Errorf("0x%04x cached despite fetch window leaving the region", a)
		}
	}
}
