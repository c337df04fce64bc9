package isa

import "testing"

// buildMem assembles a sequence of instructions at base and returns a
// read function plus the end address.
func buildMem(base uint16, ins []Instruction) (func(uint16) uint16, uint16) {
	mem := map[uint16]uint16{}
	addr := base
	for _, in := range ins {
		for _, w := range MustEncode(in) {
			mem[addr] = w
			addr += 2
		}
	}
	return func(a uint16) uint16 { return mem[a] }, addr
}

// TestBuildBlocksEndersAndTotals: a straight-line run ends exactly at
// the jump, the block's cycle total is the sum of its entries, and the
// per-op PC/Next/Cycles fields match the predecode table.
func TestBuildBlocksEndersAndTotals(t *testing.T) {
	ins := []Instruction{
		{Op: MOV, Src: ImmExt(0x1234), Dst: RegOp(10)},
		{Op: ADD, Src: RegOp(10), Dst: RegOp(11)},
		{Op: XOR, Src: RegOp(11), Dst: RegOp(12)},
		{Op: JNE, JumpOffset: -4},
		{Op: MOV, Src: Imm(1), Dst: RegOp(4)}, // next block
	}
	read, end := buildMem(0x1000, ins)
	p := Predecode(read, 0x1000, end, nil)
	b := BuildBlocks(p)

	blk := b.At(0x1000)
	if blk == nil {
		t.Fatal("no block at the run head")
	}
	if len(blk.Ops) != 4 {
		t.Fatalf("block has %d ops, want 4 (ends at the jump)", len(blk.Ops))
	}
	var cyc uint32
	pc := uint16(0x1000)
	for k, op := range blk.Ops {
		e := p.EntryAt(pc)
		if op.PC != pc || op.Next != pc+e.Size || op.Cycles != e.Cycles {
			t.Errorf("op %d: pc/next/cycles %04x/%04x/%d, want %04x/%04x/%d",
				k, op.PC, op.Next, op.Cycles, pc, pc+e.Size, e.Cycles)
		}
		cyc += uint32(op.Cycles)
		pc = op.Next
	}
	if blk.Cycles != cyc {
		t.Errorf("block cycle total %d, want %d", blk.Cycles, cyc)
	}
	if !blk.Pure {
		t.Error("register-only block not marked pure")
	}
	if b.At(pc) == nil {
		t.Errorf("no block after the jump at 0x%04x", pc)
	}
}

// TestBuildBlocksSuffixSharing: every interior address of a run starts
// its own block, and the suffix aliases the head block's array.
func TestBuildBlocksSuffixSharing(t *testing.T) {
	ins := []Instruction{
		{Op: ADD, Src: RegOp(10), Dst: RegOp(11)}, // 0x1000
		{Op: XOR, Src: RegOp(11), Dst: RegOp(12)}, // 0x1002
		{Op: AND, Src: RegOp(12), Dst: RegOp(13)}, // 0x1004
		{Op: JMP, JumpOffset: -1},                 // 0x1006
	}
	read, end := buildMem(0x1000, ins)
	b := BuildBlocks(Predecode(read, 0x1000, end, nil))

	head := b.At(0x1000)
	mid := b.At(0x1002)
	if head == nil || mid == nil {
		t.Fatal("head or interior block missing")
	}
	if len(mid.Ops) != len(head.Ops)-1 {
		t.Fatalf("interior block has %d ops, want %d", len(mid.Ops), len(head.Ops)-1)
	}
	if &mid.Ops[0] != &head.Ops[1] {
		t.Error("interior block does not alias the head block's op array")
	}
	if mid.Cycles != head.Cycles-uint32(head.Ops[0].Cycles) {
		t.Errorf("suffix cycles %d, want %d", mid.Cycles, head.Cycles-uint32(head.Ops[0].Cycles))
	}
}

// TestBuildBlocksPurity: memory operands make a block impure; CALL,
// PUSH and RETI are impure (stack traffic).
func TestBuildBlocksPurity(t *testing.T) {
	ins := []Instruction{
		{Op: ADD, Src: RegOp(10), Dst: RegOp(11)},
		{Op: MOV, Src: Operand{Mode: ModeAbsolute, X: 0x0200}, Dst: RegOp(12)},
		{Op: JMP, JumpOffset: -1},
	}
	read, end := buildMem(0x1000, ins)
	b := BuildBlocks(Predecode(read, 0x1000, end, nil))
	if blk := b.At(0x1000); blk == nil || blk.Pure {
		t.Errorf("block with a memory load marked pure: %+v", blk)
	}
	if blk := b.At(0x1006); blk == nil || !blk.Pure {
		t.Errorf("jump-only block not pure: %+v", blk)
	}

	ins = []Instruction{
		{Op: PUSH, Src: RegOp(10)},
		{Op: JMP, JumpOffset: -1},
	}
	read, end = buildMem(0x2000, ins)
	b = BuildBlocks(Predecode(read, 0x2000, end, nil))
	if blk := b.At(0x2000); blk == nil || blk.Pure {
		t.Errorf("PUSH block marked pure: %+v", blk)
	}
}

// TestBuildBlocksCap: straight-line runs split at MaxBlockOps so the
// precomputed totals stay admissible under tight deadlines.
func TestBuildBlocksCap(t *testing.T) {
	var ins []Instruction
	for i := 0; i < MaxBlockOps+5; i++ {
		ins = append(ins, Instruction{Op: ADD, Src: Imm(1), Dst: RegOp(10)})
	}
	ins = append(ins, Instruction{Op: JMP, JumpOffset: -1})
	read, end := buildMem(0x1000, ins)
	b := BuildBlocks(Predecode(read, 0x1000, end, nil))
	blk := b.At(0x1000)
	if blk == nil || len(blk.Ops) != MaxBlockOps {
		t.Fatalf("head block has %d ops, want the cap %d", len(blk.Ops), MaxBlockOps)
	}
	next := b.At(blk.Ops[len(blk.Ops)-1].Next)
	if next == nil || len(next.Ops) != 6 {
		t.Fatalf("tail block missing or wrong size after the cap")
	}
}

// TestBuildBlocksSRWriteEnds: explicit SR destinations end a block
// (they can toggle GIE/CPUOFF).
func TestBuildBlocksSRWriteEnds(t *testing.T) {
	ins := []Instruction{
		{Op: ADD, Src: RegOp(10), Dst: RegOp(11)},
		{Op: BIS, Src: Imm(8), Dst: RegOp(SR)}, // eint
		{Op: ADD, Src: RegOp(11), Dst: RegOp(12)},
		{Op: JMP, JumpOffset: -1},
	}
	read, end := buildMem(0x1000, ins)
	b := BuildBlocks(Predecode(read, 0x1000, end, nil))
	blk := b.At(0x1000)
	if blk == nil || len(blk.Ops) != 2 {
		t.Fatalf("block has %d ops, want 2 (ends at the SR write)", len(blk.Ops))
	}
}

// TestMarkLiveFlags: flag results overwritten before any reader are
// dead; the last writer before a conditional jump (and before block
// exit) stays live, and SR read as a data register revives liveness.
func TestMarkLiveFlags(t *testing.T) {
	ins := []Instruction{
		{Op: ADD, Src: Imm(1), Dst: RegOp(10)},    // flags dead (xor overwrites)
		{Op: XOR, Src: RegOp(10), Dst: RegOp(11)}, // flags dead (sub overwrites)
		{Op: SUB, Src: Imm(1), Dst: RegOp(12)},    // live: jne reads Z
		{Op: JNE, JumpOffset: -4},
	}
	read, end := buildMem(0x1000, ins)
	b := BuildBlocks(Predecode(read, 0x1000, end, nil))
	blk := b.At(0x1000)
	if blk == nil || len(blk.Ops) != 4 {
		t.Fatalf("unexpected block shape: %+v", blk)
	}
	// The jump writes no flags, so it is never marked live.
	for k, want := range []bool{false, false, true, false} {
		if blk.Ops[k].Flags != want {
			t.Errorf("op %d liveness = %v, want %v", k, blk.Ops[k].Flags, want)
		}
	}

	// mov sr, r15 reads the flags as data: the preceding writer is live.
	ins = []Instruction{
		{Op: ADD, Src: Imm(1), Dst: RegOp(10)},    // live: mov sr reads flags
		{Op: MOV, Src: RegOp(SR), Dst: RegOp(15)}, // data read of SR
		{Op: SUB, Src: Imm(1), Dst: RegOp(12)},
		{Op: JNE, JumpOffset: -4},
	}
	read, end = buildMem(0x2000, ins)
	b = BuildBlocks(Predecode(read, 0x2000, end, nil))
	blk = b.At(0x2000)
	if blk == nil || len(blk.Ops) != 4 {
		t.Fatalf("unexpected block shape: %+v", blk)
	}
	if !blk.Ops[0].Flags {
		t.Error("flags before a data read of SR must stay live")
	}

	// The final writer is always live: the world after the block reads SR.
	if !blk.Ops[2].Flags {
		t.Error("last flag writer of a block must stay live")
	}
}

// TestBuildBlocksStopAtRegionBoundary: a straight-line run that crosses
// from one region into the next is fused as two blocks, one per region,
// and a fetch window that leaves the regions stays uncached.
func TestBuildBlocksStopAtRegionBoundary(t *testing.T) {
	var ins []Instruction
	for i := 0; i < 8; i++ {
		ins = append(ins, Instruction{Op: ADD, Src: RegOp(10), Dst: RegOp(11)})
	}
	ins = append(ins, Instruction{Op: JMP, JumpOffset: -1})
	read, end := buildMem(0x1000, ins) // 0x1000..0x1011
	region := func(a uint16) int {
		switch {
		case a < 0x1008:
			return 0
		case a < 0x1100:
			return 1
		}
		return -1
	}
	b := BuildBlocks(Predecode(read, 0x1000, end, region))
	head := b.At(0x1000)
	if head == nil || len(head.Ops) != 4 || head.Ops[3].PC != 0x1006 {
		t.Fatalf("head block = %+v, want the 4 ops below the boundary", head)
	}
	if tail := b.At(0x1008); tail == nil || len(tail.Ops) != 5 {
		t.Fatalf("block at the boundary = %+v, want the 5 ops above it", tail)
	}
}

// TestBuildBlocksEnderClass: a block carries its final op's stack-op
// class — a call with its return address, a ret, a reti, or other —
// and EarlyExit marks only blocks with a memory op before the final
// one.
func TestBuildBlocksEnderClass(t *testing.T) {
	ins := []Instruction{
		{Op: ADD, Src: RegOp(10), Dst: RegOp(11)},       // 0x1000
		{Op: CALL, Src: ImmExt(0x2000)},                 // 0x1002, ra 0x1006
		{Op: MOV, Src: Abs(0x0200), Dst: RegOp(12)},     // 0x1006
		{Op: MOV, Src: IndirectInc(SP), Dst: RegOp(PC)}, // 0x100A ret
		{Op: RETI}, // 0x100C
		{Op: ADD, Src: RegOp(10), Dst: RegOp(11)}, // 0x100E
		{Op: JMP, JumpOffset: -1},                 // 0x1010
	}
	read, end := buildMem(0x1000, ins)
	b := BuildBlocks(Predecode(read, 0x1000, end, nil))
	for _, c := range []struct {
		pc    uint16
		ender StackOp
		early bool
	}{
		{0x1000, StackOp{Class: StackCall, RA: 0x1006}, false},
		{0x1002, StackOp{Class: StackCall, RA: 0x1006}, false},
		{0x1006, StackOp{Class: StackRet}, true},
		{0x100A, StackOp{Class: StackRet}, false},
		{0x100C, StackOp{Class: StackReti}, false},
		{0x100E, StackOp{}, false},
	} {
		blk := b.At(c.pc)
		if blk == nil {
			t.Fatalf("no block at 0x%04x", c.pc)
		}
		if blk.Ender != c.ender || blk.EarlyExit != c.early {
			t.Errorf("block 0x%04x: ender %+v early %v, want %+v %v", c.pc, blk.Ender, blk.EarlyExit, c.ender, c.early)
		}
	}
}
