package cpu

import (
	"math/rand"
	"testing"

	"eilid/internal/isa"
	"eilid/internal/mem"
)

// program assembles instructions into PMEM at 0xE000, points the reset
// vector at them, and returns a reset CPU.
func program(t *testing.T, instrs ...isa.Instruction) (*CPU, *mem.Space) {
	t.Helper()
	s := mem.MustNewSpace(mem.DefaultLayout())
	var buf []byte
	for _, in := range instrs {
		for _, w := range isa.MustEncode(in) {
			buf = append(buf, byte(w), byte(w>>8))
		}
	}
	if err := s.LoadImage(0xE000, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadImage(0xFFFE, []byte{0x00, 0xE0}); err != nil {
		t.Fatal(err)
	}
	c := New(s)
	c.Reset(0xFFFE)
	return c, s
}

func step(t *testing.T, c *CPU, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestResetLoadsVector(t *testing.T) {
	c, _ := program(t, isa.Instruction{Op: isa.MOV, Src: isa.Imm(1), Dst: isa.RegOp(4)})
	if c.PC() != 0xE000 {
		t.Fatalf("PC after reset = 0x%04x, want 0xe000", c.PC())
	}
	if c.Cycles != 4 {
		t.Errorf("reset cycles = %d, want 4", c.Cycles)
	}
}

func TestMovImmediate(t *testing.T) {
	c, _ := program(t, isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x1234), Dst: isa.RegOp(10)})
	step(t, c, 1)
	if c.R[10] != 0x1234 {
		t.Errorf("r10 = 0x%04x", c.R[10])
	}
	if c.PC() != 0xE004 {
		t.Errorf("PC = 0x%04x, want 0xe004", c.PC())
	}
	if c.Cycles != 4+2 {
		t.Errorf("cycles = %d, want 6", c.Cycles)
	}
}

func TestArithmeticFlags(t *testing.T) {
	// Each case: set r5, r6, run op r5->r6, check result and flags.
	cases := []struct {
		name       string
		op         isa.Opcode
		src, dst   uint16
		byteOp     bool
		want       uint16
		c, z, n, v bool
	}{
		{"add simple", isa.ADD, 1, 2, false, 3, false, false, false, false},
		{"add carry", isa.ADD, 0xFFFF, 2, false, 1, true, false, false, false},
		{"add zero+carry", isa.ADD, 0xFFFF, 1, false, 0, true, true, false, false},
		{"add overflow", isa.ADD, 0x7FFF, 1, false, 0x8000, false, false, true, true},
		{"add neg overflow", isa.ADD, 0x8000, 0x8000, false, 0, true, true, false, true},
		{"sub simple", isa.SUB, 1, 3, false, 2, true, false, false, false},
		{"sub zero", isa.SUB, 3, 3, false, 0, true, true, false, false},
		{"sub borrow", isa.SUB, 4, 3, false, 0xFFFF, false, false, true, false},
		{"sub overflow", isa.SUB, 1, 0x8000, false, 0x7FFF, true, false, false, true},
		{"cmp equal", isa.CMP, 7, 7, false, 7, true, true, false, false},
		{"and", isa.AND, 0x0F0F, 0x00FF, false, 0x000F, true, false, false, false},
		{"and zero", isa.AND, 0xF000, 0x0FFF, false, 0, false, true, false, false},
		{"xor", isa.XOR, 0xFF00, 0x0FF0, false, 0xF0F0, true, false, true, false},
		{"xor both neg", isa.XOR, 0x8001, 0x8010, false, 0x0011, true, false, false, true},
		{"bit set", isa.BIT, 0x0004, 0x0006, false, 0x0006, true, false, false, false},
		{"bit clear", isa.BIT, 0x0001, 0x0006, false, 0x0006, false, true, false, false},
		{"bis", isa.BIS, 0x00F0, 0x000F, false, 0x00FF, false, false, false, false},
		{"bic", isa.BIC, 0x00F0, 0x00FF, false, 0x000F, false, false, false, false},
		{"add.b carry", isa.ADD, 0xFF, 0x01, true, 0x00, true, true, false, false},
		{"add.b overflow", isa.ADD, 0x7F, 0x01, true, 0x80, false, false, true, true},
		{"sub.b", isa.SUB, 0x01, 0x00, true, 0xFF, false, false, true, false},
		{"dadd", isa.DADD, 0x0019, 0x0023, false, 0x0042, false, false, false, false},
		{"dadd carry", isa.DADD, 0x9999, 0x0001, false, 0x0000, true, true, false, false},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			c, _ := program(t,
				isa.Instruction{Op: isa.MOV, Src: isa.Imm(cse.src), Dst: isa.RegOp(5)},
				isa.Instruction{Op: isa.MOV, Src: isa.Imm(cse.dst), Dst: isa.RegOp(6)},
				isa.Instruction{Op: cse.op, Byte: cse.byteOp, Src: isa.RegOp(5), Dst: isa.RegOp(6)},
			)
			step(t, c, 3)
			if cse.op.WritesDst() {
				if c.R[6] != cse.want {
					t.Errorf("r6 = 0x%04x, want 0x%04x", c.R[6], cse.want)
				}
			}
			if cse.op.SetsFlags() {
				checkFlag := func(name string, f uint16, want bool) {
					if got := c.Flag(f); got != want {
						t.Errorf("flag %s = %v, want %v", name, got, want)
					}
				}
				checkFlag("C", isa.FlagC, cse.c)
				checkFlag("Z", isa.FlagZ, cse.z)
				checkFlag("N", isa.FlagN, cse.n)
				checkFlag("V", isa.FlagV, cse.v)
			}
		})
	}
}

func TestMovDoesNotTouchFlags(t *testing.T) {
	c, _ := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0xFFFF), Dst: isa.RegOp(5)},
		isa.Instruction{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(5)}, // sets C,Z
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x1234), Dst: isa.RegOp(6)},
	)
	step(t, c, 3)
	if !c.Flag(isa.FlagC) || !c.Flag(isa.FlagZ) {
		t.Error("MOV clobbered flags")
	}
}

func TestAddcSubcUseCarry(t *testing.T) {
	c, _ := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0xFFFF), Dst: isa.RegOp(5)},
		isa.Instruction{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(5)}, // C=1
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(10), Dst: isa.RegOp(6)},
		isa.Instruction{Op: isa.ADDC, Src: isa.Imm(0), Dst: isa.RegOp(6)}, // +carry
	)
	step(t, c, 4)
	if c.R[6] != 11 {
		t.Errorf("addc result = %d, want 11", c.R[6])
	}
}

func TestShiftsAndRotates(t *testing.T) {
	c, _ := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x8003), Dst: isa.RegOp(5)},
		isa.Instruction{Op: isa.RRA, Src: isa.RegOp(5)}, // arithmetic: keeps sign
	)
	step(t, c, 2)
	if c.R[5] != 0xC001 {
		t.Errorf("rra = 0x%04x, want 0xc001", c.R[5])
	}
	if !c.Flag(isa.FlagC) {
		t.Error("rra should set C from LSB")
	}

	c, _ = program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0xFFFF), Dst: isa.RegOp(5)},
		isa.Instruction{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(5)}, // C=1
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0002), Dst: isa.RegOp(6)},
		isa.Instruction{Op: isa.RRC, Src: isa.RegOp(6)},
	)
	step(t, c, 4)
	if c.R[6] != 0x8001 {
		t.Errorf("rrc = 0x%04x, want 0x8001 (carry shifted in)", c.R[6])
	}
	if c.Flag(isa.FlagC) {
		t.Error("rrc C should be old LSB = 0")
	}

	c, _ = program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x1234), Dst: isa.RegOp(5)},
		isa.Instruction{Op: isa.SWPB, Src: isa.RegOp(5)},
	)
	step(t, c, 2)
	if c.R[5] != 0x3412 {
		t.Errorf("swpb = 0x%04x", c.R[5])
	}

	c, _ = program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0080), Dst: isa.RegOp(5)},
		isa.Instruction{Op: isa.SXT, Src: isa.RegOp(5)},
	)
	step(t, c, 2)
	if c.R[5] != 0xFF80 {
		t.Errorf("sxt = 0x%04x, want 0xff80", c.R[5])
	}
	if !c.Flag(isa.FlagN) {
		t.Error("sxt should set N")
	}
}

func TestByteRegisterWriteClearsHighByte(t *testing.T) {
	c, _ := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0xABCD), Dst: isa.RegOp(5)},
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0xFFEE), Dst: isa.RegOp(6)},
		isa.Instruction{Op: isa.MOV, Byte: true, Src: isa.RegOp(6), Dst: isa.RegOp(5)},
	)
	step(t, c, 3)
	if c.R[5] != 0x00EE {
		t.Errorf("byte mov to register = 0x%04x, want 0x00ee", c.R[5])
	}
}

func TestMemoryAddressingModes(t *testing.T) {
	c, s := program(t,
		// mov #0x0300, r4 ; mov #0xBEEF, 2(r4) ; mov 2(r4), r5
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0300), Dst: isa.RegOp(4)},
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0xBEEF), Dst: isa.Indexed(2, 4)},
		isa.Instruction{Op: isa.MOV, Src: isa.Indexed(2, 4), Dst: isa.RegOp(5)},
		// absolute
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0xCAFE), Dst: isa.Abs(0x0400)},
		isa.Instruction{Op: isa.MOV, Src: isa.Abs(0x0400), Dst: isa.RegOp(6)},
		// indirect and autoincrement
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0302), Dst: isa.RegOp(7)},
		isa.Instruction{Op: isa.MOV, Src: isa.Indirect(7), Dst: isa.RegOp(8)},
		isa.Instruction{Op: isa.MOV, Src: isa.IndirectInc(7), Dst: isa.RegOp(9)},
	)
	step(t, c, 8)
	if s.LoadWord(0x0302) != 0xBEEF {
		t.Errorf("indexed store failed: 0x%04x", s.LoadWord(0x0302))
	}
	if c.R[5] != 0xBEEF {
		t.Errorf("indexed load r5 = 0x%04x", c.R[5])
	}
	if c.R[6] != 0xCAFE {
		t.Errorf("absolute load r6 = 0x%04x", c.R[6])
	}
	if c.R[8] != 0xBEEF {
		t.Errorf("indirect load r8 = 0x%04x", c.R[8])
	}
	if c.R[9] != 0xBEEF {
		t.Errorf("autoincrement load r9 = 0x%04x", c.R[9])
	}
	if c.R[7] != 0x0304 {
		t.Errorf("autoincrement side effect r7 = 0x%04x, want 0x0304", c.R[7])
	}
}

func TestByteAutoIncrementStepsByOne(t *testing.T) {
	c, _ := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0300), Dst: isa.RegOp(7)},
		isa.Instruction{Op: isa.MOV, Byte: true, Src: isa.IndirectInc(7), Dst: isa.RegOp(5)},
	)
	step(t, c, 2)
	if c.R[7] != 0x0301 {
		t.Errorf("byte @r7+ stepped to 0x%04x, want 0x0301", c.R[7])
	}
}

func TestSymbolicMode(t *testing.T) {
	// mov DATA, r5 where DATA is 0x0300: instruction at 0xE000, ext word
	// at 0xE002, so X = 0x0300 - 0xE002.
	var target, extWordAddr uint16 = 0x0300, 0xE002
	x := target - extWordAddr
	c, s := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Operand{Mode: isa.ModeSymbolic, Reg: isa.PC, X: x}, Dst: isa.RegOp(5)},
	)
	s.StoreWord(0x0300, 0x5AA5)
	step(t, c, 1)
	if c.R[5] != 0x5AA5 {
		t.Errorf("symbolic load r5 = 0x%04x, want 0x5aa5", c.R[5])
	}
}

func TestStackPushCallRet(t *testing.T) {
	// main: mov #0x0A00, sp ; call #func(0xE00A) ; jmp $ ;
	// func: mov #42, r10 ; ret
	c, s := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0A00), Dst: isa.RegOp(isa.SP)},         // E000 (4 bytes)
		isa.Instruction{Op: isa.CALL, Src: isa.Imm(0xE00A)},                                // E004 (4 bytes)
		isa.Instruction{Op: isa.JMP, JumpOffset: -1},                                       // E008
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(42), Dst: isa.RegOp(10)},                 // E00A
		isa.Instruction{Op: isa.MOV, Src: isa.IndirectInc(isa.SP), Dst: isa.RegOp(isa.PC)}, // ret
	)
	step(t, c, 2) // mov sp, call
	if c.PC() != 0xE00A {
		t.Fatalf("call target PC = 0x%04x", c.PC())
	}
	if c.SP() != 0x09FE {
		t.Fatalf("SP after call = 0x%04x, want 0x09fe", c.SP())
	}
	if ra := s.LoadWord(0x09FE); ra != 0xE008 {
		t.Fatalf("pushed return address = 0x%04x, want 0xe008", ra)
	}
	step(t, c, 2) // mov #42, ret
	if c.R[10] != 42 {
		t.Errorf("r10 = %d", c.R[10])
	}
	if c.PC() != 0xE008 {
		t.Errorf("PC after ret = 0x%04x, want 0xe008", c.PC())
	}
	if c.SP() != 0x0A00 {
		t.Errorf("SP after ret = 0x%04x, want 0x0a00", c.SP())
	}
}

func TestCallRegisterIndirect(t *testing.T) {
	c, _ := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0A00), Dst: isa.RegOp(isa.SP)},
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0xE100), Dst: isa.RegOp(13)},
		isa.Instruction{Op: isa.CALL, Src: isa.RegOp(13)},
	)
	step(t, c, 3)
	if c.PC() != 0xE100 {
		t.Errorf("indirect call PC = 0x%04x, want 0xe100", c.PC())
	}
}

func TestPushPop(t *testing.T) {
	c, _ := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0A00), Dst: isa.RegOp(isa.SP)},
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x1111), Dst: isa.RegOp(4)},
		isa.Instruction{Op: isa.PUSH, Src: isa.RegOp(4)},
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x2222), Dst: isa.RegOp(4)},
		isa.Instruction{Op: isa.MOV, Src: isa.IndirectInc(isa.SP), Dst: isa.RegOp(5)}, // pop r5
	)
	step(t, c, 5)
	if c.R[5] != 0x1111 {
		t.Errorf("pop r5 = 0x%04x, want 0x1111", c.R[5])
	}
	if c.SP() != 0x0A00 {
		t.Errorf("SP = 0x%04x, want 0x0a00", c.SP())
	}
}

func TestJumpConditions(t *testing.T) {
	// For each jump: set flags via a compare, then conditional jump over a
	// marker store.
	type jc struct {
		name  string
		a, b  uint16 // cmp #a, rb-with-b
		op    isa.Opcode
		taken bool
	}
	cases := []jc{
		{"jeq taken", 5, 5, isa.JEQ, true},
		{"jeq not", 5, 6, isa.JEQ, false},
		{"jne taken", 5, 6, isa.JNE, true},
		{"jne not", 5, 5, isa.JNE, false},
		{"jc taken", 5, 6, isa.JC, true}, // 6-5: no borrow -> C=1
		{"jc not", 6, 5, isa.JC, false},  // 5-6: borrow -> C=0
		{"jnc taken", 6, 5, isa.JNC, true},
		{"jn taken", 6, 5, isa.JN, true}, // 5-6 negative
		{"jn not", 5, 6, isa.JN, false},
		{"jge taken", 5, 6, isa.JGE, true}, // 6 >= 5 signed
		{"jge equal", 5, 5, isa.JGE, true},
		{"jge not", 6, 5, isa.JGE, false},
		{"jl taken", 6, 5, isa.JL, true},
		{"jl not", 5, 6, isa.JL, false},
		{"jmp", 0, 0, isa.JMP, true},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			c, _ := program(t,
				isa.Instruction{Op: isa.MOV, Src: isa.Imm(cse.b), Dst: isa.RegOp(6)},   // E000, 2-4 bytes... use imm always 4 bytes
				isa.Instruction{Op: isa.CMP, Src: isa.Imm(cse.a), Dst: isa.RegOp(6)},   //
				isa.Instruction{Op: cse.op, JumpOffset: 2},                             // skip next 2 words
				isa.Instruction{Op: isa.MOV, Src: isa.Imm(0xDEAD), Dst: isa.RegOp(10)}, // 2 words
				isa.Instruction{Op: isa.MOV, Src: isa.Imm(0xBEEF), Dst: isa.RegOp(11)},
			)
			step(t, c, 4)
			if cse.taken {
				if c.R[10] == 0xDEAD {
					t.Error("jump not taken but should be")
				}
				if c.R[11] != 0xBEEF {
					t.Error("landing instruction did not execute")
				}
			} else if c.R[10] != 0xDEAD {
				t.Error("jump taken but should not be")
			}
		})
	}
}

// testIRQ is a single-line IRQ source.
type testIRQ struct {
	pending map[int]bool
}

func (q *testIRQ) HighestPending() int {
	best := -1
	for l, p := range q.pending {
		if p && l > best {
			best = l
		}
	}
	return best
}
func (q *testIRQ) Acknowledge(line int) { q.pending[line] = false }

func TestInterruptServiceAndReti(t *testing.T) {
	// main: mov #0x0A00, sp ; eint ; loop: jmp loop
	// ISR at 0xE100: mov #77, r10 ; reti. Vector 8 (0xFFF0) -> 0xE100.
	c, s := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0A00), Dst: isa.RegOp(isa.SP)},      // E000
		isa.Instruction{Op: isa.BIS, Src: isa.Imm(isa.FlagGIE), Dst: isa.RegOp(isa.SR)}, // E004: eint (CG 8)
		isa.Instruction{Op: isa.JMP, JumpOffset: -1},                                    // E006: loop
	)
	// Place ISR at 0xE100.
	var isr []byte
	for _, in := range []isa.Instruction{
		{Op: isa.MOV, Src: isa.Imm(77), Dst: isa.RegOp(10)},
		{Op: isa.RETI},
	} {
		for _, w := range isa.MustEncode(in) {
			isr = append(isr, byte(w), byte(w>>8))
		}
	}
	if err := s.LoadImage(0xE100, isr); err != nil {
		t.Fatal(err)
	}
	s.LoadImage(0xFFF0, []byte{0x00, 0xE1})

	irq := &testIRQ{pending: map[int]bool{}}
	c.IRQ = irq

	step(t, c, 3) // sp, eint, one loop iteration
	irq.pending[8] = true
	step(t, c, 1) // interrupt accepted
	if c.PC() != 0xE100 {
		t.Fatalf("PC after interrupt = 0x%04x, want 0xe100", c.PC())
	}
	if c.Flag(isa.FlagGIE) {
		t.Error("GIE must be cleared in ISR")
	}
	if c.SP() != 0x09FC {
		t.Fatalf("SP after interrupt = 0x%04x, want 0x09fc", c.SP())
	}
	// Context on stack: SR at 0(SP), return address at 2(SP).
	if sr := s.LoadWord(0x09FC); sr&isa.FlagGIE == 0 {
		t.Error("pushed SR should have GIE set")
	}
	if ra := s.LoadWord(0x09FE); ra != 0xE006 {
		t.Errorf("pushed return address = 0x%04x, want 0xe006", ra)
	}
	if irq.pending[8] {
		t.Error("interrupt not acknowledged")
	}
	step(t, c, 2) // mov #77, reti
	if c.R[10] != 77 {
		t.Errorf("ISR body did not run, r10 = %d", c.R[10])
	}
	if c.PC() != 0xE006 {
		t.Errorf("PC after reti = 0x%04x, want 0xe006", c.PC())
	}
	if !c.Flag(isa.FlagGIE) {
		t.Error("reti must restore GIE")
	}
	if c.SP() != 0x0A00 {
		t.Errorf("SP after reti = 0x%04x", c.SP())
	}
	if c.Interrupts != 1 {
		t.Errorf("Interrupts = %d", c.Interrupts)
	}
}

func TestInterruptMaskedWithoutGIE(t *testing.T) {
	c, _ := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0A00), Dst: isa.RegOp(isa.SP)},
		isa.Instruction{Op: isa.JMP, JumpOffset: -1},
	)
	irq := &testIRQ{pending: map[int]bool{8: true}}
	c.IRQ = irq
	step(t, c, 5)
	if c.Interrupts != 0 {
		t.Error("interrupt serviced despite GIE clear")
	}
	if !irq.pending[8] {
		t.Error("pending flag consumed while masked")
	}
}

func TestCPUOffIdlesAndWakes(t *testing.T) {
	// mov sp ; bis #(GIE|CPUOFF), sr ; (sleep) ISR clears nothing -> after
	// reti CPUOFF restored; we check the idle path ticks cycles.
	c, s := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0A00), Dst: isa.RegOp(isa.SP)},
		isa.Instruction{Op: isa.BIS, Src: isa.Imm(isa.FlagGIE | isa.FlagCPUOff), Dst: isa.RegOp(isa.SR)},
	)
	var isr []byte
	for _, in := range []isa.Instruction{
		{Op: isa.MOV, Src: isa.Imm(9), Dst: isa.RegOp(10)},
		// Clear CPUOFF in the saved SR so the main program resumes:
		// bic #CPUOFF, 0(sp)
		{Op: isa.BIC, Src: isa.Imm(isa.FlagCPUOff), Dst: isa.Indexed(0, isa.SP)},
		{Op: isa.RETI},
	} {
		for _, w := range isa.MustEncode(in) {
			isr = append(isr, byte(w), byte(w>>8))
		}
	}
	s.LoadImage(0xE100, isr)
	s.LoadImage(0xFFF0, []byte{0x00, 0xE1})
	irq := &testIRQ{pending: map[int]bool{}}
	c.IRQ = irq

	step(t, c, 2)
	if !c.Off() {
		t.Fatal("CPUOFF not set")
	}
	before := c.Cycles
	step(t, c, 3) // idle ticks
	if c.Cycles != before+3 {
		t.Errorf("idle consumed %d cycles, want 3", c.Cycles-before)
	}
	irq.pending[8] = true
	step(t, c, 4) // accept, isr x2, reti
	if c.R[10] != 9 {
		t.Error("ISR did not run from low-power mode")
	}
	if c.Off() {
		t.Error("CPUOFF should be cleared by ISR stack manipulation")
	}
}

// recWatcher records watcher events.
type recWatcher struct {
	fetches    []uint16
	reads      []uint16
	writes     []uint16
	interrupts []int
}

func (w *recWatcher) OnFetch(prev, pc uint16)                   { w.fetches = append(w.fetches, pc) }
func (w *recWatcher) OnRead(pc, addr uint16, b bool)            { w.reads = append(w.reads, addr) }
func (w *recWatcher) OnWrite(pc, addr uint16, b bool, v uint16) { w.writes = append(w.writes, addr) }
func (w *recWatcher) OnInterrupt(pc uint16, line int)           { w.interrupts = append(w.interrupts, line) }

func TestWatcherSeesAccesses(t *testing.T) {
	c, _ := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0xBEEF), Dst: isa.Abs(0x0300)},
		isa.Instruction{Op: isa.MOV, Src: isa.Abs(0x0300), Dst: isa.RegOp(5)},
	)
	w := &recWatcher{}
	c.SetWatcher(w)
	step(t, c, 2)
	if len(w.fetches) != 2 || w.fetches[0] != 0xE000 {
		t.Errorf("fetches = %v", w.fetches)
	}
	if len(w.writes) != 1 || w.writes[0] != 0x0300 {
		t.Errorf("writes = %v", w.writes)
	}
	if len(w.reads) != 1 || w.reads[0] != 0x0300 {
		t.Errorf("reads = %v", w.reads)
	}
}

func TestIllegalInstructionFaults(t *testing.T) {
	s := mem.MustNewSpace(mem.DefaultLayout())
	s.LoadImage(0xE000, []byte{0x00, 0x00}) // reserved opcode
	s.LoadImage(0xFFFE, []byte{0x00, 0xE0})
	c := New(s)
	c.Reset(0xFFFE)
	if _, err := c.Step(); err == nil {
		t.Fatal("expected fault on illegal instruction")
	}
}

// Reference-model property test: ADD/SUB/CMP flags against plain integer
// arithmetic.
func TestALUReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		a, b := uint16(r.Uint32()), uint16(r.Uint32())
		c, _ := program(t,
			isa.Instruction{Op: isa.MOV, Src: isa.Imm(a), Dst: isa.RegOp(5)},
			isa.Instruction{Op: isa.MOV, Src: isa.Imm(b), Dst: isa.RegOp(6)},
			isa.Instruction{Op: isa.ADD, Src: isa.RegOp(5), Dst: isa.RegOp(6)},
		)
		step(t, c, 3)
		want := uint16(uint32(a) + uint32(b))
		if c.R[6] != want {
			t.Fatalf("add 0x%04x+0x%04x = 0x%04x, want 0x%04x", a, b, c.R[6], want)
		}
		if got, want := c.Flag(isa.FlagC), uint32(a)+uint32(b) > 0xFFFF; got != want {
			t.Fatalf("add C = %v, want %v (a=0x%04x b=0x%04x)", got, want, a, b)
		}
		if got, want := c.Flag(isa.FlagZ), want == 0; got != want {
			t.Fatalf("add Z mismatch")
		}
		if got, want := c.Flag(isa.FlagN), want&0x8000 != 0; got != want {
			t.Fatalf("add N mismatch")
		}
		sa, sb, sw := int16(a), int16(b), int16(want)
		wantV := (sa >= 0) == (sb >= 0) && (sw >= 0) != (sa >= 0)
		if got := c.Flag(isa.FlagV); got != wantV {
			t.Fatalf("add V = %v, want %v (a=%d b=%d)", got, wantV, sa, sb)
		}
	}
}

func TestSUBReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 3000; i++ {
		a, b := uint16(r.Uint32()), uint16(r.Uint32())
		c, _ := program(t,
			isa.Instruction{Op: isa.MOV, Src: isa.Imm(a), Dst: isa.RegOp(5)},
			isa.Instruction{Op: isa.MOV, Src: isa.Imm(b), Dst: isa.RegOp(6)},
			isa.Instruction{Op: isa.SUB, Src: isa.RegOp(5), Dst: isa.RegOp(6)}, // r6 = b - a
		)
		step(t, c, 3)
		want := b - a
		if c.R[6] != want {
			t.Fatalf("sub result mismatch")
		}
		if got, wantC := c.Flag(isa.FlagC), b >= a; got != wantC {
			t.Fatalf("sub C = %v, want %v (b=0x%04x a=0x%04x)", got, wantC, b, a)
		}
	}
}

func TestCyclesAccumulateMonotonically(t *testing.T) {
	c, _ := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0A00), Dst: isa.RegOp(isa.SP)},
		isa.Instruction{Op: isa.PUSH, Src: isa.RegOp(4)},
		isa.Instruction{Op: isa.JMP, JumpOffset: -1},
	)
	last := c.Cycles
	for i := 0; i < 10; i++ {
		n, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Fatalf("step consumed %d cycles", n)
		}
		if c.Cycles != last+uint64(n) {
			t.Fatal("cycle accounting inconsistent")
		}
		last = c.Cycles
	}
}

// TestDADDReferenceProperty checks BCD addition against an independent
// decimal reference model.
func TestDADDReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	toBCD := func(v int) uint16 {
		var out uint16
		for i := 0; i < 4; i++ {
			out |= uint16(v%10) << (4 * i)
			v /= 10
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		x, y := r.Intn(10000), r.Intn(10000)
		c, _ := program(t,
			isa.Instruction{Op: isa.MOV, Src: isa.Imm(toBCD(x)), Dst: isa.RegOp(5)},
			isa.Instruction{Op: isa.MOV, Src: isa.Imm(toBCD(y)), Dst: isa.RegOp(6)},
			isa.Instruction{Op: isa.BIC, Src: isa.Imm(isa.FlagC), Dst: isa.RegOp(isa.SR)},
			isa.Instruction{Op: isa.DADD, Src: isa.RegOp(5), Dst: isa.RegOp(6)},
		)
		step(t, c, 4)
		sum := x + y
		want := toBCD(sum % 10000)
		if c.R[6] != want {
			t.Fatalf("dadd %04d+%04d = 0x%04x, want 0x%04x", x, y, c.R[6], want)
		}
		if got, wantC := c.Flag(isa.FlagC), sum >= 10000; got != wantC {
			t.Fatalf("dadd %04d+%04d carry = %v, want %v", x, y, got, wantC)
		}
	}
}

// TestByteMemoryRMW exercises byte-wide read-modify-write operations on
// memory destinations.
func TestByteMemoryRMW(t *testing.T) {
	c, s := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0xA55A), Dst: isa.Abs(0x0300)},
		isa.Instruction{Op: isa.XOR, Byte: true, Src: isa.Imm(0x00FF), Dst: isa.Abs(0x0300)},
		isa.Instruction{Op: isa.ADD, Byte: true, Src: isa.Imm(1), Dst: isa.Abs(0x0301)},
	)
	step(t, c, 3)
	if got := s.LoadWord(0x0300); got != 0xA6A5 {
		t.Errorf("byte RMW result = 0x%04x, want 0xa6a5", got)
	}
}

// TestSymbolicDestination verifies PC-relative stores.
func TestSymbolicDestination(t *testing.T) {
	// mov #0xBEEF, X(pc) with the extension words at E002 (src) and
	// E004 (dst): dst EA = 0xE004 + X. Target DMEM 0x0300.
	var target, dstExt uint16 = 0x0300, 0xE004
	c, s := program(t,
		isa.Instruction{
			Op:  isa.MOV,
			Src: isa.Imm(0xBEEF),
			Dst: isa.Operand{Mode: isa.ModeSymbolic, Reg: isa.PC, X: target - dstExt},
		},
	)
	step(t, c, 1)
	if got := s.LoadWord(0x0300); got != 0xBEEF {
		t.Errorf("symbolic store = 0x%04x", got)
	}
	_ = c
}

// TestInterruptDuringMultiWordInstruction ensures interrupts are only
// accepted at instruction boundaries.
func TestInterruptBoundaries(t *testing.T) {
	c, s := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0A00), Dst: isa.RegOp(isa.SP)},
		isa.Instruction{Op: isa.BIS, Src: isa.Imm(isa.FlagGIE), Dst: isa.RegOp(isa.SR)},
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x1111), Dst: isa.Abs(0x0300)}, // 3-word instr
		isa.Instruction{Op: isa.JMP, JumpOffset: -1},
	)
	var isr []byte
	for _, in := range []isa.Instruction{
		{Op: isa.MOV, Src: isa.Abs(0x0300), Dst: isa.RegOp(10)},
		{Op: isa.RETI},
	} {
		for _, w := range isa.MustEncode(in) {
			isr = append(isr, byte(w), byte(w>>8))
		}
	}
	s.LoadImage(0xE100, isr)
	s.LoadImage(0xFFF0, []byte{0x00, 0xE1})
	irq := &testIRQ{pending: map[int]bool{}}
	c.IRQ = irq

	step(t, c, 2)
	irq.pending[8] = true
	// The pending interrupt is taken BEFORE the mov executes; the ISR
	// must observe the memory still at its old value, then the mov runs
	// to completion after reti.
	step(t, c, 1) // interrupt entry
	if c.PC() != 0xE100 {
		t.Fatalf("interrupt not taken at boundary, pc=0x%04x", c.PC())
	}
	step(t, c, 2) // isr + reti
	if c.R[10] != 0 {
		t.Error("ISR observed a half-executed store")
	}
	step(t, c, 1) // the interrupted mov now runs
	if s.LoadWord(0x0300) != 0x1111 {
		t.Error("interrupted instruction did not complete after reti")
	}
}

// TestSPAlignment verifies the stack pointer ignores its LSB.
func TestSPAlignment(t *testing.T) {
	c, _ := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x0A01), Dst: isa.RegOp(isa.SP)},
	)
	step(t, c, 1)
	if c.SP() != 0x0A00 {
		t.Errorf("SP = 0x%04x, want word-aligned 0x0a00", c.SP())
	}
}
