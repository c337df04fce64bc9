package core_test

import (
	"encoding/binary"
	"reflect"
	"testing"

	"eilid/internal/core"
	"eilid/internal/isa"
)

// fuzzOpcodes lists every opcode the generated streams draw from.
var fuzzOpcodes = []isa.Opcode{
	isa.MOV, isa.ADD, isa.ADDC, isa.SUBC, isa.SUB, isa.CMP, isa.DADD,
	isa.BIT, isa.BIC, isa.BIS, isa.XOR, isa.AND,
	isa.RRC, isa.SWPB, isa.RRA, isa.SXT, isa.PUSH, isa.CALL, isa.RETI,
	isa.JNE, isa.JEQ, isa.JNC, isa.JC, isa.JN, isa.JGE, isa.JL, isa.JMP,
}

const (
	// fuzzOrgLow and fuzzOrgStraddle are the two places a stream is
	// loaded: the bottom of PMEM, or just below the secure ROM so the
	// straight-line code runs across 0xF800.
	fuzzOrgLow      = 0xE000
	fuzzOrgStraddle = 0xF7E8
	// fuzzInsnBytes is the fuzz input consumed per instruction.
	fuzzInsnBytes = 7
	// fuzzMaxInsns bounds a stream, keeping it clear of the vector
	// table from either origin.
	fuzzMaxInsns = 64
	// fuzzBudget is the cycle budget of one run.
	fuzzBudget = 30_000
)

// fuzzProgram turns fuzz bytes into an MSP430 program image, as a list
// of (address, word) pairs. The first byte holds flags (bit 0: start
// TimerA with the period in byte 1; bit 1: enable interrupts; bit 2:
// load at the straddle origin). Every further 7 bytes become one
// instruction in the shape of isa's randomInstruction generator:
//
//	op, modes (src low nibble, dst high nibble), registers (src low,
//	dst high), source value (2 bytes), destination value (2 bytes).
//
// Memory operands are steered by the value's top two bits into the
// program's own code (self-modifying stores), DMEM, the peripheral
// page, or anywhere. The stream ends in a halt, the timer handler
// counts interrupts in r15, and the vector table points at both.
func fuzzProgram(data []byte) map[uint16]uint16 {
	var flags, period byte
	if len(data) > 0 {
		flags = data[0]
	}
	if len(data) > 1 {
		period = data[1]
	}
	org := uint16(fuzzOrgLow)
	if flags&4 != 0 {
		org = fuzzOrgStraddle
	}
	words := map[uint16]uint16{}
	pc := org
	emit := func(in isa.Instruction) {
		for _, w := range isa.MustEncode(in) {
			words[pc] = w
			pc += 2
		}
	}
	emit(isa.Instruction{Op: isa.MOV, Src: isa.ImmExt(0x0A00), Dst: isa.RegOp(isa.SP)})
	if flags&1 != 0 {
		emit(isa.Instruction{Op: isa.MOV, Src: isa.ImmExt(20 + uint16(period)), Dst: isa.Abs(0x0172)})
		emit(isa.Instruction{Op: isa.MOV, Src: isa.ImmExt(5), Dst: isa.Abs(0x0160)})
	}
	if flags&2 != 0 {
		emit(isa.Instruction{Op: isa.BIS, Src: isa.Imm(isa.FlagGIE), Dst: isa.RegOp(isa.SR)})
	}
	addr := func(v uint16) uint16 {
		switch v >> 14 {
		case 0:
			return org + v&0x7E
		case 1:
			return 0x0200 + v&0x3FE
		case 2:
			return v & 0x1FF
		}
		return v
	}
	// reg picks a register; memory modes avoid PC, SR and CG, whose
	// indexed and indirect encodings mean other addressing modes.
	reg := func(nibble byte, mem bool) isa.Reg {
		r := isa.Reg(nibble & 15)
		if r == isa.CG || mem && (r == isa.PC || r == isa.SR) {
			r = isa.Reg(4 + nibble&7)
		}
		return r
	}
	operand := func(mode, regNibble byte, v uint16, dst bool) isa.Operand {
		n := 7
		if dst {
			n = 4
		}
		switch int(mode) % n {
		case 0:
			r := reg(regNibble, false)
			if dst && r == isa.PC {
				r = 4
			}
			return isa.RegOp(r)
		case 1:
			return isa.Indexed(v&0x3F, reg(regNibble, true))
		case 2:
			return isa.Abs(addr(v))
		case 3:
			return isa.Operand{Mode: isa.ModeSymbolic, Reg: isa.PC, X: v & 0x7E}
		case 4:
			return isa.Indirect(reg(regNibble, true))
		case 5:
			return isa.IndirectInc(reg(regNibble, true))
		}
		return isa.ImmExt(v)
	}
	body := data[min(len(data), 2):]
	for n := 0; n < fuzzMaxInsns && len(body) >= fuzzInsnBytes; n++ {
		b := body[:fuzzInsnBytes]
		body = body[fuzzInsnBytes:]
		op := fuzzOpcodes[int(b[0])%len(fuzzOpcodes)]
		sv := binary.LittleEndian.Uint16(b[3:5])
		dv := binary.LittleEndian.Uint16(b[5:7])
		in := isa.Instruction{Op: op}
		switch {
		case op.IsJump():
			in.JumpOffset = int16(sv%64) - 32
		case op == isa.RETI:
		case op.IsOneOperand():
			in.Byte = b[1]&0x80 != 0 && op != isa.SWPB && op != isa.SXT && op != isa.CALL
			in.Src = operand(b[1]&15, b[2]&15, sv, false)
			if in.Src.Mode == isa.ModeImmediate && op != isa.PUSH && op != isa.CALL {
				in.Src = isa.RegOp(reg(b[2], false))
			}
			if op == isa.CALL && in.Src.Mode == isa.ModeImmediate {
				in.Src = isa.ImmExt(addr(sv &^ 0xC000))
			}
		default:
			in.Byte = b[1]&0x80 != 0
			in.Src = operand(b[1]&15, b[2]&15, sv, false)
			in.Dst = operand(b[1]>>4&7, b[2]>>4, dv, true)
		}
		if in.Validate() != nil {
			continue
		}
		emit(in)
	}
	emit(isa.Instruction{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(core.SimCtlAddr)})
	emit(isa.Instruction{Op: isa.JMP, JumpOffset: -1})
	handler := pc
	emit(isa.Instruction{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(15)})
	emit(isa.Instruction{Op: isa.RETI})
	words[0xFFF0] = handler
	words[0xFFFE] = org
	return words
}

// FuzzExecDifferential runs a fuzz-generated instruction stream on
// every registered defense, wired directly, once with every fast path
// on (blocks, the pure path, block-entry monitor events) and once
// under ForceSlowPaths, and requires the same cycles, instructions,
// registers, memory, bus errors, reset reasons, trip counters and run
// error. The committed corpus seeds a self-modifying store inside a
// loop's own block, a pure loop with interrupts on under a short timer
// period, and straight-line code running from PMEM into the secure ROM.
func FuzzExecDifferential(f *testing.F) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		words := fuzzProgram(data)
		for _, spec := range core.Defenses() {
			var states [2]machineState
			for i, slow := range []bool{false, true} {
				opts := core.MachineOptions{Config: p.Config(), Defense: spec}
				if spec.Instrumented {
					opts.ROM = p.ROM()
				}
				m, err := core.NewMachine(opts)
				if err != nil {
					t.Fatal(err)
				}
				for a, w := range words {
					if err := m.Space.LoadImage(a, []byte{byte(w), byte(w >> 8)}); err != nil {
						t.Fatal(err)
					}
				}
				m.EnablePredecode()
				if slow {
					m.ForceSlowPaths()
				}
				m.Boot()
				_, runErr := m.Run(fuzzBudget)
				states[i] = stateOf(m, runErr)
			}
			if !reflect.DeepEqual(states[0], states[1]) {
				t.Fatalf("defense=%s: fast and reference paths diverged:\nfast: %+v\nslow: %+v", spec.Name, states[0], states[1])
			}
		}
	})
}
