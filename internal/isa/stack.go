package isa

// StackClass classifies an instruction by what it does to the call
// stack, as a hardware shadow stack watching the fetch stream sees it.
type StackClass uint8

const (
	// StackOther is every instruction that neither calls nor returns.
	StackOther StackClass = iota
	// StackCall is CALL: it records a return address.
	StackCall
	// StackRet is the MSP430 emulated return, `mov @sp+, pc`.
	StackRet
	// StackReti is the return from interrupt.
	StackReti
)

// StackOp is a classified instruction: its class plus, for a call, the
// return address it records (the address just past the call).
type StackOp struct {
	Class StackClass
	RA    uint16
}

// ClassifyStack classifies in, decoded at the fetch address pc. The
// block table (Block.Ender) and a shadow stack's per-instruction path
// share this one classifier, so both see the same call/return events.
func ClassifyStack(pc uint16, in Instruction) StackOp {
	switch {
	case in.Op == CALL:
		return StackOp{Class: StackCall, RA: pc + in.Size()}
	case in.Op == RETI:
		return StackOp{Class: StackReti}
	case in.Op == MOV && !in.Byte &&
		in.Src.Mode == ModeIndirectInc && in.Src.Reg == SP &&
		in.Dst.Mode == ModeRegister && in.Dst.Reg == PC:
		return StackOp{Class: StackRet}
	}
	return StackOp{}
}
