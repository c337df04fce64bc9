// Package cpu implements a cycle-accurate MSP430 CPU core on top of the
// instruction model in internal/isa. It executes the full classic
// instruction set (all three formats, all addressing modes, byte/word
// widths), services maskable interrupts with the architectural
// push-PC/push-SR/vector sequence, and accounts cycles per the TI table so
// that simulated run times correspond to what the paper measures in
// Vivado behavioural simulation.
//
// The core exposes a Watcher interface carrying the architectural signals
// (instruction fetch address, data reads/writes with the issuing PC,
// interrupt acceptance) that the CASU/EILID hardware monitor in
// internal/casu observes — the same bus- and PC-level signals the paper's
// Verilog monitor taps.
package cpu

import (
	"fmt"

	"eilid/internal/isa"
)

// Bus is the memory system the CPU drives (implemented by mem.Space).
type Bus interface {
	LoadWord(addr uint16) uint16
	StoreWord(addr uint16, v uint16)
	LoadByte(addr uint16) uint8
	StoreByte(addr uint16, v uint8)
}

// DirectBus is an optional Bus refinement (implemented by mem.Space)
// exposing the backing slab and per-address plain-memory flags so the
// core can inline accesses to plain RAM without an interface call. The
// fast path reproduces the bus semantics for such addresses exactly:
// word alignment, little-endian layout, and the live write hook. All
// other addresses (peripheral handlers, unmapped space with its
// bus-error accounting) go through the Bus methods unchanged.
type DirectBus interface {
	Bus
	Direct() (slab *[1 << 16]byte, plain *[1 << 16]bool, hook *func(addr uint16, n int))
}

// Watcher observes architectural events. Every method is called
// synchronously, from Step or from the block executor (RunBlocks), at
// the point of the event; a nil watcher disables observation. A plain
// Watcher sees one OnFetch per executed instruction on every path; a
// BlockWatcher trades the fetches inside fused blocks for one OnBlock
// per block.
type Watcher interface {
	// OnFetch fires before the instruction at pc executes; prev is the
	// address of the previously executed instruction (or the reset
	// vector target after reset).
	OnFetch(prev, pc uint16)
	// OnRead fires for each data-bus read issued by the instruction at pc.
	OnRead(pc, addr uint16, byteWide bool)
	// OnWrite fires for each data-bus write issued by the instruction at pc.
	OnWrite(pc, addr uint16, byteWide bool, value uint16)
	// OnInterrupt fires when an interrupt on the given line is accepted,
	// before the context push; pc is the interrupted instruction address.
	OnInterrupt(pc uint16, line int)
}

// BlockWatcher is a Watcher that declares a block-entry event. The block
// executor calls OnBlock in place of the OnFetch calls for a fused
// block's ops; OnRead, OnWrite and OnInterrupt still fire at every
// access and acceptance, and Step still calls OnFetch per instruction.
//
// OnBlock(prev, first, last, ender) announces that the straight-line
// ops from first through last are about to run, prev being the
// previously executed instruction and ender the stack-op class of the
// op at last (interior ops are always isa.StackOther). Every announced
// op retires unless a violation stops the machine or an op faults: when
// an earlier op could hand control back first (isa.Block.EarlyExit) and
// the final op is a call or a return, the executor announces the final
// op by itself, right before it runs. All announced ops lie in one
// memory region (see isa.Block). A pure block whose final op jumps back
// to its own first op re-runs in place and is announced once for all
// its trips: the trips touch no memory and only repeat an edge inside
// one region, so they can change no monitor's verdict.
type BlockWatcher interface {
	Watcher
	OnBlock(prev, first, last uint16, ender isa.StackOp)
}

// IRQSource supplies pending interrupt lines (implemented by
// periph.IRQController). Lower line numbers are lower priority; the reset
// line (15) is handled by the machine, not the CPU.
type IRQSource interface {
	// HighestPending returns the highest-priority pending maskable line,
	// or -1 if none.
	HighestPending() int
	// Acknowledge clears the pending flag for the line.
	Acknowledge(line int)
}

// ExecError reports a fault the real hardware would stumble through but a
// simulator must surface: undecodable opcodes or fetches that wrapped the
// address space.
type ExecError struct {
	PC  uint16
	Err error
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("cpu: fault at pc=0x%04x: %v", e.PC, e.Err)
}

func (e *ExecError) Unwrap() error { return e.Err }

// CPU is the processor state.
type CPU struct {
	R   [isa.NumRegs]uint16
	bus Bus

	// watch observes architectural events (may be nil); blockWatch is
	// the same watcher when it declares a block-entry event (see
	// SetWatcher).
	watch      Watcher
	blockWatch BlockWatcher
	// IRQ supplies maskable interrupt requests (may be nil).
	IRQ IRQSource

	// Cycles is total MCLK cycles since power-on (monotonic across
	// resets, like a bench clock).
	Cycles uint64
	// Insns counts executed instructions.
	Insns uint64
	// Interrupts counts accepted interrupts.
	Interrupts uint64

	prevPC uint16

	// pre is an optional shared read-only decode cache; preStart and
	// preEntries mirror its table so the warm-path lookup needs no
	// pointer chase through the cache object. dirty marks word addresses
	// whose predecoded entry may be stale because a bus write landed in
	// its fetch window (1 bit per word address, lazily built).
	pre        *isa.Predecoded
	preStart   uint16
	preEntries []isa.Entry
	dirty      []uint64

	// blkStart/blkTable mirror the installed basic-block table (see
	// isa.Blocks) so the block lookup needs no pointer chase. invGen
	// counts InvalidateCode calls: the block executor snapshots it and
	// re-checks its block's stale range when a write lands mid-block.
	// busTouched is set by every bus access that leaves the plain-RAM
	// fast path; the block executor clears it per block and ends the
	// block after any op that set it, handing control back to the
	// machine loop exactly where per-instruction dispatch would have
	// observed the side effect (peripheral state, halt, IRQ catch-up).
	blkStart   uint16
	blkTable   []isa.Block
	invGen     uint64
	busTouched bool

	// slab/plain/hook are the DirectBus fast path (nil on plain buses);
	// slowMode forces the generic interpreter and the interface bus path
	// for differential testing.
	slab     *[1 << 16]byte
	plain    *[1 << 16]bool
	hook     *func(addr uint16, n int)
	slowMode bool
}

// dirtyWords is the size of the stale bitmap: one bit per word address.
const dirtyWords = 1 << 15

// New creates a CPU attached to the bus. Call Reset before stepping.
func New(bus Bus) *CPU {
	c := &CPU{bus: bus}
	if d, ok := bus.(DirectBus); ok {
		c.slab, c.plain, c.hook = d.Direct()
	}
	return c
}

// SetWatcher installs (or, with nil, removes) the watcher observing
// architectural events. A watcher that also implements BlockWatcher
// receives one OnBlock per fused block instead of per-op OnFetch calls.
func (c *CPU) SetWatcher(w Watcher) {
	c.watch = w
	c.blockWatch, _ = w.(BlockWatcher)
}

// Watcher returns the installed watcher, or nil.
func (c *CPU) Watcher() Watcher { return c.watch }

// SetFastPaths enables (the default) or disables the warm-path
// threaded-code executors and the direct RAM access, reverting every
// hot-path shortcut to the generic interpreter driving the Bus
// interface. Execution is bit-identical either way; the differential
// tests in internal/core assert that.
func (c *CPU) SetFastPaths(on bool) { c.slowMode = !on }

// PC returns the program counter.
func (c *CPU) PC() uint16 { return c.R[isa.PC] }

// SP returns the stack pointer.
func (c *CPU) SP() uint16 { return c.R[isa.SP] }

// SR returns the status register.
func (c *CPU) SR() uint16 { return c.R[isa.SR] }

// PrevPC returns the address of the most recently executed instruction.
func (c *CPU) PrevPC() uint16 { return c.prevPC }

// SetPredecoded installs (or, with nil, removes) a decode cache built
// from the memory contents the CPU currently fetches from. The cache is
// read-only and may be shared across CPUs running identical code. Any
// previously recorded staleness is discarded: the caller asserts the
// cache matches memory at this instant.
func (c *CPU) SetPredecoded(p *isa.Predecoded) {
	c.pre = p
	c.preStart, c.preEntries = p.Table()
	c.dirty = nil
	// A block table is only valid against the cache it was fused from;
	// drop it until the caller re-pairs them.
	c.SetBlocks(nil)
}

// Predecoded returns the installed decode cache, if any.
func (c *CPU) Predecoded() *isa.Predecoded { return c.pre }

// SetBlocks installs (or, with nil, removes) a basic-block table fused
// from the installed decode cache (isa.BuildBlocks / Predecoded.Blocks).
// The caller asserts the table matches the installed cache; install the
// cache first, then its blocks.
func (c *CPU) SetBlocks(b *isa.Blocks) {
	c.blkStart, c.blkTable = b.Table()
}

// InvalidateCode records that the n bytes at addr were overwritten, so
// cached decodes whose fetch window covers them must re-decode live. An
// instruction starts at most four bytes before a word it consumes, so
// the two preceding word slots are staled along with the written range.
// It is safe (and cheap) to call for every bus write; mem.Space's
// WriteHook is wired to it by core.Machine.
//
// Writes that land entirely below the cached window are a no-op: cached
// entries exist only at pc >= the cache start, and no entry's fetch
// window reaches further back than four bytes before it, so ordinary
// DMEM stores — and the volatile-memory sweep a device reset performs —
// never touch the dirty bitmap or the block invalidation generation.
func (c *CPU) InvalidateCode(addr uint16, n int) {
	if c.pre == nil || n <= 0 {
		return
	}
	if (int(addr)+n-1)>>1 < int(c.preStart)>>1 {
		return
	}
	c.invGen++
	if c.dirty == nil {
		c.dirty = make([]uint64, dirtyWords/64)
	}
	w0 := int(addr)>>1 - 2
	w1 := (int(addr) + n - 1) >> 1
	for w := w0; w <= w1; w++ {
		i := w & (dirtyWords - 1)
		c.dirty[i>>6] |= 1 << (uint(i) & 63)
	}
}

// ResetCodeState discards all recorded predecode staleness and block
// invalidation state while keeping the installed (shared) decode cache
// and block table. The caller asserts that memory once again matches
// the cache exactly — the situation after mem.Space.Restore puts back
// the very image the cache was built from. The generation bump makes
// any stale in-flight block bookkeeping re-check rather than trust a
// pre-reset snapshot.
func (c *CPU) ResetCodeState() {
	c.invGen++
	c.dirty = nil
	c.busTouched = false
}

// PowerOn returns the CPU to its freshly constructed state: registers
// and the cycle/instruction/interrupt counters zeroed. Unlike Reset it
// models a power cycle, not the architectural reset sequence — the
// machine's Boot still performs that (and its 4-cycle latency) on top.
func (c *CPU) PowerOn() {
	c.R = [isa.NumRegs]uint16{}
	c.Cycles, c.Insns, c.Interrupts = 0, 0, 0
	c.prevPC = 0
}

// staleAt reports whether the predecoded entry at pc has been
// invalidated by a write.
func (c *CPU) staleAt(pc uint16) bool {
	if c.dirty == nil {
		return false
	}
	i := int(pc) >> 1
	return c.dirty[i>>6]&(1<<(uint(i)&63)) != 0
}

// Flag reports whether the given status flag is set.
func (c *CPU) Flag(f uint16) bool { return c.R[isa.SR]&f != 0 }

// Off reports whether the CPU is in a low-power mode (CPUOFF set).
func (c *CPU) Off() bool { return c.Flag(isa.FlagCPUOff) }

// Reset performs the power-up/reset sequence: clear registers, load PC
// from the reset vector. The 4-cycle reset latency models the openMSP430
// reset-release to first-fetch delay.
func (c *CPU) Reset(resetVector uint16) {
	for i := range c.R {
		c.R[i] = 0
	}
	c.R[isa.PC] = c.bus.LoadWord(resetVector)
	c.prevPC = c.R[isa.PC]
	c.Cycles += 4
}

// --- bus helpers with watch notification -------------------------------

func (c *CPU) loadWord(pc, addr uint16) uint16 {
	if c.watch != nil {
		c.watch.OnRead(pc, addr, false)
	}
	if a := addr &^ 1; c.slab != nil && !c.slowMode && c.plain[a] {
		return uint16(c.slab[a]) | uint16(c.slab[a+1])<<8
	}
	c.busTouched = true
	return c.bus.LoadWord(addr)
}

func (c *CPU) storeWord(pc, addr, v uint16) {
	if c.watch != nil {
		c.watch.OnWrite(pc, addr, false, v)
	}
	if a := addr &^ 1; c.slab != nil && !c.slowMode && c.plain[a] {
		c.slab[a] = byte(v)
		c.slab[a+1] = byte(v >> 8)
		if h := *c.hook; h != nil {
			h(a, 2)
		}
		return
	}
	c.busTouched = true
	c.bus.StoreWord(addr, v)
}

func (c *CPU) loadByte(pc, addr uint16) uint8 {
	if c.watch != nil {
		c.watch.OnRead(pc, addr, true)
	}
	if c.slab != nil && !c.slowMode && c.plain[addr] {
		return c.slab[addr]
	}
	c.busTouched = true
	return c.bus.LoadByte(addr)
}

func (c *CPU) storeByte(pc, addr uint16, v uint8) {
	if c.watch != nil {
		c.watch.OnWrite(pc, addr, true, uint16(v))
	}
	if c.slab != nil && !c.slowMode && c.plain[addr] {
		c.slab[addr] = v
		if h := *c.hook; h != nil {
			h(addr, 1)
		}
		return
	}
	c.busTouched = true
	c.bus.StoreByte(addr, v)
}

// push stores v at --SP.
func (c *CPU) push(pc, v uint16) {
	c.R[isa.SP] -= 2
	c.storeWord(pc, c.R[isa.SP], v)
}

// --- interrupt service --------------------------------------------------

// serviceInterrupt performs the architectural interrupt sequence for the
// given line: push PC, push SR, clear SR (drops GIE and wakes CPUOFF),
// load PC from the vector.
func (c *CPU) serviceInterrupt(line int, vectorAddr uint16) {
	pc := c.R[isa.PC]
	if c.watch != nil {
		c.watch.OnInterrupt(pc, line)
	}
	c.push(pc, c.R[isa.PC])
	c.push(pc, c.R[isa.SR])
	c.R[isa.SR] = 0
	c.R[isa.PC] = c.loadWord(pc, vectorAddr)
	c.Cycles += isa.CyclesInterruptEntry
	c.Interrupts++
	if c.IRQ != nil {
		c.IRQ.Acknowledge(line)
	}
}

// VectorBase is the bottom of the interrupt vector table.
const VectorBase = 0xFFE0

// Step executes one instruction (or services one interrupt, or idles one
// cycle in a low-power mode) and returns the cycles consumed.
func (c *CPU) Step() (int, error) {
	start := c.Cycles

	// Interrupt acceptance happens between instructions when GIE is set.
	if c.IRQ != nil && c.Flag(isa.FlagGIE) {
		if line := c.IRQ.HighestPending(); line >= 0 {
			c.serviceInterrupt(line, VectorBase+uint16(line)*2)
			return int(c.Cycles - start), nil
		}
	}

	// Low-power mode: the core clock idles until an interrupt wakes it.
	if c.Off() {
		c.Cycles++
		return 1, nil
	}

	pc := c.R[isa.PC]
	if c.watch != nil {
		c.watch.OnFetch(c.prevPC, pc)
	}

	// Warm path: a predecoded entry that no write has touched skips the
	// speculative fetch and the decoder entirely; its threaded-code
	// lowering additionally skips the format switch and operand
	// resolution.
	if i := int(pc-c.preStart) >> 1; pc&1 == 0 && pc >= c.preStart && i < len(c.preEntries) {
		if e := &c.preEntries[i]; e.OK && !c.staleAt(pc) {
			c.R[isa.PC] = pc + e.Size
			c.prevPC = pc
			var err error
			if e.Fast && !c.slowMode {
				err = c.execUOp(pc, &e.U)
			} else {
				err = c.execute(pc, e.In)
			}
			if err != nil {
				return 0, &ExecError{PC: pc, Err: err}
			}
			c.Cycles += uint64(e.Cycles)
			c.Insns++
			return int(c.Cycles - start), nil
		}
	}

	// Fetch up to the maximum instruction length. Instruction fetches are
	// not reported through OnRead: the monitor sees them via OnFetch.
	words := [3]uint16{
		c.bus.LoadWord(pc),
		c.bus.LoadWord(pc + 2),
		c.bus.LoadWord(pc + 4),
	}
	in, _, err := isa.Decode(words[:])
	if err != nil {
		return 0, &ExecError{PC: pc, Err: err}
	}
	size := in.Size()
	c.R[isa.PC] = pc + size
	c.prevPC = pc

	if err := c.execute(pc, in); err != nil {
		return 0, &ExecError{PC: pc, Err: err}
	}
	c.Cycles += uint64(isa.Cycles(in))
	c.Insns++
	return int(c.Cycles - start), nil
}

// --- operand access -----------------------------------------------------

// operand location: either a register or a memory effective address.
type loc struct {
	isReg bool
	reg   isa.Reg
	ea    uint16
}

// resolve computes the location of an operand and performs any
// auto-increment side effect. pc is the instruction address; extAddr the
// address of the operand's extension word (for symbolic mode).
func (c *CPU) resolve(pc uint16, o isa.Operand, extAddr uint16, byteOp bool) loc {
	switch o.Mode {
	case isa.ModeRegister:
		return loc{isReg: true, reg: o.Reg}
	case isa.ModeIndexed:
		return loc{ea: c.R[o.Reg] + o.X}
	case isa.ModeSymbolic:
		return loc{ea: extAddr + o.X}
	case isa.ModeAbsolute:
		return loc{ea: o.X}
	case isa.ModeIndirect:
		return loc{ea: c.R[o.Reg]}
	case isa.ModeIndirectInc:
		ea := c.R[o.Reg]
		step := uint16(2)
		if byteOp {
			step = 1
		}
		c.R[o.Reg] = ea + step
		return loc{ea: ea}
	}
	// Immediate has no location; callers special-case it.
	return loc{}
}

// readLoc reads the operand value at l.
func (c *CPU) readLoc(pc uint16, l loc, byteOp bool) uint16 {
	if l.isReg {
		v := c.R[l.reg]
		if l.reg == isa.PC {
			// Register-mode PC reads observe the incremented PC
			// (address after the opcode word), as on real silicon.
			v = pc + 2
		}
		if byteOp {
			v &= 0x00FF
		}
		return v
	}
	if byteOp {
		return uint16(c.loadByte(pc, l.ea))
	}
	return c.loadWord(pc, l.ea)
}

// writeLoc writes v to the operand location. Byte writes to registers
// clear the upper byte (architectural rule).
func (c *CPU) writeLoc(pc uint16, l loc, byteOp bool, v uint16) {
	if l.isReg {
		if byteOp {
			v &= 0x00FF
		}
		if l.reg == isa.SP {
			v &^= 1 // SP is word-aligned in hardware
		}
		c.R[l.reg] = v
		return
	}
	if byteOp {
		c.storeByte(pc, l.ea, uint8(v))
		return
	}
	c.storeWord(pc, l.ea, v)
}

// srcValue evaluates the source operand (handling immediates) and returns
// its value.
func (c *CPU) srcValue(pc uint16, in isa.Instruction) uint16 {
	if in.Src.Mode == isa.ModeImmediate {
		v := in.Src.X
		if in.Byte {
			v &= 0x00FF
		}
		return v
	}
	srcOff, srcHas, _, _ := in.ExtOffsets()
	extAddr := pc
	if srcHas {
		extAddr = pc + uint16(srcOff)
	}
	l := c.resolve(pc, in.Src, extAddr, in.Byte)
	return c.readLoc(pc, l, in.Byte)
}

// dstLoc resolves the destination operand location.
func (c *CPU) dstLoc(pc uint16, in isa.Instruction) loc {
	_, _, dstOff, dstHas := in.ExtOffsets()
	extAddr := pc
	if dstHas {
		extAddr = pc + uint16(dstOff)
	}
	return c.resolve(pc, in.Dst, extAddr, in.Byte)
}

// --- flag computation ---------------------------------------------------

func (c *CPU) setFlags(set, clear uint16) {
	c.R[isa.SR] = c.R[isa.SR]&^clear | set
}

// nz computes N and Z for a result of the operation width.
func nz(r uint16, byteOp bool) uint16 {
	var f uint16
	mask, sign := width(byteOp)
	if r&mask == 0 {
		f |= isa.FlagZ
	}
	if r&sign != 0 {
		f |= isa.FlagN
	}
	return f
}

func width(byteOp bool) (mask, sign uint16) {
	if byteOp {
		return 0x00FF, 0x0080
	}
	return 0xFFFF, 0x8000
}

// addFlags computes C,Z,N,V for dst+src+carryIn at the given width, and
// the result.
func addFlags(src, dst uint16, carryIn uint16, byteOp bool) (r uint16, f uint16) {
	if !byteOp {
		return addFlagsW(src, dst, carryIn)
	}
	mask, sign := width(byteOp)
	src &= mask
	dst &= mask
	full := uint32(src) + uint32(dst) + uint32(carryIn)
	r = uint16(full) & mask
	f = nz(r, byteOp)
	if full > uint32(mask) {
		f |= isa.FlagC
	}
	if (src&sign) == (dst&sign) && (r&sign) != (src&sign) {
		f |= isa.FlagV
	}
	return r, f
}

// addFlagsW is addFlags specialized to word width with branchless flag
// assembly — the shape the register-destination hot path executes. Bit
// positions: C=1<<0 (carry out of bit 15), Z=1<<1, N=1<<2 (bit 15
// shifted down), V=1<<8 (equal operand signs, differing result sign).
func addFlagsW(src, dst, carryIn uint16) (r uint16, f uint16) {
	full := uint32(src) + uint32(dst) + uint32(carryIn)
	r = uint16(full)
	f = uint16(full>>16) |
		uint16((uint32(r)-1)>>31)<<1 |
		r>>13&isa.FlagN |
		(^(src^dst)&(src^r))>>7&isa.FlagV
	return r, f
}

// nzW is nz specialized to word width, branchless.
func nzW(r uint16) uint16 {
	return uint16((uint32(r)-1)>>31)<<1 | r>>13&isa.FlagN
}

// dadd performs one BCD addition at the given width.
func dadd(src, dst uint16, carryIn uint16, byteOp bool) (r uint16, f uint16) {
	digits := 4
	if byteOp {
		digits = 2
	}
	carry := carryIn
	var out uint16
	for i := 0; i < digits; i++ {
		d := (src>>(4*i))&0xF + (dst>>(4*i))&0xF + carry
		carry = 0
		if d > 9 {
			d -= 10
			carry = 1
		}
		out |= d << (4 * i)
	}
	f = nz(out, byteOp)
	if carry != 0 {
		f |= isa.FlagC
	}
	return out, f
}

// --- execution ----------------------------------------------------------

// allFlags is the set of arithmetic flags instructions may update.
const allFlags = isa.FlagC | isa.FlagZ | isa.FlagN | isa.FlagV

func (c *CPU) execute(pc uint16, in isa.Instruction) error {
	switch {
	case in.Op.IsJump():
		return c.execJump(pc, in)
	case in.Op == isa.RETI:
		sp := c.R[isa.SP]
		c.R[isa.SR] = c.loadWord(pc, sp)
		c.R[isa.PC] = c.loadWord(pc, sp+2)
		c.R[isa.SP] = sp + 4
		return nil
	case in.Op.IsOneOperand():
		return c.execFormat2(pc, in)
	default:
		return c.execFormat1(pc, in)
	}
}

// jumpTaken evaluates a format III condition against the status register.
func (c *CPU) jumpTaken(op isa.Opcode) bool {
	sr := c.R[isa.SR]
	cf, zf, nf, vf := sr&isa.FlagC != 0, sr&isa.FlagZ != 0, sr&isa.FlagN != 0, sr&isa.FlagV != 0
	switch op {
	case isa.JNE:
		return !zf
	case isa.JEQ:
		return zf
	case isa.JNC:
		return !cf
	case isa.JC:
		return cf
	case isa.JN:
		return nf
	case isa.JGE:
		return nf == vf
	case isa.JL:
		return nf != vf
	}
	return true // JMP
}

func (c *CPU) execJump(pc uint16, in isa.Instruction) error {
	if c.jumpTaken(in.Op) {
		c.R[isa.PC] = pc + 2 + 2*uint16(in.JumpOffset)
	}
	return nil
}

func (c *CPU) execFormat2(pc uint16, in isa.Instruction) error {
	// PUSH/CALL accept immediates; the others operate in place.
	if in.Src.Mode == isa.ModeImmediate {
		v := c.srcValue(pc, in)
		switch in.Op {
		case isa.PUSH:
			if in.Byte {
				c.R[isa.SP] -= 2
				c.storeByte(pc, c.R[isa.SP], uint8(v))
			} else {
				c.push(pc, v)
			}
			return nil
		case isa.CALL:
			c.push(pc, c.R[isa.PC]) // return address: next instruction
			c.R[isa.PC] = v
			return nil
		}
		return fmt.Errorf("immediate operand for %v", in.Op)
	}

	srcOff, srcHas, _, _ := in.ExtOffsets()
	extAddr := pc
	if srcHas {
		extAddr = pc + uint16(srcOff)
	}
	l := c.resolve(pc, in.Src, extAddr, in.Byte)
	return c.doFormat2(pc, in.Op, in.Byte, l)
}

// doFormat2 executes a single-operand instruction on a resolved
// location — the tail shared by the generic interpreter and the
// threaded-code path.
func (c *CPU) doFormat2(pc uint16, op isa.Opcode, byteOp bool, l loc) error {
	v := c.readLoc(pc, l, byteOp)
	_, sign := width(byteOp)

	switch op {
	case isa.RRC:
		carryIn := uint16(0)
		if c.Flag(isa.FlagC) {
			carryIn = sign
		}
		r := v>>1 | carryIn
		f := nz(r, byteOp)
		if v&1 != 0 {
			f |= isa.FlagC
		}
		c.writeLoc(pc, l, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.RRA:
		r := v>>1 | v&sign
		f := nz(r, byteOp)
		if v&1 != 0 {
			f |= isa.FlagC
		}
		c.writeLoc(pc, l, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.SWPB:
		c.writeLoc(pc, l, false, v>>8|v<<8)
	case isa.SXT:
		r := v & 0x00FF
		if r&0x0080 != 0 {
			r |= 0xFF00
		}
		f := nz(r, false)
		if r != 0 {
			f |= isa.FlagC
		}
		c.writeLoc(pc, l, false, r)
		c.setFlags(f, allFlags)
	case isa.PUSH:
		if byteOp {
			c.R[isa.SP] -= 2
			c.storeByte(pc, c.R[isa.SP], uint8(v))
		} else {
			c.push(pc, v)
		}
	case isa.CALL:
		c.push(pc, c.R[isa.PC])
		c.R[isa.PC] = v
	default:
		return fmt.Errorf("unhandled format II opcode %v", op)
	}
	return nil
}

func (c *CPU) execFormat1(pc uint16, in isa.Instruction) error {
	src := c.srcValue(pc, in)
	dl := c.dstLoc(pc, in)
	return c.doFormat1(pc, in.Op, in.Byte, src, dl)
}

// doFormat1 executes a double-operand instruction given the evaluated
// source and the resolved destination — the tail shared by the generic
// interpreter and the threaded-code path.
func (c *CPU) doFormat1(pc uint16, op isa.Opcode, byteOp bool, src uint16, dl loc) error {
	// MOV/BIC/BIS don't need the old destination value for flags, but
	// BIC/BIS need it for the operation itself.
	var dst uint16
	if op != isa.MOV {
		dst = c.readLoc(pc, dl, byteOp)
	}
	mask, sign := width(byteOp)
	carry := uint16(0)
	if c.Flag(isa.FlagC) {
		carry = 1
	}

	switch op {
	case isa.MOV:
		c.writeLoc(pc, dl, byteOp, src)
	case isa.ADD:
		r, f := addFlags(src, dst, 0, byteOp)
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.ADDC:
		r, f := addFlags(src, dst, carry, byteOp)
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.SUB:
		r, f := addFlags(^src&mask, dst, 1, byteOp)
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.SUBC:
		r, f := addFlags(^src&mask, dst, carry, byteOp)
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.CMP:
		_, f := addFlags(^src&mask, dst, 1, byteOp)
		c.setFlags(f, allFlags)
	case isa.DADD:
		// V is architecturally undefined after DADD; we clear it.
		r, f := dadd(src, dst, carry, byteOp)
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.BIT:
		r := src & dst & mask
		f := nz(r, byteOp)
		if r != 0 {
			f |= isa.FlagC
		}
		c.setFlags(f, allFlags)
	case isa.BIC:
		c.writeLoc(pc, dl, byteOp, dst&^src)
	case isa.BIS:
		c.writeLoc(pc, dl, byteOp, dst|src)
	case isa.XOR:
		r := (src ^ dst) & mask
		f := nz(r, byteOp)
		if r != 0 {
			f |= isa.FlagC
		}
		if src&sign != 0 && dst&sign != 0 {
			f |= isa.FlagV
		}
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.AND:
		r := src & dst & mask
		f := nz(r, byteOp)
		if r != 0 {
			f |= isa.FlagC
		}
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	default:
		return fmt.Errorf("unhandled format I opcode %v", op)
	}
	return nil
}

// --- threaded-code execution --------------------------------------------

// execUOp executes one predecoded micro-op. The operand shapes were
// lowered at predecode time (isa.LowerUOp), so no format switch,
// extension-word arithmetic or addressing-mode resolution happens here;
// the op bodies and every bus/watcher interaction are shared with the
// generic interpreter, keeping the two paths bit-identical.
func (c *CPU) execUOp(pc uint16, u *isa.UOp) error {
	switch u.Class {
	case isa.UFmt1Reg:
		return c.execFmt1Reg(u, c.uSrc(pc, u))
	case isa.UJump:
		if c.jumpTaken(u.Op) {
			c.R[isa.PC] = u.Target
		}
		return nil
	case isa.UReti:
		sp := c.R[isa.SP]
		c.R[isa.SR] = c.loadWord(pc, sp)
		c.R[isa.PC] = c.loadWord(pc, sp+2)
		c.R[isa.SP] = sp + 4
		return nil
	case isa.UFmt2:
		if u.SrcK == isa.SrcConst {
			// Lowering only emits constants for PUSH and CALL (the ops
			// whose immediate form is architecturally valid).
			v := u.SrcVal
			if u.Op == isa.PUSH {
				if u.Byte {
					c.R[isa.SP] -= 2
					c.storeByte(pc, c.R[isa.SP], uint8(v))
				} else {
					c.push(pc, v)
				}
				return nil
			}
			c.push(pc, c.R[isa.PC])
			c.R[isa.PC] = v
			return nil
		}
		return c.doFormat2(pc, u.Op, u.Byte, c.uLoc(u.SrcK, u.SrcReg, u.SrcVal, u.Inc))
	}
	src := c.uSrc(pc, u)
	var dl loc
	switch u.DstK {
	case isa.DstRegK:
		dl = loc{isReg: true, reg: u.DstReg}
	case isa.DstMemConst:
		dl = loc{ea: u.DstVal}
	default: // DstMemReg
		dl = loc{ea: c.R[u.DstReg] + u.DstVal}
	}
	return c.doFormat1(pc, u.Op, u.Byte, src, dl)
}

// uSrc evaluates a lowered source operand, performing any
// auto-increment side effect.
func (c *CPU) uSrc(pc uint16, u *isa.UOp) uint16 {
	switch u.SrcK {
	case isa.SrcConst:
		return u.SrcVal // pre-masked at lowering time
	case isa.SrcReg:
		v := c.R[u.SrcReg]
		if u.Byte {
			v &= 0x00FF
		}
		return v
	case isa.SrcMemConst:
		if u.Byte {
			return uint16(c.loadByte(pc, u.SrcVal))
		}
		return c.loadWord(pc, u.SrcVal)
	case isa.SrcMemReg:
		ea := c.R[u.SrcReg] + u.SrcVal
		if u.Byte {
			return uint16(c.loadByte(pc, ea))
		}
		return c.loadWord(pc, ea)
	default: // SrcMemRegInc
		ea := c.R[u.SrcReg]
		c.R[u.SrcReg] = ea + u.Inc
		if u.Byte {
			return uint16(c.loadByte(pc, ea))
		}
		return c.loadWord(pc, ea)
	}
}

// uLoc resolves a lowered source operand to a location (format II
// in-place ops), performing any auto-increment side effect.
func (c *CPU) uLoc(kind uint8, reg isa.Reg, val, inc uint16) loc {
	switch kind {
	case isa.SrcReg:
		return loc{isReg: true, reg: reg}
	case isa.SrcMemConst:
		return loc{ea: val}
	case isa.SrcMemReg:
		return loc{ea: c.R[reg] + val}
	default: // SrcMemRegInc
		ea := c.R[reg]
		c.R[reg] = ea + inc
		return loc{ea: ea}
	}
}

// --- basic-block execution ---------------------------------------------

// staleRange reports whether any dirty bit is set in the word-index
// range [w0, w1] — the block-granular form of staleAt.
func (c *CPU) staleRange(w0, w1 uint16) bool {
	d := c.dirty
	if d == nil {
		return false
	}
	i0, i1 := int(w0)>>6, int(w1)>>6
	lo := ^uint64(0) << (w0 & 63)
	hi := ^uint64(0) >> (63 - w1&63)
	if i0 == i1 {
		return d[i0]&lo&hi != 0
	}
	if d[i0]&lo != 0 {
		return true
	}
	for i := i0 + 1; i < i1; i++ {
		if d[i] != 0 {
			return true
		}
	}
	return d[i1]&hi != 0
}

// RunBlocks executes whole predecoded basic blocks back to back while
// the next block's precomputed cycle total fits under limit, servicing
// nothing in between: the machine loop guarantees no peripheral acts
// before limit, and every way the world can change mid-block hands
// control back here bit-exactly —
//
//   - an op whose bus access leaves plain RAM (peripheral register,
//     unmapped space) ends its block after that op, so halts, handler
//     catch-up and newly raised interrupts are observed exactly where
//     per-instruction dispatch would observe them;
//   - a write landing in the block's own fetch window (self-modifying
//     code) ends the block before the next op re-fetches, via the same
//     dirty map that guards individual predecoded entries;
//   - stop, when non-nil, is polled after every op on the guarded
//     path (the machine's monitor-violation check) and true ends
//     execution there; a block whose entry event tripped it runs its
//     first op on the guarded path, exactly as per-instruction
//     dispatch executes the instruction whose fetch tripped.
//
// The pending-interrupt poll runs once per block, at entry. Nothing
// inside a block can change what it returns: interior ops never write
// SR, a block never leaves the memory region (and so the interrupt-gate
// state) of its first op, and only peripherals raise requests — at a
// deadline, which admission keeps beyond the block, or on a register
// access, which already ends the block.
//
// A watcher sees one OnFetch per op, or, when it is a BlockWatcher, one
// OnBlock per block. Pure blocks take the unguarded path whenever no
// watcher needs per-op fetches and the block-entry event raised no
// violation: their ops touch no memory, so no monitor can trip inside
// them.
//
// Interrupt service, low-power idling and non-fused instructions are
// never handled here; the caller falls back to Step. Returns whether
// at least one instruction executed, the cycle count observed before
// the last executed instruction (the machine's violation re-sync
// anchor), and any execution fault.
func (c *CPU) RunBlocks(limit uint64, stop func() bool) (executed bool, lastPre uint64, err error) {
	if c.blkTable == nil || c.slowMode {
		return false, 0, nil
	}
	bw := c.blockWatch
	perOp := bw == nil && c.watch != nil
	for {
		sr := c.R[isa.SR]
		if sr&isa.FlagCPUOff != 0 {
			return
		}
		if c.IRQ != nil && sr&isa.FlagGIE != 0 && c.IRQ.HighestPending() >= 0 {
			return
		}
		pc := c.R[isa.PC]
		if pc&1 != 0 || pc < c.blkStart {
			return
		}
		i := int(pc-c.blkStart) >> 1
		if i >= len(c.blkTable) {
			return
		}
		b := &c.blkTable[i]
		ops := b.Ops
		if ops == nil {
			return
		}
		// Admission: entry + total <= limit implies every op starts
		// strictly below limit, exactly the per-instruction rule.
		if c.Cycles+uint64(b.Cycles) > limit {
			return
		}
		if c.staleRange(b.W0, b.W1) {
			return
		}
		n := len(ops)
		// split announces a call or return ender on its own, once the ops
		// before it have retired (see BlockWatcher).
		split := false
		if bw != nil {
			if b.EarlyExit && b.Ender.Class != isa.StackOther {
				split = true
				bw.OnBlock(c.prevPC, pc, ops[n-2].PC, isa.StackOp{})
			} else {
				bw.OnBlock(c.prevPC, pc, ops[n-1].PC, b.Ender)
			}
		}

		if b.Pure && !perOp && (stop == nil || !stop()) {
			// Pure blocks touch no memory: nothing observes PC, cycles,
			// SR or prevPC mid-block, so account in bulk, elide dead
			// flag results, and execute the hot op shapes inline. No
			// pure op reads c.R[PC] (register-mode PC reads were folded
			// at predecode time), so the PC needs writing once, before
			// the final op executes. A block whose terminating jump
			// lands back on its own first op re-runs in place: pure ops
			// cannot change SR system bits, interrupt visibility or
			// code memory, so only the deadline admission needs
			// re-checking per trip.
			for {
				c.R[isa.PC] = ops[n-1].Next
				for k := range ops {
					op := &ops[k]
					u := op.U
					switch u.Class {
					case isa.UFmt1Reg:
						src := u.SrcVal
						if u.SrcK == isa.SrcReg {
							src = c.R[u.SrcReg]
						}
						if op.Flags {
							if e := c.execFmt1Reg(u, src); e != nil {
								return c.blockFault(b, k, executed, lastPre, e)
							}
						} else {
							// The hottest dead-flag ops inline; the
							// rest share the out-of-line twin.
							switch u.Op {
							case isa.MOV:
								c.R[u.DstReg] = src
							case isa.ADD:
								c.R[u.DstReg] += src
							case isa.SUB:
								c.R[u.DstReg] -= src
							case isa.XOR:
								c.R[u.DstReg] ^= src
							case isa.AND:
								c.R[u.DstReg] &= src
							case isa.BIS:
								c.R[u.DstReg] |= src
							case isa.BIC:
								c.R[u.DstReg] &^= src
							default:
								c.fmt1RegDeadFlags(u, src)
							}
						}
					case isa.UJump:
						if c.jumpTaken(u.Op) {
							c.R[isa.PC] = u.Target
						}
					default:
						if e := c.execUOp(op.PC, u); e != nil {
							return c.blockFault(b, k, executed, lastPre, e)
						}
					}
				}
				c.Cycles += uint64(b.Cycles)
				c.Insns += uint64(n)
				executed = true
				if c.R[isa.PC] != pc || c.Cycles+uint64(b.Cycles) > limit {
					break
				}
			}
			c.prevPC = ops[n-1].PC
			continue
		}

		g0 := c.invGen
		c.busTouched = false
		for k := range ops {
			op := &ops[k]
			lastPre = c.Cycles
			if perOp {
				c.watch.OnFetch(c.prevPC, op.PC)
			} else if split && k == n-1 {
				bw.OnBlock(c.prevPC, op.PC, op.PC, b.Ender)
			}
			c.R[isa.PC] = op.Next
			c.prevPC = op.PC
			if e := c.execUOp(op.PC, op.U); e != nil {
				return executed, lastPre, &ExecError{PC: op.PC, Err: e}
			}
			c.Cycles += uint64(op.Cycles)
			c.Insns++
			executed = true
			if c.busTouched {
				return
			}
			if c.invGen != g0 {
				if c.staleRange(b.W0, b.W1) {
					return
				}
				g0 = c.invGen
			}
			if stop != nil && stop() {
				return
			}
		}
	}
}

// blockFault finalizes state when a fused op faults — unreachable for
// lowered ops in practice, kept for parity with Step: completed ops of
// the current trip stay accounted, the faulting op consumes nothing,
// and PC/prevPC are left exactly as Step would leave them. (Flag
// results elided as dead earlier in a pure block are not recomputed;
// they are only provably dead on the fault-free path.)
func (c *CPU) blockFault(b *isa.Block, k int, executed bool, lastPre uint64, e error) (bool, uint64, error) {
	for j := 0; j < k; j++ {
		c.Cycles += uint64(b.Ops[j].Cycles)
	}
	c.Insns += uint64(k)
	op := &b.Ops[k]
	c.R[isa.PC] = op.Next
	c.prevPC = op.PC
	return executed || k > 0, lastPre, &ExecError{PC: op.PC, Err: e}
}

// fmt1RegDeadFlags executes the register-destination micro-ops the
// pure block loop does not inline — the carry-consuming and flag-only
// shapes — when their flag results were proven dead within the block:
// the register effects of execFmt1Reg without the SR computation.
func (c *CPU) fmt1RegDeadFlags(u *isa.UOp, src uint16) {
	d := &c.R[u.DstReg]
	switch u.Op {
	case isa.ADDC:
		*d += src + c.R[isa.SR]&isa.FlagC
	case isa.SUBC:
		*d += ^src + c.R[isa.SR]&isa.FlagC
	case isa.DADD:
		r, _ := dadd(src, *d, c.R[isa.SR]&isa.FlagC, false)
		*d = r
	case isa.CMP, isa.BIT:
		// Flag-only ops whose flags are dead: no architectural effect.
	}
}

// execFmt1Reg executes a word-width double-operand micro-op whose
// destination is a plain general-purpose register (R4..R15) with the
// location indirection stripped and the source already evaluated. The
// op semantics mirror doFormat1 for word width exactly (mask 0xFFFF,
// sign 0x8000).
func (c *CPU) execFmt1Reg(u *isa.UOp, src uint16) error {
	d := &c.R[u.DstReg]
	dst := *d
	carry := c.R[isa.SR] & isa.FlagC // 0 or 1: FlagC is bit 0
	switch u.Op {
	case isa.MOV:
		*d = src
	case isa.ADD:
		r, f := addFlagsW(src, dst, 0)
		*d = r
		c.setFlags(f, allFlags)
	case isa.ADDC:
		r, f := addFlagsW(src, dst, carry)
		*d = r
		c.setFlags(f, allFlags)
	case isa.SUB:
		r, f := addFlagsW(^src, dst, 1)
		*d = r
		c.setFlags(f, allFlags)
	case isa.SUBC:
		r, f := addFlagsW(^src, dst, carry)
		*d = r
		c.setFlags(f, allFlags)
	case isa.CMP:
		_, f := addFlagsW(^src, dst, 1)
		c.setFlags(f, allFlags)
	case isa.DADD:
		r, f := dadd(src, dst, carry, false)
		*d = r
		c.setFlags(f, allFlags)
	case isa.BIT:
		r := src & dst
		f := nzW(r)
		if r != 0 {
			f |= isa.FlagC
		}
		c.setFlags(f, allFlags)
	case isa.BIC:
		*d = dst &^ src
	case isa.BIS:
		*d = dst | src
	case isa.XOR:
		r := src ^ dst
		f := nzW(r)
		if r != 0 {
			f |= isa.FlagC
		}
		if src&0x8000 != 0 && dst&0x8000 != 0 {
			f |= isa.FlagV
		}
		*d = r
		c.setFlags(f, allFlags)
	case isa.AND:
		r := src & dst
		f := nzW(r)
		if r != 0 {
			f |= isa.FlagC
		}
		*d = r
		c.setFlags(f, allFlags)
	default:
		return fmt.Errorf("unhandled format I opcode %v", u.Op)
	}
	return nil
}
