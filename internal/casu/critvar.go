package casu

import "eilid/internal/isa"

// CritVar is an OAT-style critical-variable monitor (Sun et al.,
// arXiv:1802.03462): EILID and shadow stacks attest *control flow*, but
// an adversary with a data write primitive can corrupt the decision
// variables a mission depends on without bending a single edge. OAT's
// answer is operation/data integrity: critical variables are registered
// with the attestor, and every value consumed at a use site must trace
// back to an attested store. This monitor is the hardware rendition of
// that idea: comparator watchpoints on the registered words.
//
// Mechanics: each watched word keeps an attested copy. CPU stores are
// on-bus — the hardware observes them — so they update the copy; at
// every instruction boundary the comparators check the live memory
// value against it. Inside a fused block only on-bus stores can change
// memory, and they keep every copy equal to its word, so one sweep at
// block entry (OnBlock) stands for the sweeps at its interior
// boundaries. A divergence means the variable was changed behind
// the monitored bus (DMA, a glitched write, the harness's
// arbitrary-write primitive standing in for the paper's memory
// vulnerability) and trips ViolationCritVar. The monitor watches no
// control flow at all: return-address smashes and code injection sail
// past it — the gap the defense × attack matrix is built to chart.
type CritVar struct {
	cfg CritVarConfig

	violation *Violation

	// attested mirrors cfg.Watch; known marks whether the copies have
	// been (re)snapshotted since the last Clear.
	attested []uint16
	known    bool

	// Trips counts violations since power-on.
	Trips map[ViolationKind]int
}

// CritVarConfig parameterizes the monitor.
type CritVarConfig struct {
	// Watch lists the registered decision variables (word-aligned DMEM
	// addresses).
	Watch []uint16
	// Peek reads a word of memory without bus side effects (the
	// comparators' private tap).
	Peek func(addr uint16) uint16
}

// NewCritVar creates an armed critical-variable monitor.
func NewCritVar(cfg CritVarConfig) *CritVar {
	return &CritVar{
		cfg:      cfg,
		attested: make([]uint16, len(cfg.Watch)),
		Trips:    map[ViolationKind]int{},
	}
}

// Violation implements Defense.
func (c *CritVar) Violation() *Violation { return c.violation }

// Clear implements Defense: re-arm after a device reset. The attested
// copies are resnapshotted at the next instruction boundary — the reset
// swept volatile memory, so the pre-reset values are gone by design.
func (c *CritVar) Clear() {
	c.violation = nil
	c.known = false
}

// PowerOn implements Defense (allocation-free: the recycle path runs
// per job).
func (c *CritVar) PowerOn() {
	c.Clear()
	clear(c.Trips)
}

// TripCounts implements Defense.
func (c *CritVar) TripCounts() map[ViolationKind]int { return c.Trips }

func (c *CritVar) trip(kind ViolationKind, pc, addr uint16) {
	c.Trips[kind]++
	if c.violation == nil {
		c.violation = &Violation{Kind: kind, PC: pc, Addr: addr}
	}
}

// OnFetch implements Defense: the comparator sweep. The first boundary
// after a reset snapshots; every later one verifies.
func (c *CritVar) OnFetch(prev, pc uint16) {
	if !c.known {
		for i, w := range c.cfg.Watch {
			c.attested[i] = c.cfg.Peek(w)
		}
		c.known = true
		return
	}
	for i, w := range c.cfg.Watch {
		if c.cfg.Peek(w) != c.attested[i] {
			c.trip(ViolationCritVar, pc, w)
			// Re-attest so a single tamper is reported once per reset
			// cycle rather than on every subsequent boundary.
			c.attested[i] = c.cfg.Peek(w)
		}
	}
}

// OnBlock implements cpu.BlockWatcher: one comparator sweep per block.
func (c *CritVar) OnBlock(prev, first, last uint16, _ isa.StackOp) {
	c.OnFetch(prev, first)
}

// OnRead implements Defense (reads carry no new information here).
func (c *CritVar) OnRead(pc, addr uint16, byteWide bool) {}

// OnWrite implements Defense: an on-bus CPU store to a watched word is
// an attested update — the hardware saw it issued — so the copy tracks
// it. (Provenance checking of the issuing PC is where full OAT goes
// next; the matrix only needs the bus/off-bus distinction.)
func (c *CritVar) OnWrite(pc, addr uint16, byteWide bool, value uint16) {
	if !c.known {
		return
	}
	w := addr &^ 1
	for i, watch := range c.cfg.Watch {
		if watch != w {
			continue
		}
		if !byteWide {
			c.attested[i] = value
		} else if addr&1 == 0 {
			c.attested[i] = c.attested[i]&0xFF00 | value&0x00FF
		} else {
			c.attested[i] = c.attested[i]&0x00FF | value<<8
		}
	}
}

// OnInterrupt implements Defense (context pushes are ordinary on-bus
// writes, already handled by OnWrite).
func (c *CritVar) OnInterrupt(pc uint16, line int) {}
