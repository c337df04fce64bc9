package isa

import "sync"

// Entry caches one successful decode at a fixed fetch address: the
// raised Instruction (the generic interpreter's input), its
// threaded-code lowering (the fast interpreter's input, valid when Fast
// is set), and the size/cycle figures both share. Entries are read-only
// after construction; callers must not mutate them.
type Entry struct {
	In     Instruction
	U      UOp
	Size   uint16
	Cycles uint16
	OK     bool
	Fast   bool
}

// Predecoded is an immutable decode cache for a fixed code image: every
// even address in its window is decoded once, up front, so the CPU core
// can skip both the speculative three-word fetch and Decode on warm
// paths. Each cached decode also carries its threaded-code lowering
// (see UOp), so the warm path skips the per-step format switch and
// operand resolution too. A Predecoded is read-only after construction
// and therefore safe to share between any number of machines running
// byte-identical code — the per-ROM artifact the fleet runner builds
// once per application.
//
// Staleness is the caller's problem: the CPU core pairs a shared
// Predecoded with a per-machine dirty map (see cpu.CPU.InvalidateCode)
// so that writes observed on the bus force a live re-decode.
type Predecoded struct {
	start   uint16
	entries []Entry
	// regions[i] is the memory region of fetch address start + 2*i (nil:
	// one region); BuildBlocks ends every block at a region boundary.
	regions []int8

	// blkOnce/blk lazily build the basic-block table fused from the
	// entries (see BuildBlocks). Keeping the blocks on the cache means
	// every machine sharing this per-ROM artifact also shares one block
	// table, built at most once, concurrency-safe.
	blkOnce sync.Once
	blk     *Blocks
}

// Predecode decodes every even address in [start, end] using read to
// fetch words. Addresses that do not decode (data, padding) simply stay
// uncached and fall back to the live path at run time, as do the last
// two word slots of the address space (their fetch window would wrap).
//
// region, when non-nil, maps an address to the memory region holding
// it, or to a negative value when fetching from it has bus side
// effects. Caching is restricted to addresses whose whole three-word
// fetch window lies in regions: the live path speculatively reads all
// three words through the bus, so a window that strays into unmapped or
// peripheral space has observable side effects (bus-error accounting,
// handler reads) the cache would skip; such addresses must stay on the
// live path. The block table fused from the cache (Blocks) also never
// lets a block cross from one region into another.
func Predecode(read func(addr uint16) uint16, start, end uint16, region func(addr uint16) int) *Predecoded {
	start &^= 1
	n := (int(end)-int(start))/2 + 1
	p := &Predecoded{start: start}
	if n <= 0 {
		return p
	}
	if region != nil {
		// Two slots past the window cover the last fetch windows.
		p.regions = make([]int8, n+2)
		for i := range p.regions {
			p.regions[i] = int8(region(start + uint16(2*i)))
		}
	}
	p.entries = make([]Entry, n)
	for i := range p.entries {
		addr := start + uint16(2*i)
		if addr >= 0xFFFC {
			continue
		}
		if p.regions != nil && (p.regions[i] < 0 || p.regions[i+1] < 0 || p.regions[i+2] < 0) {
			continue
		}
		words := [3]uint16{read(addr), read(addr + 2), read(addr + 4)}
		in, _, err := Decode(words[:])
		if err != nil {
			continue
		}
		e := &p.entries[i]
		e.In = in
		e.Size = in.Size()
		e.Cycles = uint16(Cycles(in))
		e.OK = true
		e.U, e.Fast = LowerUOp(addr, in)
	}
	return p
}

// Table exposes the window base and the entry slice for callers that
// inline the lookup (the CPU core's warm path). Entries are shared and
// read-only; an entry is valid only when its OK flag is set. Index i
// corresponds to fetch address start + 2*i.
func (p *Predecoded) Table() (start uint16, entries []Entry) {
	if p == nil {
		return 0, nil
	}
	return p.start, p.entries
}

// EntryAt returns the cached entry for a fetch at addr, or nil when
// addr is outside the window, odd (a misaligned fetch takes the live
// path, which models the bus's A0-ignore), or did not decode at
// predecode time. The entry is shared and read-only.
func (p *Predecoded) EntryAt(addr uint16) *Entry {
	if p == nil || addr&1 != 0 || addr < p.start {
		return nil
	}
	i := int(addr-p.start) >> 1
	if i >= len(p.entries) || !p.entries[i].OK {
		return nil
	}
	return &p.entries[i]
}

// Blocks returns the basic-block table fused from this cache's entries,
// building it on first use. The table is immutable and shared by every
// caller — the per-ROM artifact the fleet runner hands to each machine
// alongside the decode cache itself.
func (p *Predecoded) Blocks() *Blocks {
	if p == nil {
		return nil
	}
	p.blkOnce.Do(func() { p.blk = BuildBlocks(p) })
	return p.blk
}

// Lookup returns the cached instruction, its size in bytes and its cycle
// cost for a fetch at addr. ok is false when EntryAt would return nil.
func (p *Predecoded) Lookup(addr uint16) (in Instruction, size, cycles uint16, ok bool) {
	e := p.EntryAt(addr)
	if e == nil {
		return Instruction{}, 0, 0, false
	}
	return e.In, e.Size, e.Cycles, true
}

// Len reports how many addresses hold a cached decode (for tests and
// diagnostics).
func (p *Predecoded) Len() int {
	if p == nil {
		return 0
	}
	n := 0
	for i := range p.entries {
		if p.entries[i].OK {
			n++
		}
	}
	return n
}
