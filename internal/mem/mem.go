// Package mem models the 64 KB unified (von Neumann) address space of an
// openMSP430-class device: data memory (SRAM), program memory (flash),
// the EILID secure ROM and secure data regions, the peripheral window and
// the interrupt vector table. It provides the byte/word bus semantics the
// CPU core uses (word accesses are even-aligned, little-endian) plus a
// region map that the CASU/EILID hardware monitor derives its access
// policies from.
package mem

import (
	"fmt"
	"sync"
)

// Size of the MSP430 address space in bytes.
const Size = 0x10000

// Region classifies an address for the hardware monitor.
type Region uint8

const (
	// RegionPeriph is the memory-mapped peripheral window.
	RegionPeriph Region = iota
	// RegionDMEM is ordinary data memory (SRAM): writable, never executable.
	RegionDMEM
	// RegionSecureData is the EILID-exclusive secure DMEM holding the
	// shadow stack and the function-entry table. Only EILIDsw (code in
	// RegionSecureROM) may touch it.
	RegionSecureData
	// RegionPMEM is user program memory (flash): executable, immutable
	// outside a CASU secure update.
	RegionPMEM
	// RegionSecureROM holds EILIDsw. Immutable always; enterable only at
	// the architecturally blessed entry point.
	RegionSecureROM
	// RegionIVT is the interrupt vector table (top 32 bytes of flash).
	RegionIVT
	// RegionUnmapped is everything else; any access is a bus error.
	RegionUnmapped
)

func (r Region) String() string {
	switch r {
	case RegionPeriph:
		return "peripheral"
	case RegionDMEM:
		return "dmem"
	case RegionSecureData:
		return "secure-dmem"
	case RegionPMEM:
		return "pmem"
	case RegionSecureROM:
		return "secure-rom"
	case RegionIVT:
		return "ivt"
	case RegionUnmapped:
		return "unmapped"
	}
	return fmt.Sprintf("region(%d)", uint8(r))
}

// Layout is the device memory map. Bounds are inclusive start, inclusive
// end (matching datasheet convention).
type Layout struct {
	PeriphStart, PeriphEnd         uint16
	DMEMStart, DMEMEnd             uint16
	SecureDataStart, SecureDataEnd uint16
	PMEMStart, PMEMEnd             uint16
	SecureROMStart, SecureROMEnd   uint16
	IVTStart                       uint16 // always runs to 0xFFFF
}

// DefaultLayout mirrors the prototype in the paper: 2 KB SRAM, 256 B of
// secure data (shadow stack + function table), 6 KB user flash, 1.5 KB
// secure ROM for EILIDsw, IVT at the top.
func DefaultLayout() Layout {
	return Layout{
		PeriphStart: 0x0000, PeriphEnd: 0x01FF,
		DMEMStart: 0x0200, DMEMEnd: 0x09FF,
		SecureDataStart: 0x0A00, SecureDataEnd: 0x0AFF,
		PMEMStart: 0xE000, PMEMEnd: 0xF7FF,
		SecureROMStart: 0xF800, SecureROMEnd: 0xFDFF,
		IVTStart: 0xFFE0,
	}
}

// Validate checks that the layout regions are sane and non-overlapping in
// the order the default map uses.
func (l Layout) Validate() error {
	type span struct {
		name       string
		start, end uint32
	}
	spans := []span{
		{"periph", uint32(l.PeriphStart), uint32(l.PeriphEnd)},
		{"dmem", uint32(l.DMEMStart), uint32(l.DMEMEnd)},
		{"secure-dmem", uint32(l.SecureDataStart), uint32(l.SecureDataEnd)},
		{"pmem", uint32(l.PMEMStart), uint32(l.PMEMEnd)},
		{"secure-rom", uint32(l.SecureROMStart), uint32(l.SecureROMEnd)},
		{"ivt", uint32(l.IVTStart), 0xFFFF},
	}
	for i, s := range spans {
		if s.start > s.end {
			return fmt.Errorf("mem: %s region start 0x%04x after end 0x%04x", s.name, s.start, s.end)
		}
		if i > 0 && spans[i-1].end >= s.start {
			return fmt.Errorf("mem: %s region overlaps %s", s.name, spans[i-1].name)
		}
	}
	return nil
}

// RegionOf classifies an address.
func (l Layout) RegionOf(addr uint16) Region {
	switch {
	case addr >= l.IVTStart:
		return RegionIVT
	case addr >= l.SecureROMStart && addr <= l.SecureROMEnd:
		return RegionSecureROM
	case addr >= l.PMEMStart && addr <= l.PMEMEnd:
		return RegionPMEM
	case addr >= l.SecureDataStart && addr <= l.SecureDataEnd:
		return RegionSecureData
	case addr >= l.DMEMStart && addr <= l.DMEMEnd:
		return RegionDMEM
	case addr >= l.PeriphStart && addr <= l.PeriphEnd:
		return RegionPeriph
	}
	return RegionUnmapped
}

// InSecureROM reports whether addr (typically a PC value) is inside the
// EILIDsw region.
func (l Layout) InSecureROM(addr uint16) bool {
	return addr >= l.SecureROMStart && addr <= l.SecureROMEnd
}

// Executable reports whether instructions may be fetched from addr under
// the W⊕X policy (program memory, secure ROM and the IVT-resident reset
// path only).
func (l Layout) Executable(addr uint16) bool {
	// RegionOf's precedence, for the two executable regions only: the
	// check runs at every monitored block entry.
	return addr < l.IVTStart && (l.InSecureROM(addr) || addr >= l.PMEMStart && addr <= l.PMEMEnd)
}

// Handler services memory-mapped peripheral accesses. Addresses passed in
// are absolute. Byte accesses are synthesized from word accesses by the
// Space when a handler does not implement ByteHandler.
type Handler interface {
	LoadWord(addr uint16) uint16
	StoreWord(addr uint16, v uint16)
}

// ByteHandler is an optional refinement for peripherals with byte-wide
// registers (GPIO ports).
type ByteHandler interface {
	Handler
	LoadByte(addr uint16) uint8
	StoreByte(addr uint16, v uint8)
}

type mapping struct {
	start, end uint16 // inclusive
	h          Handler
}

// Space is the device memory: a 64 KB backing array plus peripheral
// mappings. It implements the bus the CPU core drives. Space performs no
// protection checks itself — protection is the hardware monitor's job —
// but it records the last bus error (access to unmapped space) for tests.
//
// Dispatch is O(1): two per-address tables, built at NewSpace/Map time,
// classify every address as plain backing memory, a peripheral handler,
// or unmapped space. The original linear handler scan is kept behind
// SetLinearDispatch as the reference semantics the tables are
// differentially tested against.
type Space struct {
	Layout Layout
	ram    [Size]byte
	maps   []mapping

	// plain marks addresses that dispatch straight to the backing array:
	// inside a mapped region, with no peripheral handler attached.
	plain [Size]bool
	// hidx maps an address to 1+index of its handler in maps (0 = none).
	hidx [Size]uint8

	// linear forces the reference linear-scan dispatch path.
	linear bool

	// handlerStores counts stores that reached a peripheral handler; the
	// machine's run loop uses it to notice that a register write may have
	// moved a peripheral's next-event deadline.
	handlerStores uint64

	// BusErrors counts accesses to unmapped addresses (reads return
	// 0xFFFF / 0xFF, writes are dropped), mirroring openMSP430's
	// behaviour of not trapping them.
	BusErrors int

	// WriteHook, when non-nil, observes every mutation of the backing
	// array — CPU stores, image loads, the volatile clear on reset —
	// with the start address and byte length. Peripheral-handler writes
	// are not reported: they never alias fetchable memory. The decode
	// cache (cpu.CPU.InvalidateCode) is its consumer.
	WriteHook func(addr uint16, n int)
}

// plainTemplates caches the handler-free dispatch table per layout, so
// the fleet runner's bulk machine construction pays the 64 K region
// classification once per layout rather than once per Space.
var plainTemplates sync.Map // Layout -> *[Size]bool

func plainTemplate(l Layout) *[Size]bool {
	if v, ok := plainTemplates.Load(l); ok {
		return v.(*[Size]bool)
	}
	t := new([Size]bool)
	// Every mapped region is plain memory until a handler claims it.
	for _, span := range [][2]uint16{
		{l.PeriphStart, l.PeriphEnd},
		{l.DMEMStart, l.DMEMEnd},
		{l.SecureDataStart, l.SecureDataEnd},
		{l.PMEMStart, l.PMEMEnd},
		{l.SecureROMStart, l.SecureROMEnd},
		{l.IVTStart, 0xFFFF},
	} {
		for a := int(span[0]); a <= int(span[1]); a++ {
			t[a] = true
		}
	}
	v, _ := plainTemplates.LoadOrStore(l, t)
	return v.(*[Size]bool)
}

// NewSpace creates a Space with the given layout.
func NewSpace(l Layout) (*Space, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	s := &Space{Layout: l}
	s.plain = *plainTemplate(l)
	return s, nil
}

// MustNewSpace is NewSpace for known-good layouts.
func MustNewSpace(l Layout) *Space {
	s, err := NewSpace(l)
	if err != nil {
		panic(err)
	}
	return s
}

// Map attaches a peripheral handler to [start,end] (inclusive). Mappings
// must fall inside the peripheral window and must not overlap.
func (s *Space) Map(start, end uint16, h Handler) error {
	if start > end {
		return fmt.Errorf("mem: bad mapping 0x%04x..0x%04x", start, end)
	}
	if s.Layout.RegionOf(start) != RegionPeriph || s.Layout.RegionOf(end) != RegionPeriph {
		return fmt.Errorf("mem: mapping 0x%04x..0x%04x outside peripheral window", start, end)
	}
	for _, m := range s.maps {
		if start <= m.end && m.start <= end {
			return fmt.Errorf("mem: mapping 0x%04x..0x%04x overlaps 0x%04x..0x%04x", start, end, m.start, m.end)
		}
	}
	if len(s.maps) >= 255 {
		return fmt.Errorf("mem: too many peripheral mappings (max 255)")
	}
	s.maps = append(s.maps, mapping{start, end, h})
	idx := uint8(len(s.maps)) // 1-based in hidx
	for a := int(start); a <= int(end); a++ {
		s.hidx[a] = idx
		s.plain[a] = false
	}
	return nil
}

// SetLinearDispatch selects the reference linear handler scan (true)
// instead of the per-address dispatch tables. Semantics are identical;
// the differential tests in this package assert that.
func (s *Space) SetLinearDispatch(on bool) { s.linear = on }

// HandlerStores returns a generation counter incremented by every store
// that reached a peripheral handler. The machine's batched run loop
// compares it between instructions to catch register writes that move a
// peripheral's next-event deadline.
func (s *Space) HandlerStores() uint64 { return s.handlerStores }

// Direct exposes the backing slab, the plain-memory dispatch flags and
// the live write hook so the CPU core can inline plain-RAM accesses
// without an interface call. The returned pointers alias live Space
// state: plain flags update as handlers are mapped, and *hook always
// reads the current WriteHook. Callers must reproduce Space semantics
// exactly (fast stores must invoke the hook).
func (s *Space) Direct() (slab *[Size]byte, plain *[Size]bool, hook *func(addr uint16, n int)) {
	return &s.ram, &s.plain, &s.WriteHook
}

func (s *Space) handlerAt(addr uint16) (Handler, bool) {
	for _, m := range s.maps {
		if addr >= m.start && addr <= m.end {
			return m.h, true
		}
	}
	return nil, false
}

// align forces word alignment the way the MSP430 bus does (A0 ignored).
func align(addr uint16) uint16 { return addr &^ 1 }

// lookup classifies addr: the handler attached there (nil when none)
// and whether the address is plain backing memory. Exactly one of
// (h != nil), plain, or unmapped holds.
func (s *Space) lookup(addr uint16) (h Handler, plain bool) {
	if s.linear {
		if lh, ok := s.handlerAt(addr); ok {
			return lh, false
		}
		return nil, s.Layout.RegionOf(addr) != RegionUnmapped
	}
	if i := s.hidx[addr]; i != 0 {
		return s.maps[i-1].h, false
	}
	return nil, s.plain[addr]
}

// LoadWord reads a little-endian word. Odd addresses are aligned down.
func (s *Space) LoadWord(addr uint16) uint16 {
	addr = align(addr)
	if !s.linear && s.plain[addr] {
		return uint16(s.ram[addr]) | uint16(s.ram[addr+1])<<8
	}
	h, plain := s.lookup(addr)
	if h != nil {
		return h.LoadWord(addr)
	}
	if !plain {
		s.BusErrors++
		return 0xFFFF
	}
	return uint16(s.ram[addr]) | uint16(s.ram[addr+1])<<8
}

// StoreWord writes a little-endian word. Odd addresses are aligned down.
func (s *Space) StoreWord(addr uint16, v uint16) {
	addr = align(addr)
	h, plain := s.lookup(addr)
	if h != nil {
		s.handlerStores++
		h.StoreWord(addr, v)
		return
	}
	if !plain {
		s.BusErrors++
		return
	}
	s.ram[addr] = byte(v)
	s.ram[addr+1] = byte(v >> 8)
	if s.WriteHook != nil {
		s.WriteHook(addr, 2)
	}
}

// LoadByte reads a byte.
func (s *Space) LoadByte(addr uint16) uint8 {
	h, plain := s.lookup(addr)
	if h != nil {
		if bh, ok := h.(ByteHandler); ok {
			return bh.LoadByte(addr)
		}
		w := h.LoadWord(align(addr))
		if addr&1 != 0 {
			return uint8(w >> 8)
		}
		return uint8(w)
	}
	if !plain {
		s.BusErrors++
		return 0xFF
	}
	return s.ram[addr]
}

// StoreByte writes a byte.
func (s *Space) StoreByte(addr uint16, v uint8) {
	h, plain := s.lookup(addr)
	if h != nil {
		s.handlerStores++
		if bh, ok := h.(ByteHandler); ok {
			bh.StoreByte(addr, v)
			return
		}
		w := h.LoadWord(align(addr))
		if addr&1 != 0 {
			w = w&0x00FF | uint16(v)<<8
		} else {
			w = w&0xFF00 | uint16(v)
		}
		h.StoreWord(align(addr), w)
		return
	}
	if !plain {
		s.BusErrors++
		return
	}
	s.ram[addr] = v
	if s.WriteHook != nil {
		s.WriteHook(addr, 1)
	}
}

// PeekWord reads a little-endian word straight from the backing array,
// bypassing peripheral handlers and bus-error accounting — a debugger's
// (or predecoder's) view of memory with no side effects.
func (s *Space) PeekWord(addr uint16) uint16 {
	addr = align(addr)
	return uint16(s.ram[addr]) | uint16(s.ram[addr+1])<<8
}

// LoadImage copies raw bytes into the backing array starting at addr,
// bypassing peripheral mappings; it is the "flash programmer" used to
// install firmware before boot and by the secure-update path after
// authentication.
func (s *Space) LoadImage(addr uint16, data []byte) error {
	if int(addr)+len(data) > Size {
		return fmt.Errorf("mem: image of %d bytes at 0x%04x exceeds address space", len(data), addr)
	}
	copy(s.ram[addr:], data)
	if s.WriteHook != nil {
		s.WriteHook(addr, len(data))
	}
	return nil
}

// ReadRaw copies length bytes starting at addr out of the backing array,
// bypassing peripherals; used by tests and the attestation/update paths.
func (s *Space) ReadRaw(addr uint16, length int) []byte {
	if int(addr)+length > Size {
		length = Size - int(addr)
	}
	out := make([]byte, length)
	copy(out, s.ram[addr:int(addr)+length])
	return out
}

// Reset clears volatile memory (DMEM and secure DMEM) while preserving
// program memory, secure ROM and the IVT — the behaviour of a device
// reset as opposed to a reflash. This path runs on every monitor
// violation, so the volatile regions are cleared as whole slab ranges
// rather than byte-at-a-time; the WriteHook invalidation spans are
// unchanged.
func (s *Space) Reset() {
	clear(s.ram[s.Layout.DMEMStart : int(s.Layout.DMEMEnd)+1])
	clear(s.ram[s.Layout.SecureDataStart : int(s.Layout.SecureDataEnd)+1])
	if s.WriteHook != nil {
		s.WriteHook(s.Layout.DMEMStart, int(s.Layout.DMEMEnd)-int(s.Layout.DMEMStart)+1)
		s.WriteHook(s.Layout.SecureDataStart, int(s.Layout.SecureDataEnd)-int(s.Layout.SecureDataStart)+1)
	}
}

// Snapshot is an immutable copy of a Space's restorable state: the full
// backing slab plus the bus-error count at capture time. The dispatch
// state (layout, peripheral mappings, per-address tables) is not
// captured — it is construction-time state that Restore requires to be
// unchanged, which is what makes Restore a pair of copies instead of a
// re-zero and re-map.
type Snapshot struct {
	layout    Layout
	ram       [Size]byte
	busErrors int
}

// Snapshot captures the Space's current memory image and bus-error
// count. The fleet seals one per fully-constructed machine (post
// firmware load) so later jobs restore it instead of rebuilding.
func (s *Space) Snapshot() *Snapshot {
	return &Snapshot{layout: s.Layout, ram: s.ram, busErrors: s.BusErrors}
}

// Restore copies a snapshot back over the backing slab and bus-error
// count, leaving the peripheral mappings and dispatch tables (which the
// snapshot asserts are unchanged — it must come from a Space with the
// same layout) in place. Restore does NOT report the slab mutation
// through WriteHook: the restored bytes are, by construction, the exact
// image any installed decode cache was built from, so the caller resets
// cache staleness wholesale instead (core.Machine.Recycle pairs Restore
// with cpu.CPU.ResetCodeState).
func (s *Space) Restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("mem: restore from nil snapshot")
	}
	if snap.layout != s.Layout {
		return fmt.Errorf("mem: snapshot layout does not match this space")
	}
	s.ram = snap.ram
	s.BusErrors = snap.busErrors
	return nil
}

// VectorAddress returns the IVT slot address for interrupt line n
// (0..15); line 15 is the reset vector at 0xFFFE.
func (l Layout) VectorAddress(line int) uint16 {
	return l.IVTStart + uint16(line)*2
}

// ResetVector is the address of the reset vector slot.
func (l Layout) ResetVector() uint16 { return l.VectorAddress(15) }
