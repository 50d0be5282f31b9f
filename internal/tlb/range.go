package tlb

import (
	"fmt"

	"hybridtlb/internal/mem"
)

// RangeEntry is one segment translation of RMM's range TLB: Pages
// consecutive VPNs starting at StartVPN map to consecutive PFNs starting at
// StartPFN.
type RangeEntry struct {
	StartVPN mem.VPN
	StartPFN mem.PFN
	Pages    uint64
}

// Translate returns the frame for a VPN inside the range.
func (r RangeEntry) Translate(v mem.VPN) mem.PFN {
	return r.StartPFN + mem.PFN(v-r.StartVPN)
}

// RangeTLB is the small fully-associative range TLB of Redundant Memory
// Mapping (Karakostas et al., ISCA'15), as configured in Table 3 of the
// paper: 32 entries, fully associative, LRU. Every lookup compares the VPN
// against all ranges in parallel (in hardware); the full associativity is
// exactly what limits the entry count.
//
// Lines are stored as parallel arrays, like Cache's ways: the lookup scan
// reads only starts and pages (16 bytes per line, so 32 lines span 8
// cache lines), and containment is the single unsigned compare
// uint64(v-start) < pages. An lru of 0 marks an invalid line, which also
// carries pages 0 so that it can never match; a valid zero-page range
// holds a line and matches nothing.
type RangeTLB struct {
	starts []mem.VPN
	pages  []uint64
	pfns   []mem.PFN
	lrus   []uint64
	clock  uint64
}

// NewRangeTLB creates a range TLB with the given capacity.
func NewRangeTLB(capacity int) *RangeTLB {
	if capacity <= 0 {
		panic(fmt.Sprintf("tlb: range TLB capacity %d must be positive", capacity))
	}
	return &RangeTLB{
		starts: make([]mem.VPN, capacity),
		pages:  make([]uint64, capacity),
		pfns:   make([]mem.PFN, capacity),
		lrus:   make([]uint64, capacity),
	}
}

// Capacity returns the entry count.
func (t *RangeTLB) Capacity() int { return len(t.lrus) }

// Lookup finds the lowest-index range covering vpn, promoting it to MRU.
//
//tlbvet:hotpath
func (t *RangeTLB) Lookup(v mem.VPN) (RangeEntry, bool) {
	pages := t.pages[:len(t.starts)]
	for i, s := range t.starts {
		if uint64(v-s) < pages[i] {
			t.clock++
			t.lrus[i] = t.clock
			return RangeEntry{StartVPN: s, StartPFN: t.pfns[i], Pages: pages[i]}, true
		}
	}
	return RangeEntry{}, false
}

// Insert installs a range. The victim is the valid line with the same
// StartVPN (replaced in place), else the first invalid line, else the
// least recently used line. Invalid lines carry lru 0, below every live
// stamp, so the first minimum of lrus is exactly the last two choices.
//
//tlbvet:hotpath
func (t *RangeTLB) Insert(r RangeEntry) {
	lrus := t.lrus[:len(t.starts)]
	victim := 0
	for i, s := range t.starts {
		if s == r.StartVPN && lrus[i] != 0 {
			victim = i
			break
		}
		if lrus[i] < lrus[victim] {
			victim = i
		}
	}
	t.clock++
	t.starts[victim] = r.StartVPN
	t.pages[victim] = r.Pages
	t.pfns[victim] = r.StartPFN
	lrus[victim] = t.clock
}

// InvalidateContaining removes every range covering vpn, reporting how
// many were removed (the OS shoots ranges down when their backing chunk
// is split or unmapped).
func (t *RangeTLB) InvalidateContaining(v mem.VPN) int {
	n := 0
	for i, s := range t.starts {
		if uint64(v-s) < t.pages[i] {
			t.pages[i] = 0
			t.lrus[i] = 0
			n++
		}
	}
	return n
}

// Flush empties the range TLB.
func (t *RangeTLB) Flush() {
	clear(t.pages)
	clear(t.lrus)
}

// Occupancy returns the number of valid ranges.
func (t *RangeTLB) Occupancy() int {
	n := 0
	for _, lru := range t.lrus {
		if lru != 0 {
			n++
		}
	}
	return n
}
