package pagetable

import (
	"fmt"

	"hybridtlb/internal/mem"
)

// Level identifies a level of the 4-level radix tree, from the root down.
type Level int

// The four paging levels of classical x86-64 4-level paging.
const (
	LevelPML4 Level = iota
	LevelPDPT
	LevelPD
	LevelPT
	numLevels
)

// entriesPerNode is the radix of every level (512 8-byte entries per 4 KiB
// table page).
const entriesPerNode = 512

// EntriesPerCacheBlock is how many PTEs share one 64-byte cache block; the
// distributed contiguity encoding may span this many entries.
const EntriesPerCacheBlock = 8

// node is one 4 KiB page table page.
type node struct {
	pte   [entriesPerNode]PTE
	child [entriesPerNode]*node
	// phys is the synthetic physical address of this table page, used by
	// the detailed walk-latency model to derive the cache lines a
	// hardware walker would touch.
	phys mem.PhysAddr
}

// tableRegionBase is where page table pages live in the synthetic
// physical address space: a high region far above any mapped frame, so
// walker lines never alias workload data.
const tableRegionBase mem.PhysAddr = 1 << 46

// Stats counts page table maintenance work, used for the anchor-distance
// change cost model of Section 3.3.
type Stats struct {
	Nodes     uint64 // table pages allocated
	PTEWrites uint64 // leaf entry writes (map/unmap/anchor updates)
	PTEReads  uint64 // leaf entry reads during sweeps
	Walks     uint64 // full translations performed via Walk
}

// Table is a four-level page table supporting 4 KiB and 2 MiB mappings and
// the paper's anchor-entry contiguity encoding.
type Table struct {
	root  *node
	stats Stats
}

// New creates an empty page table.
func New() *Table {
	t := &Table{root: &node{}}
	t.stats.Nodes = 1
	t.root.phys = tableRegionBase
	return t
}

// Stats returns the accumulated maintenance counters.
func (t *Table) Stats() Stats { return t.stats }

// indexAt extracts the radix index of vpn at the given level.
// The VPN is a 4 KiB page number, so the PT index is its low 9 bits.
func indexAt(vpn mem.VPN, l Level) int {
	shift := uint(9 * (int(LevelPT) - int(l)))
	return int(uint64(vpn)>>shift) & (entriesPerNode - 1)
}

// ensurePath walks interior levels down to stop, allocating nodes.
func (t *Table) ensurePath(vpn mem.VPN, stop Level) *node {
	n := t.root
	for l := LevelPML4; l < stop; l++ {
		i := indexAt(vpn, l)
		if n.child[i] == nil {
			n.child[i] = &node{phys: tableRegionBase + mem.PhysAddr(t.stats.Nodes)*mem.PhysAddr(mem.Size4K)}
			n.pte[i] = FlagPresent | FlagWrite | FlagUser
			t.stats.Nodes++
		}
		n = n.child[i]
	}
	return n
}

// Map4K installs a 4 KiB mapping vpn -> pfn with the given flags.
// FlagPresent is implied.
func (t *Table) Map4K(vpn mem.VPN, pfn mem.PFN, flags PTE) {
	n := t.ensurePath(vpn, LevelPT)
	i := indexAt(vpn, LevelPT)
	// Preserve previously stored ignored bits (anchor contiguity written
	// before a neighbouring page was mapped).
	ign := n.pte[i].Ign()
	n.pte[i] = (flags & FlagMask &^ FlagHuge) | FlagPresent
	n.pte[i] = n.pte[i].WithPFN(pfn).WithIgn(ign)
	t.stats.PTEWrites++
}

// Map2M installs a 2 MiB mapping. vpn and pfn must be 512-page aligned.
func (t *Table) Map2M(vpn mem.VPN, pfn mem.PFN, flags PTE) error {
	if !vpn.IsAligned(mem.PagesPer2M) || !pfn.IsAligned(mem.PagesPer2M) {
		return fmt.Errorf("pagetable: unaligned 2M mapping vpn=%#x pfn=%#x", uint64(vpn), uint64(pfn))
	}
	n := t.ensurePath(vpn, LevelPD)
	i := indexAt(vpn, LevelPD)
	if n.child[i] != nil {
		return fmt.Errorf("pagetable: 2M mapping at vpn=%#x overlaps existing 4K table", uint64(vpn))
	}
	n.pte[i] = (flags & FlagMask) | FlagPresent | FlagHuge
	n.pte[i] = n.pte[i].WithPFN(pfn)
	t.stats.PTEWrites++
	return nil
}

// Map1G installs a 1 GiB mapping at the PDPT level. vpn and pfn must be
// 262144-page aligned. The paper's evaluation does not exercise 1 GiB
// pages (commercial parts give them a separate, smaller L2 TLB), but the
// substrate supports them for completeness.
func (t *Table) Map1G(vpn mem.VPN, pfn mem.PFN, flags PTE) error {
	if !vpn.IsAligned(mem.PagesPer1G) || !pfn.IsAligned(mem.PagesPer1G) {
		return fmt.Errorf("pagetable: unaligned 1G mapping vpn=%#x pfn=%#x", uint64(vpn), uint64(pfn))
	}
	n := t.ensurePath(vpn, LevelPDPT)
	i := indexAt(vpn, LevelPDPT)
	if n.child[i] != nil {
		return fmt.Errorf("pagetable: 1G mapping at vpn=%#x overlaps existing tables", uint64(vpn))
	}
	n.pte[i] = (flags & FlagMask) | FlagPresent | FlagHuge
	n.pte[i] = n.pte[i].WithPFN(pfn)
	t.stats.PTEWrites++
	return nil
}

// Collapse2M replaces the 4 KiB page table page covering base with a
// single 2 MiB mapping — huge-page promotion (khugepaged). base and pfn
// must be 512-page aligned and a 4 KiB table must exist there; its
// entries are discarded wholesale.
func (t *Table) Collapse2M(base mem.VPN, pfn mem.PFN, flags PTE) error {
	if !base.IsAligned(mem.PagesPer2M) || !pfn.IsAligned(mem.PagesPer2M) {
		return fmt.Errorf("pagetable: unaligned 2M collapse vpn=%#x pfn=%#x", uint64(base), uint64(pfn))
	}
	n := t.root
	for l := LevelPML4; l < LevelPD; l++ {
		i := indexAt(base, l)
		if n.child[i] == nil {
			return fmt.Errorf("pagetable: no table to collapse at vpn=%#x", uint64(base))
		}
		n = n.child[i]
	}
	i := indexAt(base, LevelPD)
	if n.child[i] == nil {
		return fmt.Errorf("pagetable: no 4K table under vpn=%#x", uint64(base))
	}
	n.child[i] = nil
	n.pte[i] = (flags & FlagMask) | FlagPresent | FlagHuge
	n.pte[i] = n.pte[i].WithPFN(pfn)
	t.stats.PTEWrites++
	t.stats.Nodes--
	return nil
}

// Unmap removes the mapping covering vpn (4 KiB entry, or the whole 2 MiB
// entry if vpn lies inside a huge page). It reports whether a mapping was
// removed.
func (t *Table) Unmap(vpn mem.VPN) bool {
	n := t.root
	for l := LevelPML4; l < LevelPT; l++ {
		i := indexAt(vpn, l)
		if (l == LevelPD || l == LevelPDPT) && n.pte[i].Present() && n.pte[i].Huge() {
			n.pte[i] = 0
			t.stats.PTEWrites++
			return true
		}
		if n.child[i] == nil {
			return false
		}
		n = n.child[i]
	}
	i := indexAt(vpn, LevelPT)
	if !n.pte[i].Present() {
		return false
	}
	// Clear the entry but keep nothing: contiguity bits of an unmapped
	// page are stale by definition and the OS rewrites anchors after
	// unmap (Section 3.3, "Updating Memory Mapping").
	n.pte[i] = 0
	t.stats.PTEWrites++
	return true
}

// WalkResult describes the outcome of a page walk.
type WalkResult struct {
	Present bool
	PFN     mem.PFN       // frame of the 4 KiB page containing the request
	Class   mem.PageClass // Class4K or Class2M
	Entry   PTE           // the leaf entry found
	// BasePFN/BaseVPN give the start of the mapping (equal to PFN/vpn for
	// 4 KiB pages; 512-aligned for 2 MiB pages).
	BaseVPN mem.VPN
	BasePFN mem.PFN
	// Levels is the number of table levels touched (memory accesses the
	// hardware walker would issue), 2..4.
	Levels int
}

// Walk translates vpn, descending the radix tree like the hardware walker.
func (t *Table) Walk(vpn mem.VPN) WalkResult {
	t.stats.Walks++
	n := t.root
	levels := 0
	for l := LevelPML4; l < LevelPT; l++ {
		levels++
		i := indexAt(vpn, l)
		if (l == LevelPD || l == LevelPDPT) && n.pte[i].Present() && n.pte[i].Huge() {
			class := mem.Class2M
			if l == LevelPDPT {
				class = mem.Class1G
			}
			base := vpn.AlignDown(class.BasePages())
			return WalkResult{
				Present: true,
				PFN:     n.pte[i].PFN() + mem.PFN(vpn-base),
				Class:   class,
				Entry:   n.pte[i],
				BaseVPN: base,
				BasePFN: n.pte[i].PFN(),
				Levels:  levels,
			}
		}
		if n.child[i] == nil {
			return WalkResult{Levels: levels}
		}
		n = n.child[i]
	}
	levels++
	i := indexAt(vpn, LevelPT)
	e := n.pte[i]
	if !e.Present() {
		return WalkResult{Levels: levels}
	}
	return WalkResult{
		Present: true,
		PFN:     e.PFN(),
		Class:   mem.Class4K,
		Entry:   e,
		BaseVPN: vpn,
		BasePFN: e.PFN(),
		Levels:  levels,
	}
}

// WalkFast is Walk for the flat-latency translation hot path: the same
// traversal, huge-page checks, and Walks accounting, but unrolled and
// returning only the fields that path consumes — as scalars, so the
// result travels in registers instead of a WalkResult copy. A zero
// return with present == false corresponds to a non-present WalkResult.
//
//tlbvet:hotpath
func (t *Table) WalkFast(vpn mem.VPN) (pfn mem.PFN, class mem.PageClass, baseVPN mem.VPN, basePFN mem.PFN, present bool) {
	t.stats.Walks++
	n := t.root.child[indexAt(vpn, LevelPML4)]
	if n == nil {
		return
	}
	i := indexAt(vpn, LevelPDPT)
	if e := n.pte[i]; e.Present() && e.Huge() {
		// PagesPer1G, not Class1G.BasePages(): the method inlines the
		// Shift() switch whose panic string is a (dead) heap escape,
		// which allocgate would flag inside this hotpath region.
		base := vpn.AlignDown(mem.PagesPer1G)
		return e.PFN() + mem.PFN(vpn-base), mem.Class1G, base, e.PFN(), true
	}
	if n = n.child[i]; n == nil {
		return
	}
	i = indexAt(vpn, LevelPD)
	if e := n.pte[i]; e.Present() && e.Huge() {
		base := vpn.AlignDown(mem.PagesPer2M)
		return e.PFN() + mem.PFN(vpn-base), mem.Class2M, base, e.PFN(), true
	}
	if n = n.child[i]; n == nil {
		return
	}
	e := n.pte[indexAt(vpn, LevelPT)]
	if !e.Present() {
		return
	}
	return e.PFN(), mem.Class4K, vpn, e.PFN(), true
}

// LineBitmap reads the 64-byte PTE cache line holding vpn's leaf entry
// and reports which of its EntriesPerCacheBlock entries continue one
// physical run: bit i is set when the line's i-th entry is a present
// 4 KiB mapping of pfnBase+i. It descends the tree once and reads the
// whole line from the leaf, as coalescing hardware reads the line the
// walk already fetched, so it counts no Walks. A line without a 4 KiB
// leaf table (unmapped, or inside a huge page) reads as 0, matching a
// per-entry Walk that finds no present 4 KiB mapping.
//
//tlbvet:hotpath
func (t *Table) LineBitmap(vpn mem.VPN, pfnBase mem.PFN) uint8 {
	n := t.root.child[indexAt(vpn, LevelPML4)]
	if n == nil {
		return 0
	}
	// A huge PDPT or PD entry never has a child table (Map1G/Map2M
	// refuse one, Collapse2M drops it), so following children alone
	// reaches only 4 KiB leaves.
	if n = n.child[indexAt(vpn, LevelPDPT)]; n == nil {
		return 0
	}
	if n = n.child[indexAt(vpn, LevelPD)]; n == nil {
		return 0
	}
	first := indexAt(vpn, LevelPT) &^ (EntriesPerCacheBlock - 1)
	var bitmap uint8
	for off := 0; off < EntriesPerCacheBlock; off++ {
		if e := n.pte[first+off]; e.Present() && e.PFN() == pfnBase+mem.PFN(off) {
			bitmap |= 1 << uint(off)
		}
	}
	return bitmap
}

// leafNode returns the PT-level node containing vpn's 4 KiB entry, or nil.
func (t *Table) leafNode(vpn mem.VPN) *node {
	n := t.root
	for l := LevelPML4; l < LevelPT; l++ {
		i := indexAt(vpn, l)
		if n.child[i] == nil {
			return nil
		}
		n = n.child[i]
	}
	return n
}

// Range calls fn for every present 4 KiB leaf entry in ascending VPN order.
// 2 MiB mappings are reported once with their base VPN and class Class2M.
// fn returning false stops the iteration.
func (t *Table) Range(fn func(vpn mem.VPN, e PTE, class mem.PageClass) bool) {
	t.rangeNode(t.root, 0, LevelPML4, fn)
}

func (t *Table) rangeNode(n *node, baseVPN mem.VPN, l Level, fn func(mem.VPN, PTE, mem.PageClass) bool) bool {
	span := mem.VPN(1) << uint(9*(int(LevelPT)-int(l)))
	for i := 0; i < entriesPerNode; i++ {
		vpn := baseVPN + mem.VPN(i)*span
		if l == LevelPT {
			if n.pte[i].Present() {
				if !fn(vpn, n.pte[i], mem.Class4K) {
					return false
				}
			}
			continue
		}
		if (l == LevelPD || l == LevelPDPT) && n.pte[i].Present() && n.pte[i].Huge() {
			class := mem.Class2M
			if l == LevelPDPT {
				class = mem.Class1G
			}
			if !fn(vpn, n.pte[i], class) {
				return false
			}
			continue
		}
		if n.child[i] != nil {
			if !t.rangeNode(n.child[i], vpn, l+1, fn) {
				return false
			}
		}
	}
	return true
}

// WalkLines returns the physical addresses of the page table entries a
// hardware walk of vpn touches, from the root down, stopping at the leaf
// (or at the first non-present level). The detailed walk-latency model
// feeds these through a cache hierarchy.
func (t *Table) WalkLines(vpn mem.VPN) []mem.PhysAddr {
	out := make([]mem.PhysAddr, 0, int(numLevels))
	n := t.root
	for l := LevelPML4; l < LevelPT; l++ {
		i := indexAt(vpn, l)
		out = append(out, n.phys+mem.PhysAddr(i*8))
		if (l == LevelPD || l == LevelPDPT) && n.pte[i].Present() && n.pte[i].Huge() {
			return out
		}
		if n.child[i] == nil {
			return out
		}
		n = n.child[i]
	}
	i := indexAt(vpn, LevelPT)
	return append(out, n.phys+mem.PhysAddr(i*8))
}
