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

// leaf is one PT-level table page: 512 PTEs, exactly 4 KiB and free of
// pointers, so the garbage collector never scans it.
type leaf [entriesPerNode]PTE

// dir is one interior table page (PML4, PDPT or PD level). As on x86,
// the entry above a child table holds the table's synthetic frame (see
// link); child holds the Go pointer the simulator follows. An
// entry is either a child table or a huge leaf, never both: Map1G and
// Map2M refuse an entry with a child, and mapping a 4 KiB page under a
// huge entry replaces it with a table.
type dir[C any] struct {
	pte   [entriesPerNode]PTE
	child [entriesPerNode]*C
}

type (
	pdTable   = dir[leaf]
	pdptTable = dir[pdTable]
	pml4Table = dir[pdptTable]
)

// tableRegionBase is where page table pages live in the synthetic
// physical address space: a high region far above any mapped frame, so
// walker lines never alias workload data. The root sits at the base and
// every later table page at the next frame in allocation order; the
// detailed walk-latency model derives the cache lines a hardware walker
// would touch from these addresses.
const tableRegionBase mem.PhysAddr = 1 << 46

// Stats counts page table maintenance work, used for the anchor-distance
// change cost model of Section 3.3.
type Stats struct {
	Nodes     uint64 // live table pages
	PTEWrites uint64 // leaf entry writes (map/unmap/anchor updates)
	PTEReads  uint64 // leaf entry reads during sweeps
	Walks     uint64 // full translations performed via Walk
}

// leafSlab is how many leaf tables one allocation holds (128 KiB): a
// large install allocates once per slab instead of once per leaf. A
// table wastes at most the unused rest of its last slab, plus any leaf
// Collapse2M drops, which stays allocated until the table dies or is
// released.
const leafSlab = 32

// Leaves is a free list of leaf-table memory. A table built on it with
// NewOn draws its slabs from the list, and Release hands them back for
// the next table to reuse instead of allocating and zeroing fresh ones.
// The list keeps at most the slab count of the table released last, so
// it never holds more than one table's leaves. Its slabs are not
// cleared: each new leaf is written whole when it is first mapped. A
// Leaves is not safe for concurrent use.
type Leaves struct {
	free [][]leaf
}

// Table is a four-level page table supporting 4 KiB and 2 MiB mappings and
// the paper's anchor-entry contiguity encoding.
type Table struct {
	root  *pml4Table
	stats Stats
	// frames counts table frames ever handed out. Unlike Stats.Nodes it
	// never falls, so a table allocated after a Collapse2M never takes a
	// live table's frame.
	frames uint64
	// slab holds the leaf tables of the current slab not yet handed out.
	slab []leaf
	// leaves is the list the table draws on, or nil. Such a table takes
	// the whole list when it carves its first leaf: slabs holds them,
	// followed by any it had to allocate, and used counts those carved.
	leaves *Leaves
	slabs  [][]leaf
	used   int
}

// New creates an empty page table that allocates its leaf tables.
func New() *Table { return NewOn(nil) }

// NewOn creates an empty page table that draws its leaf tables from
// leaves, or allocates them when leaves is nil.
func NewOn(leaves *Leaves) *Table {
	return &Table{root: new(pml4Table), stats: Stats{Nodes: 1}, frames: 1, leaves: leaves}
}

// Release retires the table and cuts it off from its tree: any later use
// except Stats panics, so nothing reads a leaf after another table
// reuses it. A table that carved leaves from the list it was built on
// hands back every slab it carved from, and the list drops the slabs it
// held besides. Releasing twice does nothing more.
func (t *Table) Release() {
	if t.slabs != nil {
		clear(t.slabs[t.used:])
		t.leaves.free = t.slabs[:t.used]
	}
	*t = Table{stats: t.stats, frames: t.frames}
}

// Stats returns the accumulated maintenance counters.
func (t *Table) Stats() Stats { return t.stats }

// indexAt extracts the radix index of vpn at the given level.
// The VPN is a 4 KiB page number, so the PT index is its low 9 bits.
func indexAt(vpn mem.VPN, l Level) int {
	shift := uint(9 * (int(LevelPT) - int(l)))
	return int(uint64(vpn)>>shift) & (entriesPerNode - 1)
}

// tableAddr is the synthetic physical address of the table page an
// interior entry points to.
func tableAddr(e PTE) mem.PhysAddr { return mem.PhysAddr(e.PFN()) << mem.Shift4K }

// childAt returns d's child table at index i, allocating it when absent.
func childAt[C any](t *Table, d *dir[C], i int) *C {
	if d.child[i] == nil {
		link(t, d, i, new(C))
	}
	return d.child[i]
}

// link installs c as d's child table at index i: c takes the next frame
// of the table region, recorded in d's entry.
func link[C any](t *Table, d *dir[C], i int, c *C) {
	d.child[i] = c
	frame := mem.PFN(tableRegionBase>>mem.Shift4K) + mem.PFN(t.frames)
	d.pte[i] = (FlagPresent | FlagWrite | FlagUser).WithPFN(frame)
	t.frames++
	t.stats.Nodes++
}

// ensurePD returns the PD table covering vpn, allocating the path to it.
func (t *Table) ensurePD(vpn mem.VPN) *pdTable {
	return childAt(t, childAt(t, t.root, indexAt(vpn, LevelPML4)), indexAt(vpn, LevelPDPT))
}

// pdOf returns the PD table covering vpn, or nil.
func (t *Table) pdOf(vpn mem.VPN) *pdTable {
	pdpt := t.root.child[indexAt(vpn, LevelPML4)]
	if pdpt == nil {
		return nil
	}
	return pdpt.child[indexAt(vpn, LevelPDPT)]
}

// leafOf returns the leaf table holding vpn's 4 KiB entry, or nil.
func (t *Table) leafOf(vpn mem.VPN) *leaf {
	pd := t.pdOf(vpn)
	if pd == nil {
		return nil
	}
	return pd.child[indexAt(vpn, LevelPD)]
}

// Map4K installs a 4 KiB mapping vpn -> pfn with the given flags.
// FlagPresent is implied.
func (t *Table) Map4K(vpn mem.VPN, pfn mem.PFN, flags PTE) { t.MapRange4K(vpn, pfn, 1, flags) }

// MapRange4K installs pages consecutive 4 KiB mappings vpn+k -> pfn+k
// with the given flags (FlagPresent implied). It descends from the root
// once per leaf table and fills up to 512 entries there in a loop. Each
// entry of an existing leaf keeps its ignored bits: anchor contiguity
// written before the page was mapped survives. A leaf the range creates
// is written whole, its entries outside the range zero. It panics,
// before writing anything, when the last frame exceeds the PTE frame
// field.
func (t *Table) MapRange4K(vpn mem.VPN, pfn mem.PFN, pages uint64, flags PTE) {
	t.mapRange(vpn, pfn, pages, flags, 0)
}

// MapRange4KAnchored is MapRange4K followed by SetAnchorContiguity at
// every dist-aligned page of the range, recording the run from that page
// to the range's end: the range must be physically contiguous to its end
// and no further. Each leaf's anchors are written while the fill has the
// leaf in hand. dist must be a power of two >= 2.
func (t *Table) MapRange4KAnchored(vpn mem.VPN, pfn mem.PFN, pages uint64, flags PTE, dist uint64) {
	checkDistance(dist)
	t.mapRange(vpn, pfn, pages, flags, dist)
}

// mapRange is MapRange4K, recording anchors at distance dist when it is
// not zero.
func (t *Table) mapRange(vpn mem.VPN, pfn mem.PFN, pages uint64, flags PTE, dist uint64) {
	if pages == 0 {
		return
	}
	e := ((flags & FlagMask &^ FlagHuge) | FlagPresent).WithPFN(pfn)
	if pages-1 > uint64(MaxPFN-pfn) {
		panic(pfnOverflow(uint64(MaxPFN) + 1))
	}
	end := vpn + mem.VPN(pages)
	for pages > 0 {
		lf, created := t.ensureLeaf(vpn)
		i := indexAt(vpn, LevelPT)
		n := min(pages, uint64(entriesPerNode-i))
		j := i + int(n)
		if created {
			// The leaf may hold a released table's entries.
			clear(lf[:i])
			for k := i; k < j; k++ {
				lf[k] = e
				e += 1 << pfnShift
			}
			clear(lf[j:])
		} else {
			for k := i; k < j; k++ {
				lf[k] = lf[k]&ignMask | e
				e += 1 << pfnShift
			}
		}
		t.stats.PTEWrites += n
		if dist != 0 {
			t.stats.PTEWrites += writeAnchors(lf, vpn, vpn+mem.VPN(n), end, dist)
		}
		vpn += mem.VPN(n)
		pages -= n
	}
}

// ensureLeaf returns the leaf table holding vpn's entry, allocating the
// path to it, and whether the leaf is new. A new leaf is carved from the
// current slab; its entries are whatever the slab last held.
func (t *Table) ensureLeaf(vpn mem.VPN) (*leaf, bool) {
	pd, i := t.ensurePD(vpn), indexAt(vpn, LevelPD)
	if lf := pd.child[i]; lf != nil {
		return lf, false
	}
	if len(t.slab) == 0 {
		t.slab = t.nextSlab()
	}
	link(t, pd, i, &t.slab[0])
	t.slab = t.slab[1:]
	return pd.child[i], true
}

// nextSlab returns a slab to carve leaves from: the next one the table
// took from its list, or a fresh one.
func (t *Table) nextSlab() []leaf {
	if t.leaves == nil {
		return make([]leaf, leafSlab)
	}
	if t.slabs == nil {
		t.slabs, t.leaves.free = t.leaves.free, nil
	}
	if t.used == len(t.slabs) {
		t.slabs = append(t.slabs, make([]leaf, leafSlab))
	}
	t.used++
	return t.slabs[t.used-1]
}

// Map2M installs a 2 MiB mapping. vpn and pfn must be 512-page aligned.
func (t *Table) Map2M(vpn mem.VPN, pfn mem.PFN, flags PTE) error {
	if !vpn.IsAligned(mem.PagesPer2M) || !pfn.IsAligned(mem.PagesPer2M) {
		return fmt.Errorf("pagetable: unaligned 2M mapping vpn=%#x pfn=%#x", uint64(vpn), uint64(pfn))
	}
	pd := t.ensurePD(vpn)
	i := indexAt(vpn, LevelPD)
	if pd.child[i] != nil {
		return fmt.Errorf("pagetable: 2M mapping at vpn=%#x overlaps existing 4K table", uint64(vpn))
	}
	pd.pte[i] = ((flags & FlagMask) | FlagPresent | FlagHuge).WithPFN(pfn)
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
	pdpt := childAt(t, t.root, indexAt(vpn, LevelPML4))
	i := indexAt(vpn, LevelPDPT)
	if pdpt.child[i] != nil {
		return fmt.Errorf("pagetable: 1G mapping at vpn=%#x overlaps existing tables", uint64(vpn))
	}
	pdpt.pte[i] = ((flags & FlagMask) | FlagPresent | FlagHuge).WithPFN(pfn)
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
	pd := t.pdOf(base)
	if pd == nil {
		return fmt.Errorf("pagetable: no table to collapse at vpn=%#x", uint64(base))
	}
	i := indexAt(base, LevelPD)
	if pd.child[i] == nil {
		return fmt.Errorf("pagetable: no 4K table under vpn=%#x", uint64(base))
	}
	pd.child[i] = nil
	pd.pte[i] = ((flags & FlagMask) | FlagPresent | FlagHuge).WithPFN(pfn)
	t.stats.PTEWrites++
	t.stats.Nodes--
	return nil
}

// Unmap removes the mapping covering vpn (4 KiB entry, or the whole 2 MiB
// entry if vpn lies inside a huge page). It reports whether a mapping was
// removed.
func (t *Table) Unmap(vpn mem.VPN) bool {
	pdpt := t.root.child[indexAt(vpn, LevelPML4)]
	if pdpt == nil {
		return false
	}
	i := indexAt(vpn, LevelPDPT)
	if pdpt.pte[i].Present() && pdpt.pte[i].Huge() {
		pdpt.pte[i] = 0
		t.stats.PTEWrites++
		return true
	}
	pd := pdpt.child[i]
	if pd == nil {
		return false
	}
	i = indexAt(vpn, LevelPD)
	if pd.pte[i].Present() && pd.pte[i].Huge() {
		pd.pte[i] = 0
		t.stats.PTEWrites++
		return true
	}
	lf := pd.child[i]
	if lf == nil {
		return false
	}
	i = indexAt(vpn, LevelPT)
	if !lf[i].Present() {
		return false
	}
	// Clear the entry but keep nothing: contiguity bits of an unmapped
	// page are stale by definition and the OS rewrites anchors after
	// unmap (Section 3.3, "Updating Memory Mapping").
	lf[i] = 0
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
	pdpt := t.root.child[indexAt(vpn, LevelPML4)]
	if pdpt == nil {
		return WalkResult{Levels: 1}
	}
	i := indexAt(vpn, LevelPDPT)
	if e := pdpt.pte[i]; e.Present() && e.Huge() {
		return hugeWalk(vpn, e, mem.Class1G, 2)
	}
	pd := pdpt.child[i]
	if pd == nil {
		return WalkResult{Levels: 2}
	}
	i = indexAt(vpn, LevelPD)
	if e := pd.pte[i]; e.Present() && e.Huge() {
		return hugeWalk(vpn, e, mem.Class2M, 3)
	}
	lf := pd.child[i]
	if lf == nil {
		return WalkResult{Levels: 3}
	}
	e := lf[indexAt(vpn, LevelPT)]
	if !e.Present() {
		return WalkResult{Levels: 4}
	}
	return WalkResult{
		Present: true,
		PFN:     e.PFN(),
		Class:   mem.Class4K,
		Entry:   e,
		BaseVPN: vpn,
		BasePFN: e.PFN(),
		Levels:  4,
	}
}

// hugeWalk is the result of a walk ending at huge entry e after levels
// table reads.
func hugeWalk(vpn mem.VPN, e PTE, class mem.PageClass, levels int) WalkResult {
	base := vpn.AlignDown(class.BasePages())
	return WalkResult{
		Present: true,
		PFN:     e.PFN() + mem.PFN(vpn-base),
		Class:   class,
		Entry:   e,
		BaseVPN: base,
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
	pdpt := t.root.child[indexAt(vpn, LevelPML4)]
	if pdpt == nil {
		return
	}
	i := indexAt(vpn, LevelPDPT)
	if e := pdpt.pte[i]; e.Present() && e.Huge() {
		// PagesPer1G, not Class1G.BasePages(): the method inlines the
		// Shift() switch whose panic string is a (dead) heap escape,
		// which allocgate would flag inside this hotpath region.
		base := vpn.AlignDown(mem.PagesPer1G)
		return e.PFN() + mem.PFN(vpn-base), mem.Class1G, base, e.PFN(), true
	}
	pd := pdpt.child[i]
	if pd == nil {
		return
	}
	i = indexAt(vpn, LevelPD)
	if e := pd.pte[i]; e.Present() && e.Huge() {
		base := vpn.AlignDown(mem.PagesPer2M)
		return e.PFN() + mem.PFN(vpn-base), mem.Class2M, base, e.PFN(), true
	}
	lf := pd.child[i]
	if lf == nil {
		return
	}
	e := lf[indexAt(vpn, LevelPT)]
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
	pdpt := t.root.child[indexAt(vpn, LevelPML4)]
	if pdpt == nil {
		return 0
	}
	// A huge PDPT or PD entry never has a child table, so following
	// children alone reaches only 4 KiB leaves.
	pd := pdpt.child[indexAt(vpn, LevelPDPT)]
	if pd == nil {
		return 0
	}
	lf := pd.child[indexAt(vpn, LevelPD)]
	if lf == nil {
		return 0
	}
	first := indexAt(vpn, LevelPT) &^ (EntriesPerCacheBlock - 1)
	var bitmap uint8
	for off := 0; off < EntriesPerCacheBlock; off++ {
		if e := lf[first+off]; e.Present() && e.PFN() == pfnBase+mem.PFN(off) {
			bitmap |= 1 << uint(off)
		}
	}
	return bitmap
}

// Range calls fn for every present 4 KiB leaf entry in ascending VPN order.
// 2 MiB mappings are reported once with their base VPN and class Class2M
// (1 GiB mappings likewise, with Class1G). fn returning false stops the
// iteration. fn may rewrite leaf entries in place (SweepAnchors does);
// each entry is read when the iteration reaches it.
func (t *Table) Range(fn func(vpn mem.VPN, e PTE, class mem.PageClass) bool) {
	for i4, pdpt := range &t.root.child {
		if pdpt == nil {
			continue
		}
		base1G := mem.VPN(i4) << 27
		for i3, pd := range &pdpt.child {
			vpn2M := base1G + mem.VPN(i3)<<18
			if e := pdpt.pte[i3]; e.Present() && e.Huge() {
				if !fn(vpn2M, e, mem.Class1G) {
					return
				}
				continue
			}
			if pd == nil {
				continue
			}
			for i2, lf := range &pd.child {
				vpn4K := vpn2M + mem.VPN(i2)<<9
				if e := pd.pte[i2]; e.Present() && e.Huge() {
					if !fn(vpn4K, e, mem.Class2M) {
						return
					}
					continue
				}
				if lf == nil {
					continue
				}
				for i1 := 0; i1 < entriesPerNode; i1++ {
					if e := lf[i1]; e.Present() && !fn(vpn4K+mem.VPN(i1), e, mem.Class4K) {
						return
					}
				}
			}
		}
	}
}

// WalkLines returns the physical addresses of the page table entries a
// hardware walk of vpn touches, from the root down, stopping at the leaf
// (or at the first non-present level). The detailed walk-latency model
// feeds these through a cache hierarchy.
func (t *Table) WalkLines(vpn mem.VPN) []mem.PhysAddr {
	out := make([]mem.PhysAddr, 0, int(numLevels))
	entry := func(table mem.PhysAddr, l Level) { out = append(out, table+mem.PhysAddr(indexAt(vpn, l)*8)) }
	i := indexAt(vpn, LevelPML4)
	entry(tableRegionBase, LevelPML4)
	pdpt := t.root.child[i]
	if pdpt == nil {
		return out
	}
	entry(tableAddr(t.root.pte[i]), LevelPDPT)
	i = indexAt(vpn, LevelPDPT)
	pd := pdpt.child[i]
	if e := pdpt.pte[i]; (e.Present() && e.Huge()) || pd == nil {
		return out
	}
	entry(tableAddr(pdpt.pte[i]), LevelPD)
	i = indexAt(vpn, LevelPD)
	if e := pd.pte[i]; (e.Present() && e.Huge()) || pd.child[i] == nil {
		return out
	}
	entry(tableAddr(pd.pte[i]), LevelPT)
	return out
}
