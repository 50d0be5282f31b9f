package osmem

import (
	"fmt"
	"slices"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/pagetable"
)

// Process models one process's virtual memory state as the OS sees it:
// the authoritative chunk list, the anchored page table built from it, the
// current anchor distance, and shootdown accounting.
type Process struct {
	pt     *pagetable.Table
	chunks mem.ChunkList
	policy Policy
	dist   uint64
	// leaves is the free list every table of the process draws its leaf
	// tables from, or nil.
	leaves *pagetable.Leaves

	// huge records the base VPNs of promoted 2 MiB pages so unmaps can
	// demote them.
	huge map[mem.VPN]mem.PFN

	// built is the anchor distance a single-distance install built the
	// page table at, and writes the table's PTE writes when it was done:
	// what Rebind checks a table against (see share.go).
	built, writes uint64

	// regions is the multi-region anchor table (Section 4.2 extension);
	// nil for single-distance processes.
	regions []Region

	// prots records explicit page protections (Section 3.3); pages not
	// covered carry ProtDefault.
	prots []protRange

	// Shootdown accounting (Section 3.3: mapping updates invalidate the
	// affected TLB entries; distance changes flush whole TLBs).
	entryShootdowns uint64
	fullFlushes     uint64
	distanceChanges uint64

	flushHooks      []func()
	invalidateHooks []func(mem.VPN)
}

// NewProcess creates a process with the given policy. The anchor distance
// starts at the minimum and is set by InstallChunks or SetDistance.
func NewProcess(pol Policy) *Process { return NewProcessOn(pol, nil) }

// NewProcessOn is NewProcess with page tables drawing their leaf tables
// from leaves (see pagetable.NewOn); nil allocates them. Whoever owns
// leaves hands the memory back with PageTable().Release once the process
// is done.
func NewProcessOn(pol Policy, leaves *pagetable.Leaves) *Process {
	return &Process{
		pt:     pagetable.NewOn(leaves),
		policy: pol,
		dist:   core.MinDistance,
		leaves: leaves,
		huge:   make(map[mem.VPN]mem.PFN),
	}
}

// PageTable exposes the process page table (the MMU walks it).
func (p *Process) PageTable() *pagetable.Table { return p.pt }

// Policy returns the process's mapping policy.
func (p *Process) Policy() Policy { return p.policy }

// AnchorDistance returns the current anchor distance in pages.
func (p *Process) AnchorDistance() uint64 { return p.dist }

// Chunks returns the authoritative mapping. Callers must not mutate it,
// and mapping updates rewrite it in place: copy it to keep it across one.
func (p *Process) Chunks() mem.ChunkList { return p.chunks }

// Histogram computes the contiguity histogram of the current mapping, the
// input to the dynamic distance selection algorithm.
func (p *Process) Histogram() mem.Histogram { return mem.BuildHistogram(p.chunks) }

// EntryShootdowns returns the count of single-entry TLB invalidations the
// OS has issued for mapping updates.
func (p *Process) EntryShootdowns() uint64 { return p.entryShootdowns }

// FullFlushes returns the count of whole-TLB flushes (anchor distance
// changes).
func (p *Process) FullFlushes() uint64 { return p.fullFlushes }

// DistanceChanges returns how many times the anchor distance changed.
func (p *Process) DistanceChanges() uint64 { return p.distanceChanges }

// OnFlush registers a hook invoked on every whole-TLB flush; MMUs register
// their TLB flush here so distance changes invalidate cached translations.
func (p *Process) OnFlush(fn func()) { p.flushHooks = append(p.flushHooks, fn) }

func (p *Process) flushTLBs() {
	p.fullFlushes++
	for _, fn := range p.flushHooks {
		fn()
	}
}

// OnInvalidate registers a hook invoked for every single-entry TLB
// shootdown; MMUs register their entry invalidation here so mapping
// updates evict stale cached translations.
func (p *Process) OnInvalidate(fn func(mem.VPN)) {
	p.invalidateHooks = append(p.invalidateHooks, fn)
}

// shootdown accounts one single-entry shootdown of vpn and delivers it to
// the registered MMUs.
func (p *Process) shootdown(vpn mem.VPN) {
	p.entryShootdowns++
	for _, fn := range p.invalidateHooks {
		fn(vpn)
	}
}

// InstallChunks replaces the process mapping with the given chunk list:
// it coalesces and validates the list, selects the anchor distance from
// the contiguity histogram when the policy uses anchors (unless a
// non-zero fixedDistance pins it, for the static-ideal configuration),
// rebuilds the page table, and flushes TLBs. A rejected list or distance
// leaves the process as it was.
func (p *Process) InstallChunks(cl mem.ChunkList, fixedDistance uint64) error {
	sorted, dist, err := p.prepare(cl, fixedDistance)
	if err != nil {
		return err
	}
	p.installAt(sorted, dist, dist)
	return nil
}

// prepare checks an install of cl at fixedDistance and returns the
// installable list and the anchor distance the process takes: the fixed
// one, the one the policy's cost model selects, or the current one
// without anchors.
func (p *Process) prepare(cl mem.ChunkList, fixedDistance uint64) (mem.ChunkList, uint64, error) {
	if p.policy.Anchors && fixedDistance != 0 && !core.ValidDistance(fixedDistance) {
		return nil, 0, fmt.Errorf("osmem: invalid fixed anchor distance %d", fixedDistance)
	}
	sorted, err := installable(cl)
	if err != nil {
		return nil, 0, err
	}
	return sorted, installDistance(sorted, p.policy, fixedDistance, p.dist), nil
}

// installDistance is the anchor distance an install of the installable
// list cl under pol takes: fixedDistance, or the distance pol's cost
// model selects when it is 0; current without anchors.
func installDistance(cl mem.ChunkList, pol Policy, fixedDistance, current uint64) uint64 {
	switch {
	case !pol.Anchors:
		return current
	case fixedDistance != 0:
		return fixedDistance
	}
	d, _ := core.SelectDistanceModel(mem.BuildHistogram(cl), pol.Cost)
	return d
}

// installAt makes the installable list cl the mapping at the single
// anchor distance dist, with the page table built at distance build.
func (p *Process) installAt(cl mem.ChunkList, dist, build uint64) {
	p.regions = nil
	p.dist = build
	p.install(cl)
	p.dist, p.built, p.writes = dist, build, p.pt.Stats().PTEWrites
}

// installable returns a sorted and coalesced copy of cl, or the reason
// the page table cannot hold it: the one copy an install makes.
func installable(cl mem.ChunkList) (mem.ChunkList, error) {
	sorted := slices.Clone(cl)
	sorted.Sort()
	sorted = sorted.CoalesceVirtual()
	if err := validateChunks(sorted); err != nil {
		return nil, err
	}
	return sorted, nil
}

// install makes the installable list cl the mapping: it rebuilds the
// page table, each chunk at the anchor distance governing it, and
// flushes TLBs.
func (p *Process) install(cl mem.ChunkList) {
	p.chunks = cl
	p.pt = pagetable.NewOn(p.leaves)
	p.huge = make(map[mem.VPN]mem.PFN)
	p.prots = nil
	for _, c := range cl {
		p.installChunkAt(c, p.distanceForChunk(c))
	}
	p.flushTLBs()
}

// lastVPN is the last page of the 48-bit virtual address space the
// four-level table indexes.
const lastVPN = mem.VPN(1)<<(mem.VirtAddrBits-mem.Shift4K) - 1

// checkChunkRange reports a chunk the page table cannot hold: pages past
// the 48-bit virtual address space, which would alias low pages in the
// radix index, or frames past the PTE frame field. c is not empty.
func checkChunkRange(c mem.Chunk) error {
	last := c.Pages - 1
	switch {
	case c.StartVPN > lastVPN || last > uint64(lastVPN-c.StartVPN):
		return fmt.Errorf("osmem: chunk %v extends past the %d-bit virtual address space", c, mem.VirtAddrBits)
	case c.StartPFN > pagetable.MaxPFN || last > uint64(pagetable.MaxPFN-c.StartPFN):
		return fmt.Errorf("osmem: chunk %v extends past frame %#x, the last the PTE frame field holds", c, uint64(pagetable.MaxPFN))
	}
	return nil
}

// validateChunks checks a sorted, coalesced chunk list before it is
// installed: the list invariants, then every chunk's page and frame range.
func validateChunks(cl mem.ChunkList) error {
	if err := cl.Validate(); err != nil {
		return fmt.Errorf("osmem: invalid chunk list: %w", err)
	}
	for _, c := range cl {
		if err := checkChunkRange(c); err != nil {
			return err
		}
	}
	return nil
}

func (p *Process) installChunkAt(c mem.Chunk, dist uint64) {
	var segs [4]Segment
	for _, s := range DecomposeChunk(&segs, c, p.policy, dist) {
		switch s.Kind {
		case Seg2M:
			for off := uint64(0); off < s.Pages; off += mem.PagesPer2M {
				vpn := s.StartVPN + mem.VPN(off)
				pfn := s.StartPFN + mem.PFN(off)
				if err := p.pt.Map2M(vpn, pfn, pagetable.FlagWrite|pagetable.FlagUser); err != nil {
					panic(fmt.Sprintf("osmem: 2M install failed: %v", err))
				}
				p.huge[vpn] = pfn
			}
		case Seg4K:
			p.pt.MapRange4K(s.StartVPN, s.StartPFN, s.Pages, pagetable.FlagWrite|pagetable.FlagUser)
		case SegAnchored:
			// The segment always ends at its chunk's end, so the physical
			// run from each anchor extends to the segment's end.
			p.pt.MapRange4KAnchored(s.StartVPN, s.StartPFN, s.Pages, pagetable.FlagWrite|pagetable.FlagUser, dist)
		}
	}
}

// Translate is the reference translation straight from the chunk list
// (what a correct MMU must produce). The second result is false for
// unmapped VPNs.
func (p *Process) Translate(vpn mem.VPN) (mem.PFN, bool) {
	c, ok := p.chunks.Lookup(vpn)
	if !ok {
		return 0, false
	}
	return c.Translate(vpn), true
}

// FootprintPages returns the number of mapped base pages.
func (p *Process) FootprintPages() uint64 { return p.chunks.TotalPages() }

// HugePages returns how many 2 MiB pages are installed.
func (p *Process) HugePages() int { return len(p.huge) }

// IsHugeMapped reports whether vpn is translated by a 2 MiB page.
func (p *Process) IsHugeMapped(vpn mem.VPN) bool {
	_, ok := p.huge[vpn.AlignDown(mem.PagesPer2M)]
	return ok
}
