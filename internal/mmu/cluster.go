package mmu

import (
	"math/bits"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/pagetable"
	"hybridtlb/internal/tlb"
)

// clusterBlock is the coalescing reach of a cluster TLB entry: one entry
// maps up to 8 pages of an 8-page-aligned virtual block whose frames are
// contiguous relative to the block base (Pham et al., HPCA'14). A block
// is exactly the entries of one 64-byte PTE cache line.
const clusterBlock = pagetable.EntriesPerCacheBlock

// clusterMMU implements the Cluster and Cluster2M schemes: the L2
// capacity is statically partitioned into a regular TLB (4 KiB entries,
// plus 2 MiB entries for Cluster2M) and a cluster TLB whose entries
// coalesce whole blocks. The paper notes this partitioning is exactly
// what hurts cactusADM: cluster entries can sit underutilized while the
// regular partition thrashes.
type clusterMMU struct {
	scheme  Scheme
	cfg     Config
	proc    *osmem.Process
	l1      l1
	regular *tlb.Cache
	cluster *tlb.Cache
	stats   Stats
}

func newCluster(s Scheme, cfg Config, proc *osmem.Process) *clusterMMU {
	return &clusterMMU{
		scheme:  s,
		cfg:     cfg,
		proc:    proc,
		l1:      newL1(cfg),
		regular: tlb.NewCache(cfg.ClusterRegularEntries/cfg.ClusterRegularWays, cfg.ClusterRegularWays),
		cluster: tlb.NewCache(cfg.ClusterEntries/cfg.ClusterWays, cfg.ClusterWays),
	}
}

func (m *clusterMMU) Scheme() Scheme { return m.scheme }
func (m *clusterMMU) Stats() Stats   { return m.stats }

func (m *clusterMMU) Flush() {
	m.l1.flush()
	m.regular.Flush()
	m.cluster.Flush()
}

// Invalidate implements the single-entry shootdown: the regular entry and
// every cluster entry whose block covers vpn are removed.
func (m *clusterMMU) Invalidate(vpn mem.VPN) {
	m.l1.invalidate(vpn)
	invalidateL2Regular(m.regular, vpn)
	block := vpn.AlignDown(clusterBlock)
	set := int((uint64(vpn) / clusterBlock) & m.cluster.SetMask())
	m.cluster.InvalidateCluster(set, block)
}

// probeCluster looks vpn up in a cluster-entry cache: the block tag must
// match and the page's offset bit must be set in the coverage bitmap.
// One virtual block can hold several cluster entries with different
// physical bases (when a block spans a physical-contiguity boundary), so
// the probe scans the set rather than matching a single key.
func probeCluster(c *tlb.Cache, vpn mem.VPN) (mem.PFN, bool) {
	block := vpn.AlignDown(clusterBlock)
	set := int((uint64(vpn) / clusterBlock) & c.SetMask())
	off := uint(vpn - block)
	e, ok := c.LookupCluster(set, block, off)
	if !ok {
		return 0, false
	}
	return e.PFNBase + mem.PFN(off), true
}

// clusterKey builds a replacement key identifying one (block, physical
// base) cluster entry, so refilling the same coalesced run overwrites in
// place while a different run of the same block occupies another way.
func clusterKey(block mem.VPN, pfnBase mem.PFN) uint64 {
	return tlb.Key(tlb.KindCluster, uint64(block)*0x9E3779B97F4A7C15^uint64(pfnBase))
}

// scanBlock builds a cluster entry for the block containing vpn from the
// other page table entries of the same PTE cache line — which the walk
// already fetched, so this costs no extra memory access. The line is read
// in one descent (pagetable.LineBitmap). Bit i is set when block page i
// maps to pfnBase+i.
func scanBlock(proc *osmem.Process, vpn mem.VPN, pfn mem.PFN) (base mem.VPN, pfnBase mem.PFN, bitmap uint8) {
	base = vpn.AlignDown(clusterBlock)
	pfnBase = pfn - mem.PFN(vpn-base)
	return base, pfnBase, proc.PageTable().LineBitmap(vpn, pfnBase)
}

func (m *clusterMMU) TranslateBatch(vpns []mem.VPN) {
	for _, vpn := range vpns {
		m.Translate(vpn)
	}
}

//tlbvet:hotpath
func (m *clusterMMU) Translate(vpn mem.VPN) AccessResult {
	m.stats.Accesses++
	if pfn, ok := m.l1.lookup(vpn); ok {
		m.stats.L1Hits++
		return AccessResult{PFN: pfn, Outcome: OutL1Hit}
	}
	// Regular partition: 4 KiB always, 2 MiB only for cluster-2mb.
	if m.scheme == Cluster2M {
		if pfn, class, ok := probeL2(m.regular, vpn); ok {
			m.stats.L2RegularHits++
			m.stats.Cycles += m.cfg.L2HitCycles
			m.l1.fill(vpn, pfn, class)
			return AccessResult{PFN: pfn, Cycles: m.cfg.L2HitCycles, Outcome: OutL2Hit}
		}
	} else {
		set := int(uint64(vpn) & m.regular.SetMask())
		if e, ok := m.regular.Lookup(set, tlb.Key(tlb.Kind4K, uint64(vpn))); ok {
			m.stats.L2RegularHits++
			m.stats.Cycles += m.cfg.L2HitCycles
			m.l1.fill(vpn, e.PFNBase, mem.Class4K)
			return AccessResult{PFN: e.PFNBase, Cycles: m.cfg.L2HitCycles, Outcome: OutL2Hit}
		}
	}
	if pfn, ok := probeCluster(m.cluster, vpn); ok {
		m.stats.CoalescedHits++
		m.stats.Cycles += m.cfg.CoalescedHitCycles
		m.l1.fill(vpn, pfn, mem.Class4K)
		return AccessResult{PFN: pfn, Cycles: m.cfg.CoalescedHitCycles, Outcome: OutCoalescedHit}
	}

	w, walkCost := walkTimed(m.proc, vpn, &m.cfg)
	m.stats.Cycles += walkCost
	if !w.present {
		m.stats.Faults++
		return AccessResult{Cycles: walkCost, Outcome: OutFault}
	}
	m.stats.Walks++
	switch {
	case w.class == mem.Class2M && m.scheme == Cluster2M:
		fillL2(m.regular, vpn, w)
	case w.class == mem.Class4K:
		base, pfnBase, bitmap := scanBlock(m.proc, vpn, w.pfn)
		if bits.OnesCount8(bitmap) > 1 {
			set := int((uint64(vpn) / clusterBlock) & m.cluster.SetMask())
			m.cluster.Insert(set, clusterKey(base, pfnBase), tlb.Entry{
				Kind: tlb.KindCluster, VPNBase: base, PFNBase: pfnBase, Bitmap: bitmap,
			})
		} else {
			set := int(uint64(vpn) & m.regular.SetMask())
			m.regular.Insert(set, tlb.Key(tlb.Kind4K, uint64(vpn)), tlb.Entry{
				Kind: tlb.Kind4K, VPNBase: vpn, PFNBase: w.pfn,
			})
		}
	default:
		// A 2 MiB mapping under the plain cluster scheme cannot happen:
		// its policy installs no huge pages. Fill nothing defensively.
	}
	m.l1.fill(vpn, w.pfn, w.class)
	return AccessResult{PFN: w.pfn, Cycles: walkCost, Outcome: OutWalk}
}
