package mmu

import (
	"math/bits"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/tlb"
)

// coltMMU implements CoLT-SA (Pham et al., MICRO'12) as an extension
// baseline: coalesced entries live in the single shared L2 (no static
// partition, unlike the cluster scheme). Each coalesced entry covers the
// contiguously mapped pages of one 8-page-aligned block, discovered from
// the PTE cache line the walk already fetched. CoLT uses no huge pages.
type coltMMU struct {
	cfg   Config
	proc  *osmem.Process
	l1    l1
	l2    *tlb.Cache
	stats Stats
}

func newCoLT(cfg Config, proc *osmem.Process) *coltMMU {
	return &coltMMU{
		cfg:  cfg,
		proc: proc,
		l1:   newL1(cfg),
		l2:   tlb.NewCache(cfg.L2Entries/cfg.L2Ways, cfg.L2Ways),
	}
}

func (m *coltMMU) Scheme() Scheme { return CoLT }
func (m *coltMMU) Stats() Stats   { return m.stats }

func (m *coltMMU) Flush() {
	m.l1.flush()
	m.l2.Flush()
}

// Invalidate implements the single-entry shootdown: the regular entry and
// every coalesced entry whose block covers vpn are removed.
func (m *coltMMU) Invalidate(vpn mem.VPN) {
	m.l1.invalidate(vpn)
	invalidateL2Regular(m.l2, vpn)
	block := vpn.AlignDown(clusterBlock)
	set := int((uint64(vpn) / clusterBlock) & m.l2.SetMask())
	m.l2.InvalidateCluster(set, block)
}

func (m *coltMMU) TranslateBatch(vpns []mem.VPN) {
	for _, vpn := range vpns {
		m.Translate(vpn)
	}
}

//tlbvet:hotpath
func (m *coltMMU) Translate(vpn mem.VPN) AccessResult {
	m.stats.Accesses++
	if pfn, ok := m.l1.lookup(vpn); ok {
		m.stats.L1Hits++
		return AccessResult{PFN: pfn, Outcome: OutL1Hit}
	}
	// Coalesced probe in the shared L2: same access as the 4 KiB probe
	// (single indexing, one extra tag compare), so it costs a regular
	// hit... except we keep the paper's conservative 8-cycle coalesced
	// latency for comparability.
	if pfn, ok := probeCluster(m.l2, vpn); ok {
		m.stats.CoalescedHits++
		m.stats.Cycles += m.cfg.CoalescedHitCycles
		m.l1.fill(vpn, pfn, mem.Class4K)
		return AccessResult{PFN: pfn, Cycles: m.cfg.CoalescedHitCycles, Outcome: OutCoalescedHit}
	}
	set := int(uint64(vpn) & m.l2.SetMask())
	if e, ok := m.l2.Lookup(set, tlb.Key(tlb.Kind4K, uint64(vpn))); ok {
		m.stats.L2RegularHits++
		m.stats.Cycles += m.cfg.L2HitCycles
		m.l1.fill(vpn, e.PFNBase, mem.Class4K)
		return AccessResult{PFN: e.PFNBase, Cycles: m.cfg.L2HitCycles, Outcome: OutL2Hit}
	}

	w, walkCost := walkTimed(m.proc, vpn, &m.cfg)
	m.stats.Cycles += walkCost
	if !w.present {
		m.stats.Faults++
		return AccessResult{Cycles: walkCost, Outcome: OutFault}
	}
	m.stats.Walks++
	base, pfnBase, bitmap := scanBlock(m.proc, vpn, w.pfn)
	if bits.OnesCount8(bitmap) > 1 {
		cset := int((uint64(vpn) / clusterBlock) & m.l2.SetMask())
		m.l2.Insert(cset, clusterKey(base, pfnBase), tlb.Entry{
			Kind: tlb.KindCluster, VPNBase: base, PFNBase: pfnBase, Bitmap: bitmap,
		})
	} else {
		fillL2(m.l2, vpn, w)
	}
	m.l1.fill(vpn, w.pfn, w.class)
	return AccessResult{PFN: w.pfn, Cycles: walkCost, Outcome: OutWalk}
}
