package mmu

import (
	"hybridtlb/internal/mem"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/tlb"
)

// rmmMMU implements Redundant Memory Mapping (Karakostas et al.,
// ISCA'15) as configured in Table 3: the baseline 4 KiB + 2 MiB L2 plus a
// 32-entry fully associative range TLB. Each physically contiguous chunk
// of the mapping is a range; on a range-TLB miss the "range table walk"
// (here: a chunk list lookup) refills it. RMM excels when a handful of
// huge ranges cover the footprint and collapses when the mapping is
// fragmented into more ranges than the range TLB can hold — exactly the
// trade-off Figure 2 of the paper shows.
type rmmMMU struct {
	cfg    Config
	proc   *osmem.Process
	l1     l1
	l2     *tlb.Cache
	ranges *tlb.RangeTLB
	stats  Stats
}

func newRMM(cfg Config, proc *osmem.Process) *rmmMMU {
	return &rmmMMU{
		cfg:    cfg,
		proc:   proc,
		l1:     newL1(cfg),
		l2:     tlb.NewCache(cfg.L2Entries/cfg.L2Ways, cfg.L2Ways),
		ranges: tlb.NewRangeTLB(cfg.RangeEntries),
	}
}

func (m *rmmMMU) Scheme() Scheme { return RMM }
func (m *rmmMMU) Stats() Stats   { return m.stats }

func (m *rmmMMU) Flush() {
	m.l1.flush()
	m.l2.Flush()
	m.ranges.Flush()
}

// Invalidate implements the single-entry shootdown; ranges covering the
// page are also shot down, since the backing chunk changed.
func (m *rmmMMU) Invalidate(vpn mem.VPN) {
	m.l1.invalidate(vpn)
	invalidateL2Regular(m.l2, vpn)
	m.ranges.InvalidateContaining(vpn)
}

func (m *rmmMMU) TranslateBatch(vpns []mem.VPN) {
	for _, vpn := range vpns {
		m.Translate(vpn)
	}
}

//tlbvet:hotpath
func (m *rmmMMU) Translate(vpn mem.VPN) AccessResult {
	m.stats.Accesses++
	if pfn, ok := m.l1.lookup(vpn); ok {
		m.stats.L1Hits++
		return AccessResult{PFN: pfn, Outcome: OutL1Hit}
	}
	if pfn, class, ok := probeL2(m.l2, vpn); ok {
		m.stats.L2RegularHits++
		m.stats.Cycles += m.cfg.L2HitCycles
		m.l1.fill(vpn, pfn, class)
		return AccessResult{PFN: pfn, Cycles: m.cfg.L2HitCycles, Outcome: OutL2Hit}
	}
	if r, ok := m.ranges.Lookup(vpn); ok {
		pfn := r.Translate(vpn)
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
	fillL2(m.l2, vpn, w)
	// Range table walk: refill the range covering this VPN from the OS's
	// range table (the chunk list).
	if c, ok := m.proc.Chunks().Lookup(vpn); ok {
		m.ranges.Insert(tlb.RangeEntry{StartVPN: c.StartVPN, StartPFN: c.StartPFN, Pages: c.Pages})
	}
	m.l1.fill(vpn, w.pfn, w.class)
	return AccessResult{PFN: w.pfn, Cycles: walkCost, Outcome: OutWalk}
}
