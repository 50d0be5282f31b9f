package mmu

import (
	"math/bits"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/tlb"
)

// anchorSet computes the L2 set an anchor entry indexes: bits [d+12,
// d+12+N) of the virtual address, i.e. avpn/d. Distances are always
// powers of two (core.ValidDistance), so the division is a shift — this
// runs on every L2-missing access and a hardware DIV would dominate the
// probe.
func anchorSet(avpn mem.VPN, d uint64, mask uint64) int {
	return int((uint64(avpn) >> uint(bits.TrailingZeros64(d))) & mask)
}

// anchorMMU implements the paper's hybrid TLB coalescing (Sections 3.1
// and 3.2): 4 KiB, 2 MiB and anchor entries share the single L2 array.
// Regular entries index with the usual bits; anchor entries index with
// bits [d+12, d+12+N) of the virtual address (Figure 6), where d is the
// process's anchor distance — read from the per-process anchor distance
// register on every lookup. The L2 operation flow follows Table 2: the
// anchor probe is a second, serialized L2 access, which is why an anchor
// hit costs one cycle more than a regular hit.
type anchorMMU struct {
	cfg   Config
	proc  *osmem.Process
	l1    l1
	l2    *tlb.Cache
	stats Stats

	// actions counts Table 2 rows for detailed reporting (Table 5).
	actions [5]uint64
}

func newAnchor(cfg Config, proc *osmem.Process) *anchorMMU {
	return &anchorMMU{
		cfg:  cfg,
		proc: proc,
		l1:   newL1(cfg),
		l2:   tlb.NewCache(cfg.L2Entries/cfg.L2Ways, cfg.L2Ways),
	}
}

func (m *anchorMMU) Scheme() Scheme { return Anchor }
func (m *anchorMMU) Stats() Stats   { return m.stats }

// Actions returns how often each Table 2 row occurred.
func (m *anchorMMU) Actions() map[core.L2Action]uint64 {
	out := make(map[core.L2Action]uint64, len(m.actions))
	for a, n := range m.actions {
		out[core.L2Action(a)] = n
	}
	return out
}

func (m *anchorMMU) Flush() {
	m.l1.flush()
	m.l2.Flush()
}

// Invalidate implements the single-entry shootdown: both the regular
// entries for vpn and the anchor entry responsible for it (at the current
// anchor distance — distance changes always use a full flush, so no entry
// from an older distance can be live).
func (m *anchorMMU) Invalidate(vpn mem.VPN) {
	m.l1.invalidate(vpn)
	invalidateL2Regular(m.l2, vpn)
	d := m.proc.DistanceAt(vpn)
	avpn := core.AnchorVPN(vpn, d)
	set := anchorSet(avpn, d, m.l2.SetMask())
	m.l2.Invalidate(set, tlb.Key(tlb.KindAnchor, uint64(avpn)))
}

// probeAnchor performs the anchor lookup of Figure 6: index with the
// anchor VPN shifted by the distance, tag on the anchor VPN, then compare
// the VPN's distance from the anchor against the entry's contiguity.
func (m *anchorMMU) probeAnchor(vpn mem.VPN, d uint64) (e tlb.Entry, hit, covered bool) {
	avpn := core.AnchorVPN(vpn, d)
	set := anchorSet(avpn, d, m.l2.SetMask())
	e, hit = m.l2.Lookup(set, tlb.Key(tlb.KindAnchor, uint64(avpn)))
	if !hit {
		return e, false, false
	}
	return e, true, core.Covered(vpn, avpn, e.Contig)
}

// fillAnchor installs an anchor entry.
func (m *anchorMMU) fillAnchor(avpn mem.VPN, appn mem.PFN, contig, d uint64) {
	set := anchorSet(avpn, d, m.l2.SetMask())
	m.l2.InsertNew(set, tlb.Key(tlb.KindAnchor, uint64(avpn)), tlb.Entry{
		Kind: tlb.KindAnchor, VPNBase: avpn, PFNBase: appn, Contig: contig,
	})
}

func (m *anchorMMU) TranslateBatch(vpns []mem.VPN) {
	for _, vpn := range vpns {
		m.Translate(vpn)
	}
}

//tlbvet:hotpath
func (m *anchorMMU) Translate(vpn mem.VPN) AccessResult {
	m.stats.Accesses++
	if pfn, ok := m.l1.lookup(vpn); ok {
		m.stats.L1Hits++
		return AccessResult{PFN: pfn, Outcome: OutL1Hit}
	}
	// The anchor distance register — or, with the multi-region
	// extension, the region table searched in parallel with the L2.
	d := m.proc.DistanceAt(vpn)

	// First L2 access: the regular 4 KiB / 2 MiB probes.
	if pfn, class, ok := probeL2(m.l2, vpn); ok {
		m.actions[core.ActionRegularHit]++
		m.stats.L2RegularHits++
		m.stats.Cycles += m.cfg.L2HitCycles
		m.l1.fill(vpn, pfn, class)
		return AccessResult{PFN: pfn, Cycles: m.cfg.L2HitCycles, Outcome: OutL2Hit}
	}

	// Second L2 access: the anchor probe.
	if e, hit, covered := m.probeAnchor(vpn, d); hit {
		if covered {
			// Table 2 row 2: translation completed through the anchor.
			m.actions[core.ActionAnchorHit]++
			m.stats.CoalescedHits++
			m.stats.Cycles += m.cfg.CoalescedHitCycles
			pfn := core.TranslateViaAnchor(vpn, e.VPNBase, e.PFNBase)
			m.l1.fill(vpn, pfn, mem.Class4K)
			return AccessResult{PFN: pfn, Cycles: m.cfg.CoalescedHitCycles, Outcome: OutCoalescedHit}
		}
		// Table 2 row 3: anchor present but the VPN is outside its
		// contiguity — walk and fill a regular entry.
		w, walkCost := walkTimed(m.proc, vpn, &m.cfg)
		m.stats.Cycles += walkCost
		if !w.present {
			m.stats.Faults++
			return AccessResult{Cycles: walkCost, Outcome: OutFault}
		}
		m.actions[core.ActionFillRegular]++
		m.stats.Walks++
		fillL2(m.l2, vpn, w)
		m.l1.fill(vpn, w.pfn, w.class)
		return AccessResult{PFN: w.pfn, Cycles: walkCost, Outcome: OutWalk}
	}

	// Table 2 rows 4-5: both probes missed. The walker fetches the
	// regular entry (returned to the core first) and the anchor entry,
	// whose PTE cache block arrives with the contiguity bits; the anchor
	// is filled only when its contiguity covers the VPN.
	w, walkCost := walkTimed(m.proc, vpn, &m.cfg)
	m.stats.Cycles += walkCost
	if !w.present {
		m.stats.Faults++
		return AccessResult{Cycles: walkCost, Outcome: OutFault}
	}
	m.stats.Walks++
	avpn := core.AnchorVPN(vpn, d)
	contig := uint64(0)
	var appn mem.PFN
	if apfn, aclass, _, _, present := m.proc.PageTable().WalkFast(avpn); present && aclass == mem.Class4K {
		contig = m.proc.PageTable().AnchorContiguity(avpn, d)
		appn = apfn
	}
	if core.Covered(vpn, avpn, contig) {
		m.actions[core.ActionWalkFillAnchor]++
		m.fillAnchor(avpn, appn, contig, d)
	} else {
		m.actions[core.ActionWalkFillRegular]++
		fillL2(m.l2, vpn, w)
	}
	m.l1.fill(vpn, w.pfn, w.class)
	return AccessResult{PFN: w.pfn, Cycles: walkCost, Outcome: OutWalk}
}
