package mmu

import (
	"hybridtlb/internal/mem"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/tlb"
)

// coltfaMMU implements CoLT's fully associative mode: beside the regular
// 4 KiB L2 sits a small fully associative array whose entries each map an
// arbitrarily long (capped) contiguous run, discovered by extending the
// walked translation in both directions. The full associativity is what
// caps the entry count (Table 3-era designs used 8-32 entries).
type coltfaMMU struct {
	cfg   Config
	proc  *osmem.Process
	l1    l1
	l2    *tlb.Cache
	runs  *tlb.RangeTLB
	stats Stats
}

func newCoLTFA(cfg Config, proc *osmem.Process) *coltfaMMU {
	return &coltfaMMU{
		cfg:  cfg,
		proc: proc,
		l1:   newL1(cfg),
		l2:   tlb.NewCache(cfg.L2Entries/cfg.L2Ways, cfg.L2Ways),
		runs: tlb.NewRangeTLB(cfg.CoLTFAEntries),
	}
}

func (m *coltfaMMU) Scheme() Scheme { return CoLTFA }
func (m *coltfaMMU) Stats() Stats   { return m.stats }

func (m *coltfaMMU) Flush() {
	m.l1.flush()
	m.l2.Flush()
	m.runs.Flush()
}

// Invalidate implements the single-entry shootdown.
func (m *coltfaMMU) Invalidate(vpn mem.VPN) {
	m.l1.invalidate(vpn)
	invalidateL2Regular(m.l2, vpn)
	m.runs.InvalidateContaining(vpn)
}

// discoverRun returns the run the walked page belongs to: the physically
// contiguous 4 KiB mappings around vpn, capped at CoLTFAMaxPages pages.
// The budget goes forward first (streaming accesses move upward, so it
// is spent on pages not yet translated), then backward with what is
// left. The hardware reads these PTEs from the lines fetched during and
// after the walk, which the model charges nothing; the simulator reads
// the extent from the chunk list in one binary search.
func (m *coltfaMMU) discoverRun(vpn mem.VPN, pfn mem.PFN) tlb.RangeEntry {
	run := tlb.RangeEntry{StartVPN: vpn, StartPFN: pfn, Pages: 1}
	// The chunk extent equals the page-table run: the OS keeps the chunk
	// list as the maximal virtually and physically contiguous runs
	// (installs, appends and compaction coalesce it; unmaps only split it
	// and leave a gap), and colt-fa's policy installs no huge pages, so
	// every page of the chunk is a present 4 KiB mapping of its frame.
	c, ok := m.proc.Chunks().Lookup(vpn)
	if !ok || m.cfg.CoLTFAMaxPages <= 1 {
		return run
	}
	budget := m.cfg.CoLTFAMaxPages - 1
	fwd := min(uint64(c.EndVPN()-vpn-1), budget)
	back := min(uint64(vpn-c.StartVPN), budget-fwd)
	run.StartVPN -= mem.VPN(back)
	run.StartPFN -= mem.PFN(back)
	run.Pages += fwd + back
	return run
}

func (m *coltfaMMU) TranslateBatch(vpns []mem.VPN) {
	for _, vpn := range vpns {
		m.Translate(vpn)
	}
}

//tlbvet:hotpath
func (m *coltfaMMU) Translate(vpn mem.VPN) AccessResult {
	m.stats.Accesses++
	if pfn, ok := m.l1.lookup(vpn); ok {
		m.stats.L1Hits++
		return AccessResult{PFN: pfn, Outcome: OutL1Hit}
	}
	set := int(uint64(vpn) & m.l2.SetMask())
	if e, ok := m.l2.Lookup(set, tlb.Key(tlb.Kind4K, uint64(vpn))); ok {
		m.stats.L2RegularHits++
		m.stats.Cycles += m.cfg.L2HitCycles
		m.l1.fill(vpn, e.PFNBase, mem.Class4K)
		return AccessResult{PFN: e.PFNBase, Cycles: m.cfg.L2HitCycles, Outcome: OutL2Hit}
	}
	if r, ok := m.runs.Lookup(vpn); ok {
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
	if w.class == mem.Class4K {
		if run := m.discoverRun(vpn, w.pfn); run.Pages > 1 {
			m.runs.Insert(run)
		} else {
			fillL2(m.l2, vpn, w)
		}
	}
	m.l1.fill(vpn, w.pfn, w.class)
	return AccessResult{PFN: w.pfn, Cycles: walkCost, Outcome: OutWalk}
}
