package mmu

import (
	"hybridtlb/internal/mem"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/tlb"
)

// standardMMU implements the Base and THP schemes: split L1s over a
// shared set-associative L2 that holds 4 KiB entries and (under THP)
// 2 MiB entries. The two schemes differ only in the OS mapping policy
// that feeds them.
type standardMMU struct {
	scheme Scheme
	cfg    Config
	proc   *osmem.Process
	l1     l1
	l2     *tlb.Cache
	stats  Stats
}

func newStandard(s Scheme, cfg Config, proc *osmem.Process) *standardMMU {
	return &standardMMU{
		scheme: s,
		cfg:    cfg,
		proc:   proc,
		l1:     newL1(cfg),
		l2:     tlb.NewCache(cfg.L2Entries/cfg.L2Ways, cfg.L2Ways),
	}
}

func (m *standardMMU) Scheme() Scheme { return m.scheme }
func (m *standardMMU) Stats() Stats   { return m.stats }

func (m *standardMMU) Flush() {
	m.l1.flush()
	m.l2.Flush()
}

// Invalidate implements the single-entry shootdown.
func (m *standardMMU) Invalidate(vpn mem.VPN) {
	m.l1.invalidate(vpn)
	invalidateL2Regular(m.l2, vpn)
}

// probeL2 performs the parallel 4 KiB + 2 MiB L2 lookup shared by the
// standard, RMM and anchor schemes.
func probeL2(c *tlb.Cache, vpn mem.VPN) (mem.PFN, mem.PageClass, bool) {
	set4 := int(uint64(vpn) & c.SetMask())
	if e, ok := c.Lookup(set4, tlb.Key(tlb.Kind4K, uint64(vpn))); ok {
		return e.PFNBase, mem.Class4K, true
	}
	base := vpn.AlignDown(mem.PagesPer2M)
	set2 := int((uint64(vpn) >> 9) & c.SetMask())
	if e, ok := c.Lookup(set2, tlb.Key(tlb.Kind2M, uint64(base))); ok {
		return e.PFNBase + mem.PFN(vpn-base), mem.Class2M, true
	}
	return 0, mem.Class4K, false
}

// fillL2 installs a walked translation as a regular L2 entry.
func fillL2(c *tlb.Cache, vpn mem.VPN, w walkInfo) {
	if w.class == mem.Class2M {
		set := int((uint64(vpn) >> 9) & c.SetMask())
		c.InsertNew(set, tlb.Key(tlb.Kind2M, uint64(w.baseVPN)), tlb.Entry{
			Kind: tlb.Kind2M, VPNBase: w.baseVPN, PFNBase: w.basePFN,
		})
		return
	}
	set := int(uint64(vpn) & c.SetMask())
	c.InsertNew(set, tlb.Key(tlb.Kind4K, uint64(vpn)), tlb.Entry{
		Kind: tlb.Kind4K, VPNBase: vpn, PFNBase: w.pfn,
	})
}

// walkInfo condenses a page walk result for the fill helpers.
type walkInfo struct {
	present bool
	pfn     mem.PFN
	class   mem.PageClass
	baseVPN mem.VPN
	basePFN mem.PFN
}

// walkTimed performs the walk and returns its latency: the flat Table 3
// cost, or the detailed cache+PWC model when configured. The config is
// passed by pointer and the WalkResult is condensed in place (no helper
// frame) because this sits on the translation hot path.
func walkTimed(proc *osmem.Process, vpn mem.VPN, cfg *Config) (walkInfo, uint64) {
	var wi walkInfo
	wi.pfn, wi.class, wi.baseVPN, wi.basePFN, wi.present = proc.PageTable().WalkFast(vpn)
	if cfg.Walk != nil {
		return wi, cfg.Walk.Cost(proc, vpn)
	}
	return wi, cfg.WalkCycles
}

func (m *standardMMU) TranslateBatch(vpns []mem.VPN) {
	for _, vpn := range vpns {
		m.Translate(vpn)
	}
}

//tlbvet:hotpath
func (m *standardMMU) Translate(vpn mem.VPN) AccessResult {
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
	w, walkCost := walkTimed(m.proc, vpn, &m.cfg)
	m.stats.Cycles += walkCost
	if !w.present {
		m.stats.Faults++
		return AccessResult{Cycles: walkCost, Outcome: OutFault}
	}
	m.stats.Walks++
	fillL2(m.l2, vpn, w)
	m.l1.fill(vpn, w.pfn, w.class)
	return AccessResult{PFN: w.pfn, Cycles: walkCost, Outcome: OutWalk}
}
