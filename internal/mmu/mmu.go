// Package mmu composes the TLB structures of internal/tlb into the full
// translation schemes the paper evaluates (Table 3): the baseline 4 KiB
// TLB hierarchy, transparent huge pages, cluster TLB with and without
// 2 MiB support, RMM's range TLB, and the paper's anchor scheme.
//
// Every scheme shares the same L1 (64-entry 4-way for 4 KiB pages plus
// 32-entry 4-way for 2 MiB pages) and differs in how the L2 level is
// organized and what happens on an L2 miss. Latencies follow Table 3:
// the L1 is latency-hidden, a regular L2 hit costs 7 cycles, a coalesced
// hit (cluster / range / anchor) costs 8, and a page walk costs 50.
package mmu

import (
	"fmt"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/tlb"
)

// Scheme identifies a translation scheme.
type Scheme int

// The translation schemes compared in the evaluation.
const (
	// Base: 4 KiB pages only.
	Base Scheme = iota
	// THP: transparent huge pages (4 KiB + 2 MiB shared L2).
	THP
	// Cluster: HW coalescing with a partitioned L2 (768-entry regular
	// 4 KiB TLB + 320-entry cluster-8 TLB), no huge pages.
	Cluster
	// Cluster2M: cluster TLB whose regular partition also holds 2 MiB
	// pages.
	Cluster2M
	// RMM: redundant memory mappings — baseline 4 KiB+2 MiB L2 plus a
	// 32-entry fully associative range TLB holding segment translations.
	RMM
	// Anchor: the paper's hybrid coalescing scheme — 4 KiB, 2 MiB and
	// anchor entries share one L2 with per-kind indexing.
	Anchor
	// CoLT: coalesced large-reach TLB (Pham et al., MICRO'12), modeled
	// as run-coalescing entries in a shared set-associative L2: an entry
	// covers a contiguous run of up to 8 pages starting anywhere in the
	// entry's block. Implemented as an extension baseline.
	CoLT
	// CoLTFA: CoLT's fully associative mode (Section 2.1 of the paper:
	// "a fully associative mode that supports a much larger number of
	// coalesced contiguous pages ... which in turn restricts the number
	// of entries available"): a small fully associative array of
	// arbitrarily long runs beside the regular set-associative L2.
	CoLTFA
	numSchemes
)

// String names the scheme as the paper's figures do.
func (s Scheme) String() string {
	switch s {
	case Base:
		return "base"
	case THP:
		return "thp"
	case Cluster:
		return "cluster"
	case Cluster2M:
		return "cluster-2mb"
	case RMM:
		return "rmm"
	case Anchor:
		return "anchor"
	case CoLT:
		return "colt"
	case CoLTFA:
		return "colt-fa"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme resolves a scheme name.
func ParseScheme(name string) (Scheme, error) {
	for s := Base; s < numSchemes; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("mmu: unknown scheme %q", name)
}

// All returns every scheme in presentation order.
func All() []Scheme {
	return []Scheme{Base, THP, Cluster, Cluster2M, RMM, Anchor, CoLT, CoLTFA}
}

// Policy returns the OS mapping policy the scheme pairs with.
func (s Scheme) Policy() osmem.Policy {
	switch s {
	case Base, Cluster, CoLT, CoLTFA:
		return osmem.Policy{}
	case THP, Cluster2M, RMM:
		return osmem.Policy{THP: true}
	case Anchor:
		return osmem.Policy{THP: true, Anchors: true}
	default:
		panic("mmu: unknown scheme")
	}
}

// Config carries the TLB geometry and latency parameters of Table 3.
type Config struct {
	L1Entries4K, L1Ways4K int
	L1Entries2M, L1Ways2M int

	// L2 geometry for the shared schemes (base/THP/RMM/anchor).
	L2Entries, L2Ways int

	// Cluster partitioning.
	ClusterRegularEntries, ClusterRegularWays int
	ClusterEntries, ClusterWays               int

	// RMM range TLB.
	RangeEntries int

	// CoLT-FA fully associative coalescing TLB: entry count and the
	// maximum pages one entry may coalesce.
	CoLTFAEntries  int
	CoLTFAMaxPages uint64

	// Latencies in cycles.
	L2HitCycles        uint64
	CoalescedHitCycles uint64
	WalkCycles         uint64

	// Walk optionally replaces the flat WalkCycles latency with the
	// detailed cache+PWC walk model (nil: Table 3's constant 50 cycles).
	Walk *WalkModel
}

// DefaultConfig returns Table 3 exactly.
func DefaultConfig() Config {
	return Config{
		L1Entries4K: 64, L1Ways4K: 4,
		L1Entries2M: 32, L1Ways2M: 4,
		L2Entries: 1024, L2Ways: 8,
		ClusterRegularEntries: 768, ClusterRegularWays: 6,
		ClusterEntries: 320, ClusterWays: 5,
		RangeEntries:       32,
		CoLTFAEntries:      16,
		CoLTFAMaxPages:     256,
		L2HitCycles:        7,
		CoalescedHitCycles: 8,
		WalkCycles:         50,
	}
}

// Outcome classifies where a translation was satisfied.
type Outcome int

// Translation outcomes, fastest first.
const (
	// OutL1Hit: satisfied by an L1 TLB (latency hidden).
	OutL1Hit Outcome = iota
	// OutL2Hit: regular L2 entry (4 KiB or 2 MiB).
	OutL2Hit
	// OutCoalescedHit: anchor, cluster, CoLT or range entry.
	OutCoalescedHit
	// OutWalk: page table walk (the "TLB miss" the paper counts).
	OutWalk
	// OutFault: the VPN is unmapped.
	OutFault
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutL1Hit:
		return "l1-hit"
	case OutL2Hit:
		return "l2-hit"
	case OutCoalescedHit:
		return "coalesced-hit"
	case OutWalk:
		return "walk"
	case OutFault:
		return "fault"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// AccessResult reports one translation.
type AccessResult struct {
	PFN     mem.PFN
	Cycles  uint64
	Outcome Outcome
}

// Stats accumulates translation statistics for one MMU.
type Stats struct {
	Accesses      uint64
	L1Hits        uint64
	L2RegularHits uint64
	CoalescedHits uint64
	Walks         uint64 // page walks for mapped pages: the TLB miss count
	Faults        uint64
	Cycles        uint64
}

// L2Accesses returns how many translations reached the L2 level.
func (s Stats) L2Accesses() uint64 { return s.Accesses - s.L1Hits }

// Misses returns the L2 TLB miss count — the paper's "TLB misses" metric.
func (s Stats) Misses() uint64 { return s.Walks + s.Faults }

// MMU is one translation scheme instance bound to a process.
type MMU interface {
	// Scheme identifies the implementation.
	Scheme() Scheme
	// Translate performs one access. Unmapped VPNs report OutFault.
	Translate(vpn mem.VPN) AccessResult
	// TranslateBatch calls Translate on each VPN in order and drops the
	// results: the call the batched drive loop makes once per segment.
	// Each scheme's Translate is its only translation flow.
	TranslateBatch(vpns []mem.VPN)
	// Stats returns the accumulated counters.
	Stats() Stats
	// Flush empties every TLB level (whole-TLB shootdown).
	Flush()
	// Invalidate removes every cached entry that could translate vpn
	// (single-entry shootdown after a mapping update).
	Invalidate(vpn mem.VPN)
}

// New builds the MMU for a scheme over a process whose mapping was
// installed with the scheme's Policy. The MMU registers its Flush with
// the process so OS-initiated shootdowns reach the hardware.
func New(s Scheme, cfg Config, proc *osmem.Process) MMU {
	var m MMU
	switch s {
	case Base, THP:
		m = newStandard(s, cfg, proc)
	case Cluster, Cluster2M:
		m = newCluster(s, cfg, proc)
	case RMM:
		m = newRMM(cfg, proc)
	case Anchor:
		m = newAnchor(cfg, proc)
	case CoLT:
		m = newCoLT(cfg, proc)
	case CoLTFA:
		m = newCoLTFA(cfg, proc)
	default:
		panic("mmu: unknown scheme")
	}
	proc.OnFlush(m.Flush)
	proc.OnInvalidate(m.Invalidate)
	if cfg.Walk != nil {
		proc.OnFlush(cfg.Walk.FlushTranslations)
	}
	return m
}

// l1 bundles the split L1 TLBs every scheme shares.
type l1 struct {
	tlb4K *tlb.Cache
	tlb2M *tlb.Cache
}

func newL1(cfg Config) l1 {
	return l1{
		tlb4K: tlb.NewCache(cfg.L1Entries4K/cfg.L1Ways4K, cfg.L1Ways4K),
		tlb2M: tlb.NewCache(cfg.L1Entries2M/cfg.L1Ways2M, cfg.L1Ways2M),
	}
}

// lookup probes both L1s (they are accessed in parallel in hardware).
func (l *l1) lookup(vpn mem.VPN) (mem.PFN, bool) {
	set4 := int(uint64(vpn) & l.tlb4K.SetMask())
	if e, ok := l.tlb4K.Lookup(set4, tlb.Key(tlb.Kind4K, uint64(vpn))); ok {
		return e.PFNBase, true
	}
	base := vpn.AlignDown(mem.PagesPer2M)
	set2 := int((uint64(vpn) >> 9) & l.tlb2M.SetMask())
	if e, ok := l.tlb2M.Lookup(set2, tlb.Key(tlb.Kind2M, uint64(base))); ok {
		return e.PFNBase + mem.PFN(vpn-base), true
	}
	return 0, false
}

// fill installs the translation of vpn into the appropriate L1.
func (l *l1) fill(vpn mem.VPN, pfn mem.PFN, class mem.PageClass) {
	if class == mem.Class2M {
		base := vpn.AlignDown(mem.PagesPer2M)
		set := int((uint64(vpn) >> 9) & l.tlb2M.SetMask())
		l.tlb2M.InsertNew(set, tlb.Key(tlb.Kind2M, uint64(base)), tlb.Entry{
			Kind: tlb.Kind2M, VPNBase: base, PFNBase: pfn - mem.PFN(vpn-base),
		})
		return
	}
	set := int(uint64(vpn) & l.tlb4K.SetMask())
	l.tlb4K.InsertNew(set, tlb.Key(tlb.Kind4K, uint64(vpn)), tlb.Entry{
		Kind: tlb.Kind4K, VPNBase: vpn, PFNBase: pfn,
	})
}

// invalidate removes any L1 entry translating vpn.
func (l *l1) invalidate(vpn mem.VPN) {
	set4 := int(uint64(vpn) & l.tlb4K.SetMask())
	l.tlb4K.Invalidate(set4, tlb.Key(tlb.Kind4K, uint64(vpn)))
	base := vpn.AlignDown(mem.PagesPer2M)
	set2 := int((uint64(vpn) >> 9) & l.tlb2M.SetMask())
	l.tlb2M.Invalidate(set2, tlb.Key(tlb.Kind2M, uint64(base)))
}

func (l *l1) flush() {
	l.tlb4K.Flush()
	l.tlb2M.Flush()
}

// invalidateL2Regular removes the 4 KiB and 2 MiB entries for vpn from a
// shared L2.
func invalidateL2Regular(c *tlb.Cache, vpn mem.VPN) {
	set4 := int(uint64(vpn) & c.SetMask())
	c.Invalidate(set4, tlb.Key(tlb.Kind4K, uint64(vpn)))
	base := vpn.AlignDown(mem.PagesPer2M)
	set2 := int((uint64(vpn) >> 9) & c.SetMask())
	c.Invalidate(set2, tlb.Key(tlb.Kind2M, uint64(base)))
}
