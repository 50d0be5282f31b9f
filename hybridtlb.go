// Package hybridtlb is a library implementation of "Hybrid TLB
// Coalescing: Improving TLB Translation Coverage under Diverse Fragmented
// Memory Allocations" (Park, Heo, Jeong, Huh — ISCA 2017), together with
// the full substrate the paper's evaluation rests on: a buddy physical
// allocator, an anchored x86-64 page table, a configurable TLB hierarchy,
// the prior schemes it compares against (THP, cluster TLB, CoLT, RMM),
// an OS memory-management model, synthetic benchmark workloads, and a
// trace-driven simulator that regenerates every table and figure of the
// paper's evaluation.
//
// Two entry points cover most uses:
//
//   - System gives direct, stateful control: install a memory mapping,
//     translate addresses through a chosen scheme, and inspect hit/miss
//     statistics and the anchor machinery.
//
//   - Simulate runs a whole benchmark-over-mapping experiment and
//     returns the paper's metrics (TLB misses, translation CPI, L2
//     breakdowns).
//
// The anchor distance selection algorithm (Algorithm 1 in the paper) is
// exposed as SelectAnchorDistance.
package hybridtlb

import (
	"fmt"
	"sort"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
)

// Chunk describes a physically contiguous piece of a process mapping:
// Pages consecutive virtual pages starting at VirtPage map to Pages
// consecutive physical frames starting at PhysPage. Page numbers are in
// 4 KiB units.
type Chunk struct {
	VirtPage uint64
	PhysPage uint64
	Pages    uint64
}

// Scheme names accepted by NewSystem and Simulate.
const (
	SchemeBase      = "base"        // 4 KiB pages only
	SchemeTHP       = "thp"         // transparent huge pages
	SchemeCluster   = "cluster"     // cluster TLB (no huge pages)
	SchemeCluster2M = "cluster-2mb" // cluster TLB + huge pages
	SchemeRMM       = "rmm"         // redundant memory mappings (range TLB)
	SchemeAnchor    = "anchor"      // the paper's hybrid coalescing
	SchemeCoLT      = "colt"        // CoLT-SA (extension baseline)
	SchemeCoLTFA    = "colt-fa"     // CoLT fully associative mode (extension baseline)
)

// Schemes lists the available translation schemes.
func Schemes() []string {
	var out []string
	for _, s := range mmu.All() {
		out = append(out, s.String())
	}
	return out
}

// Stats reports translation behaviour. Misses counts L2 TLB misses (page
// walks), the paper's headline metric.
type Stats struct {
	Accesses      uint64
	L1Hits        uint64
	L2RegularHits uint64
	CoalescedHits uint64
	Misses        uint64
	Cycles        uint64
}

// Hardware configures TLB geometry and latencies. The zero value uses the
// paper's Table 3 configuration.
type Hardware struct {
	// L2Entries/L2Ways size the shared second-level TLB (default 1024/8).
	L2Entries, L2Ways int
	// RangeEntries sizes RMM's fully associative range TLB (default 32).
	RangeEntries int
	// L2HitCycles, CoalescedHitCycles and WalkCycles are the latency
	// parameters (defaults 7 / 8 / 50).
	L2HitCycles, CoalescedHitCycles, WalkCycles uint64
}

// toConfig resolves the hardware description against Table 3 and
// validates the L2 geometry once for every entry point: L2Entries/L2Ways
// is the set count, which must be a power of two of at least 1 for the
// TLB to be indexed by address bits.
func (h Hardware) toConfig() (mmu.Config, error) {
	cfg := mmu.DefaultConfig()
	if h.L2Entries > 0 {
		cfg.L2Entries = h.L2Entries
	}
	if h.L2Ways > 0 {
		cfg.L2Ways = h.L2Ways
	}
	if h.RangeEntries > 0 {
		cfg.RangeEntries = h.RangeEntries
	}
	if h.L2HitCycles > 0 {
		cfg.L2HitCycles = h.L2HitCycles
	}
	if h.CoalescedHitCycles > 0 {
		cfg.CoalescedHitCycles = h.CoalescedHitCycles
	}
	if h.WalkCycles > 0 {
		cfg.WalkCycles = h.WalkCycles
	}
	if sets := cfg.L2Entries / cfg.L2Ways; sets < 1 || !mem.IsPow2(uint64(sets)) {
		return mmu.Config{}, fmt.Errorf("hybridtlb: L2 of %d entries in %d ways has %d sets; the set count must be a power of two of at least 1",
			cfg.L2Entries, cfg.L2Ways, sets)
	}
	return cfg, nil
}

// Option configures a System.
type Option func(*systemOptions)

type systemOptions struct {
	hw            Hardware
	fixedDistance uint64
	costModelName string
}

// WithHardware overrides TLB geometry and latencies.
func WithHardware(h Hardware) Option {
	return func(o *systemOptions) { o.hw = h }
}

// WithFixedAnchorDistance pins the anchor scheme's distance instead of
// selecting it dynamically from the mapping's contiguity histogram.
func WithFixedAnchorDistance(pages uint64) Option {
	return func(o *systemOptions) { o.fixedDistance = pages }
}

// Distance-selection cost model names (see WithCostModel and
// SimulationConfig.CostModel).
const (
	// CostModelEntryCount is the default: it minimizes the hypothetical
	// TLB entry count and reproduces the paper's Table 6 selections.
	CostModelEntryCount = "entry-count"
	// CostModelCoverageWeighted is the arithmetic written in the paper's
	// Algorithm 1 listing (inverse-coverage weights).
	CostModelCoverageWeighted = "coverage-weighted"
	// CostModelCapacityAware is this repository's extension: it
	// maximizes the footprint covered by an L2's worth of the
	// highest-coverage entries, which helps when the mapping needs more
	// entries than the TLB holds.
	CostModelCapacityAware = "capacity-aware"
)

// WithCostModel selects the anchor-distance-selection cost model by name.
func WithCostModel(name string) Option {
	return func(o *systemOptions) { o.costModelName = name }
}

// System is a live translation system: an OS memory-management model plus
// the hardware MMU of one scheme.
type System struct {
	schemeName string
	scheme     mmu.Scheme
	proc       *osmem.Process
	mmu        mmu.MMU
	hw         mmu.Config
	fixedDist  uint64
}

// NewSystem creates a system for the named scheme (see Schemes).
func NewSystem(scheme string, opts ...Option) (*System, error) {
	s, err := mmu.ParseScheme(scheme)
	if err != nil {
		return nil, err
	}
	var o systemOptions
	for _, fn := range opts {
		fn(&o)
	}
	if o.fixedDistance != 0 && !core.ValidDistance(o.fixedDistance) {
		return nil, fmt.Errorf("hybridtlb: invalid anchor distance %d (must be a power of two in [2, 65536])", o.fixedDistance)
	}
	costModel, err := core.ParseCostModel(o.costModelName)
	if err != nil {
		return nil, err
	}
	hw, err := o.hw.toConfig()
	if err != nil {
		return nil, err
	}
	pol := s.Policy()
	pol.Cost = costModel
	proc := osmem.NewProcess(pol)
	return &System{
		schemeName: scheme,
		scheme:     s,
		proc:       proc,
		mmu:        mmu.New(s, hw, proc),
		hw:         hw,
		fixedDist:  o.fixedDistance,
	}, nil
}

// Scheme returns the system's scheme name.
func (s *System) Scheme() string { return s.schemeName }

// Map installs (replacing any previous mapping) the given chunks: the OS
// lays them out with the scheme's page-size policy, writes anchor entries
// where applicable, and flushes the TLBs.
func (s *System) Map(chunks []Chunk) error {
	cl := make(mem.ChunkList, 0, len(chunks))
	for _, c := range chunks {
		cl = append(cl, mem.Chunk{StartVPN: mem.VPN(c.VirtPage), StartPFN: mem.PFN(c.PhysPage), Pages: c.Pages})
	}
	return s.proc.InstallChunks(cl, s.fixedDist)
}

// MapRegions installs the chunks with per-region anchor distances — the
// paper's Section 4.2 multi-region extension. The address space is
// partitioned into at most 8 regions of similar contiguity, each with its
// own distance. Requires the anchor scheme.
func (s *System) MapRegions(chunks []Chunk) error {
	cl := make(mem.ChunkList, 0, len(chunks))
	for _, c := range chunks {
		cl = append(cl, mem.Chunk{StartVPN: mem.VPN(c.VirtPage), StartPFN: mem.PFN(c.PhysPage), Pages: c.Pages})
	}
	return s.proc.InstallChunksRegions(cl, 0)
}

// AnchorRegion is one region of a multi-region install.
type AnchorRegion struct {
	StartPage, EndPage uint64 // [StartPage, EndPage) in 4 KiB pages
	Distance           uint64 // anchor distance in pages
}

// Regions returns the multi-region table (nil for single-distance
// systems).
func (s *System) Regions() []AnchorRegion {
	var out []AnchorRegion
	for _, r := range s.proc.Regions() {
		out = append(out, AnchorRegion{StartPage: uint64(r.Start), EndPage: uint64(r.End), Distance: r.Distance})
	}
	return out
}

// AddChunk maps an additional chunk without disturbing the rest of the
// mapping (a dynamic allocation).
func (s *System) AddChunk(c Chunk) error {
	return s.proc.AppendChunk(mem.Chunk{StartVPN: mem.VPN(c.VirtPage), StartPFN: mem.PFN(c.PhysPage), Pages: c.Pages})
}

// Protect sets the protection of pages virtual pages starting at
// virtPage. prot uses ls-style notation ("r--", "rw-", "r-x", "rwx").
// Anchors never cover across a protection boundary (Section 3.3 of the
// paper), so affected anchor entries are re-clamped and shot down.
func (s *System) Protect(virtPage, pages uint64, prot string) error {
	p, err := parseProt(prot)
	if err != nil {
		return err
	}
	return s.proc.SetProtection(mem.VPN(virtPage), pages, p)
}

func parseProt(prot string) (osmem.Prot, error) {
	if len(prot) != 3 {
		return 0, fmt.Errorf("hybridtlb: protection %q must be 3 characters like \"rw-\"", prot)
	}
	var p osmem.Prot
	switch prot[0] {
	case 'r':
		p |= osmem.ProtRead
	case '-':
	default:
		return 0, fmt.Errorf("hybridtlb: bad read flag in %q", prot)
	}
	switch prot[1] {
	case 'w':
		p |= osmem.ProtWrite
	case '-':
	default:
		return 0, fmt.Errorf("hybridtlb: bad write flag in %q", prot)
	}
	switch prot[2] {
	case 'x':
		p |= osmem.ProtExec
	case '-':
	default:
		return 0, fmt.Errorf("hybridtlb: bad exec flag in %q", prot)
	}
	return p, nil
}

// Unmap removes pages virtual pages starting at virtPage, updating the
// affected anchor entries and invalidating stale TLB entries.
func (s *System) Unmap(virtPage, pages uint64) {
	s.proc.UnmapRange(mem.VPN(virtPage), pages)
}

// Translate translates a byte-granular virtual address through the TLB
// hierarchy, updating hardware state and statistics. ok is false for
// unmapped addresses.
func (s *System) Translate(virtAddr uint64) (physAddr uint64, ok bool) {
	va := mem.VirtAddr(virtAddr)
	res := s.mmu.Translate(va.PageNumber())
	if res.Outcome == mmu.OutFault {
		return 0, false
	}
	return uint64(res.PFN.Addr()) + va.Offset(), true
}

// TranslatePage translates a 4 KiB virtual page number.
func (s *System) TranslatePage(virtPage uint64) (physPage uint64, ok bool) {
	res := s.mmu.Translate(mem.VPN(virtPage))
	if res.Outcome == mmu.OutFault {
		return 0, false
	}
	return uint64(res.PFN), true
}

// Stats returns accumulated translation statistics.
func (s *System) Stats() Stats {
	st := s.mmu.Stats()
	return Stats{
		Accesses:      st.Accesses,
		L1Hits:        st.L1Hits,
		L2RegularHits: st.L2RegularHits,
		CoalescedHits: st.CoalescedHits,
		Misses:        st.Misses(),
		Cycles:        st.Cycles,
	}
}

// AnchorDistance returns the process's current anchor distance in pages
// (meaningful for the anchor scheme).
func (s *System) AnchorDistance() uint64 { return s.proc.AnchorDistance() }

// SetAnchorDistance changes the anchor distance: the OS sweeps the page
// table to rewrite anchors at the new alignment and flushes the TLBs.
func (s *System) SetAnchorDistance(pages uint64) error {
	if !core.ValidDistance(pages) {
		return fmt.Errorf("hybridtlb: invalid anchor distance %d", pages)
	}
	s.proc.SetDistance(pages)
	return nil
}

// Compact defragments the process: frames are relocated so virtually
// adjacent chunks become physically adjacent (Linux memory compaction),
// anchors are rewritten, and the anchor distance is re-selected against
// the new contiguity histogram. targetPhysPage is the base of the free
// zone receiving the compacted image. It returns how many chunks remain,
// or an error, with nothing moved, when the image would end past the
// last frame a page table entry can hold.
func (s *System) Compact(targetPhysPage uint64) (int, error) {
	res, err := s.proc.Compact(mem.PFN(targetPhysPage), osmem.DefaultSweepCost)
	return res.ChunksAfter, err
}

// PromoteHugePages runs a khugepaged-style pass: 2 MiB-aligned congruent
// uniformly-protected 4 KiB runs collapse into huge pages. It returns the
// number of pages promoted.
func (s *System) PromoteHugePages() int {
	return s.proc.PromoteHugePages().Promoted
}

// Reselect re-runs the dynamic distance selection against the current
// mapping (what the OS does periodically); it reports whether the
// distance changed.
func (s *System) Reselect() (changed bool, distance uint64) {
	r := s.proc.Reselect(osmem.DefaultSweepCost)
	return r.Changed, r.Selected
}

// ContiguityHistogram returns the mapping's chunk-size histogram as a
// contiguity (pages) -> chunk-count map, the input of Algorithm 1.
func (s *System) ContiguityHistogram() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for _, b := range s.proc.Histogram() {
		out[b.Contiguity] = b.Frequency
	}
	return out
}

// FootprintPages returns the number of mapped 4 KiB pages.
func (s *System) FootprintPages() uint64 { return s.proc.FootprintPages() }

// SelectAnchorDistance runs the paper's dynamic anchor distance selection
// (Algorithm 1) over a contiguity histogram mapping chunk size (in pages)
// to chunk count, returning the chosen distance in pages.
func SelectAnchorDistance(histogram map[uint64]uint64) uint64 {
	h := make(mem.Histogram, 0, len(histogram))
	for cont, freq := range histogram {
		h = append(h, mem.HistogramBin{Contiguity: cont, Frequency: freq})
	}
	// Algorithm 1 accumulates per-bin float costs; summation order must
	// not depend on map iteration order or the selected distance could
	// differ across runs on cost ties within an ULP.
	sort.Slice(h, func(i, j int) bool { return h[i].Contiguity < h[j].Contiguity })
	d, _ := core.SelectDistance(h)
	return d
}
