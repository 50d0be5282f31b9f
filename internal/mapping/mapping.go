// Package mapping generates the virtual-to-physical mapping scenarios the
// paper evaluates (Section 5.1): two "real" mappings produced by a
// buddy-allocator model of Linux demand paging (with THP) and eager
// paging, and the four synthetic mappings of Table 4 (low / medium / high
// / max contiguity) whose chunk sizes are drawn uniformly from fixed
// ranges.
//
// A mapping is a mem.ChunkList: the process's virtual footprint is covered
// back-to-back (no virtual holes, like a heap), and contiguity lives
// entirely in how large the physically contiguous chunks are. All
// generators keep chunks 2 MiB-congruent (the virtual-to-physical offset
// is a multiple of 512 pages) whenever the underlying allocation would be,
// so that transparent huge pages remain possible exactly when they should
// be.
package mapping

import (
	"fmt"
	"math/rand"

	"hybridtlb/internal/mem"
)

// Scenario identifies one of the six mapping scenarios.
type Scenario int

// The mapping scenarios of Section 5.1.
const (
	// Demand models Linux demand paging with THP: physical memory is
	// faulted in 2 MiB units (falling back to scattered 4 KiB pages when
	// the buddy allocator cannot supply an order-9 block), interleaved
	// with background allocation churn.
	Demand Scenario = iota
	// Eager models eager paging: the whole footprint is allocated
	// up-front, page by page through the buddy allocator, so contiguity
	// mirrors the allocator's free-block structure.
	Eager
	// Low is Table 4's "low contiguity": chunks of 1-16 pages.
	Low
	// Medium is Table 4's "medium contiguity": chunks of 1-512 pages.
	Medium
	// High is Table 4's "high contiguity": chunks of 512-65536 pages.
	High
	// Max is Table 4's "max contiguity": every virtually contiguous
	// region maps to one physically contiguous region.
	Max
	numScenarios
)

// String returns the scenario's name as used by the paper's figures.
func (s Scenario) String() string {
	switch s {
	case Demand:
		return "demand"
	case Eager:
		return "eager"
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// ParseScenario resolves a scenario name.
func ParseScenario(name string) (Scenario, error) {
	for s := Demand; s < numScenarios; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("mapping: unknown scenario %q", name)
}

// All returns the six scenarios in the paper's presentation order.
func All() []Scenario {
	return []Scenario{Demand, Eager, Low, Medium, High, Max}
}

// Synthetic reports whether the scenario is one of Table 4's synthetic
// mappings.
func (s Scenario) Synthetic() bool { return s >= Low }

// ChunkRange returns the chunk size range (in pages) of a synthetic
// scenario, as listed in Table 4. It panics for non-synthetic scenarios.
func (s Scenario) ChunkRange() (lo, hi uint64) {
	switch s {
	case Low:
		return 1, 16
	case Medium:
		return 1, 512
	case High:
		return 512, 65536
	default:
		panic("mapping: ChunkRange on non-synthetic scenario " + s.String())
	}
}

// Config parameterizes mapping generation.
type Config struct {
	// FootprintPages is the process footprint in 4 KiB pages.
	FootprintPages uint64
	// BaseVPN is the first virtual page of the footprint; it is aligned
	// up to 512 pages so huge-page congruence is meaningful. Zero means
	// the conventional heap base used throughout the repository.
	BaseVPN mem.VPN
	// Seed makes generation deterministic.
	Seed int64
	// PhysFrames sizes the physical memory for the buddy-backed
	// scenarios. Zero means 2x the footprint.
	PhysFrames uint64
	// Pressure in [0,1] is the background fragmentation level for the
	// buddy-backed scenarios: 0 is a pristine machine, 1 churns and
	// holds as much of the non-footprint memory as possible.
	Pressure float64
	// FineGrained models a process that builds its footprint from many
	// small interleaved allocations (omnetpp- or xalancbmk-like): the
	// buddy-backed scenarios then produce fine-grained chunks no matter
	// how pristine the machine is, and THP never applies.
	FineGrained bool
}

// DefaultBaseVPN is the heap base used when Config.BaseVPN is zero
// (0x10000000 bytes >> 12).
const DefaultBaseVPN mem.VPN = 0x10000

func (c Config) withDefaults() (Config, error) {
	if c.FootprintPages == 0 {
		return c, fmt.Errorf("mapping: zero footprint")
	}
	if c.BaseVPN == 0 {
		c.BaseVPN = DefaultBaseVPN
	}
	c.BaseVPN = c.BaseVPN.AlignUp(mem.PagesPer2M)
	if c.PhysFrames == 0 {
		c.PhysFrames = 2 * c.FootprintPages
	}
	if c.PhysFrames < c.FootprintPages+c.FootprintPages/8 {
		return c, fmt.Errorf("mapping: %d physical frames cannot comfortably back a %d-page footprint", c.PhysFrames, c.FootprintPages)
	}
	if !(c.Pressure >= 0 && c.Pressure <= 1) { // NaN fails both compares
		return c, fmt.Errorf("mapping: pressure %v outside [0,1]", c.Pressure)
	}
	return c, nil
}

// Generate produces the chunk list for a scenario. The result is sorted,
// coalesced, covers exactly [BaseVPN, BaseVPN+FootprintPages) with no
// virtual holes, and is deterministic for a given (scenario, config).
func Generate(s Scenario, cfg Config) (mem.ChunkList, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed ^ int64(s)<<32))
	var cl mem.ChunkList
	switch s {
	case Demand:
		cl, err = demand(cfg, r)
	case Eager:
		cl, err = eager(cfg, r)
	case Low, Medium, High:
		lo, hi := s.ChunkRange()
		cl = synthetic(cfg, r, lo, hi)
	case Max:
		cl = mem.ChunkList{{StartVPN: cfg.BaseVPN, StartPFN: mem.PFN(cfg.BaseVPN), Pages: cfg.FootprintPages}}
	default:
		return nil, fmt.Errorf("mapping: unknown scenario %d", int(s))
	}
	if err != nil {
		return nil, err
	}
	cl.Sort()
	cl = cl.CoalesceVirtual()
	if err := cl.Validate(); err != nil {
		return nil, fmt.Errorf("mapping: generator bug: %w", err)
	}
	if got := cl.TotalPages(); got != cfg.FootprintPages {
		return nil, fmt.Errorf("mapping: generator bug: covered %d pages, want %d", got, cfg.FootprintPages)
	}
	return cl, nil
}

// synthetic lays chunks with sizes uniform in [lo, hi] back-to-back in
// virtual space. Physical placement is sequential with random 2 MiB-
// aligned gaps, preserving huge-page congruence for every chunk while
// guaranteeing physical discontiguity between chunks.
func synthetic(cfg Config, r *rand.Rand, lo, hi uint64) mem.ChunkList {
	var cl mem.ChunkList
	vpn := cfg.BaseVPN
	end := cfg.BaseVPN + mem.VPN(cfg.FootprintPages)
	physCursor := mem.PFN(mem.PagesPer2M) // 512-aligned throughout
	for vpn < end {
		pages := lo + uint64(r.Int63n(int64(hi-lo+1)))
		if max := uint64(end - vpn); pages > max {
			pages = max
		}
		// Congruent placement: pfn mod 512 == vpn mod 512.
		pfn := physCursor + mem.PFN(uint64(vpn)%mem.PagesPer2M)
		cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: pfn, Pages: pages})
		vpn += mem.VPN(pages)
		// Advance past this chunk plus a gap of 1-8 huge-page units so
		// neighbouring chunks are never physically adjacent.
		physCursor = (pfn + mem.PFN(pages)).AlignDown(mem.PagesPer2M) +
			mem.PFN(mem.PagesPer2M*uint64(1+r.Intn(8))+mem.PagesPer2M)
	}
	return cl
}
