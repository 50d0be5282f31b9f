package osmem

import (
	"fmt"
	"sort"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
)

// This file implements the paper's Section 4.2 future-work extension:
// multi-region anchor TLBs. A single per-process anchor distance assumes
// the whole address space has one clusterable chunk size, but different
// semantic regions (code, heap, large mmaps) can have very different
// contiguity. The OS therefore partitions the address space into a small
// number of regions — bounded by the hardware region table, which is
// searched fully associatively in parallel with the L2 lookup — and
// selects an anchor distance per region.

// MaxHWRegions is the hardware region-table capacity. Like RMM's range
// TLB, the table is searched fully associatively, which bounds its size.
const MaxHWRegions = 8

// Region is one address-space region with its own anchor distance.
type Region struct {
	Start    mem.VPN // inclusive
	End      mem.VPN // exclusive
	Distance uint64
}

// Contains reports whether vpn falls inside the region.
func (r Region) Contains(v mem.VPN) bool { return v >= r.Start && v < r.End }

// contiguityClass buckets a chunk size for region clustering: chunks in
// the same class have compatible optimal distances.
func contiguityClass(pages uint64) int {
	switch {
	case pages < 64:
		return 0 // fine-grained
	case pages < 2048:
		return 1 // medium
	default:
		return 2 // huge
	}
}

// PartitionRegions groups a sorted chunk list into at most maxRegions
// virtually contiguous regions of similar chunk size, then selects the
// anchor distance for each region from its own contiguity histogram.
func PartitionRegions(cl mem.ChunkList, maxRegions int) []Region {
	return PartitionRegionsModel(cl, maxRegions, core.CostEntryCount)
}

// PartitionRegionsModel is PartitionRegions with an explicit distance
// cost model.
func PartitionRegionsModel(cl mem.ChunkList, maxRegions int, model core.CostModel) []Region {
	if len(cl) == 0 {
		return nil
	}
	if maxRegions < 1 {
		maxRegions = 1
	}

	// Candidate regions: maximal runs cl[lo:hi] of chunks in the same
	// class, with their page totals.
	type candidate struct {
		lo, hi int
		pages  uint64
		class  int
	}
	var cands []candidate
	for i, c := range cl {
		cls := contiguityClass(c.Pages)
		if n := len(cands); n > 0 && cands[n-1].class == cls {
			cands[n-1].hi = i + 1
			cands[n-1].pages += c.Pages
			continue
		}
		cands = append(cands, candidate{lo: i, hi: i + 1, pages: c.Pages, class: cls})
	}

	// Merge down to the hardware budget: repeatedly merge the adjacent
	// pair with the smallest combined footprint (least-damage greedy),
	// the first such pair on ties.
	for len(cands) > maxRegions {
		best, bestPages := 0, uint64(1)<<63
		for i := 0; i+1 < len(cands); i++ {
			if pages := cands[i].pages + cands[i+1].pages; pages < bestPages {
				best, bestPages = i, pages
			}
		}
		cands[best].hi = cands[best+1].hi
		cands[best].pages = bestPages
		cands = append(cands[:best+1], cands[best+2:]...)
	}

	regions := make([]Region, 0, len(cands))
	for _, c := range cands {
		run := cl[c.lo:c.hi]
		d, _ := core.SelectDistanceModel(mem.BuildHistogram(run), model)
		regions = append(regions, Region{Start: run[0].StartVPN, End: run[len(run)-1].EndVPN(), Distance: d})
	}
	return regions
}

// InstallChunksRegions installs a mapping with per-region anchor
// distances (the multi-region extension). maxRegions is clamped to the
// hardware region table size; zero means MaxHWRegions.
func (p *Process) InstallChunksRegions(cl mem.ChunkList, maxRegions int) error {
	if !p.policy.Anchors {
		return fmt.Errorf("osmem: multi-region install requires an anchor policy")
	}
	if maxRegions <= 0 || maxRegions > MaxHWRegions {
		maxRegions = MaxHWRegions
	}
	sorted, err := installable(cl)
	if err != nil {
		return err
	}
	p.regions = PartitionRegionsModel(sorted, maxRegions, p.policy.Cost)
	p.install(sorted)
	return nil
}

// Regions returns the current region table (nil for single-distance
// processes).
func (p *Process) Regions() []Region { return p.regions }

// distanceForChunk returns the anchor distance governing a chunk (its
// containing region's, or the process distance).
func (p *Process) distanceForChunk(c mem.Chunk) uint64 {
	return p.DistanceAt(c.StartVPN)
}

// DistanceAt returns the anchor distance in effect for a VPN: the
// containing region's distance when a region table is installed, else the
// process-wide distance. The hardware looks the region table up in
// parallel with the L2 probe, so this costs no extra cycles.
func (p *Process) DistanceAt(vpn mem.VPN) uint64 {
	if len(p.regions) == 0 {
		return p.dist
	}
	i := sort.Search(len(p.regions), func(i int) bool { return p.regions[i].End > vpn })
	if i < len(p.regions) && p.regions[i].Contains(vpn) {
		return p.regions[i].Distance
	}
	return p.dist
}
