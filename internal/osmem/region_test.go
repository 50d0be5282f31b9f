package osmem

import (
	"math/rand"
	"slices"
	"testing"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
)

// partitionReference is PartitionRegionsModel as it was before it kept
// each candidate's page total: every merge round re-sums the chunks of
// every adjacent pair. It also counts the rounds in which several pairs
// tied for the smallest total.
func partitionReference(cl mem.ChunkList, maxRegions int, model core.CostModel) (regions []Region, tied int) {
	if len(cl) == 0 {
		return nil, 0
	}
	if maxRegions < 1 {
		maxRegions = 1
	}
	type candidate struct {
		start, end mem.VPN
		chunks     mem.ChunkList
		class      int
	}
	var cands []candidate
	for _, c := range cl {
		cls := contiguityClass(c.Pages)
		if n := len(cands); n > 0 && cands[n-1].class == cls {
			cands[n-1].end = c.EndVPN()
			cands[n-1].chunks = append(cands[n-1].chunks, c)
			continue
		}
		cands = append(cands, candidate{start: c.StartVPN, end: c.EndVPN(), chunks: mem.ChunkList{c}, class: cls})
	}
	for len(cands) > maxRegions {
		best, bestPages := 0, uint64(1)<<63
		for i := 0; i+1 < len(cands); i++ {
			pages := cands[i].chunks.TotalPages() + cands[i+1].chunks.TotalPages()
			if pages < bestPages {
				best, bestPages = i, pages
			}
		}
		for i := best + 1; i+1 < len(cands); i++ {
			if cands[i].chunks.TotalPages()+cands[i+1].chunks.TotalPages() == bestPages {
				tied++
				break
			}
		}
		cands[best].end = cands[best+1].end
		cands[best].chunks = append(cands[best].chunks, cands[best+1].chunks...)
		cands = append(cands[:best+1], cands[best+2:]...)
	}
	for _, c := range cands {
		d, _ := core.SelectDistanceModel(mem.BuildHistogram(c.chunks), model)
		regions = append(regions, Region{Start: c.start, End: c.end, Distance: d})
	}
	return regions, tied
}

// TestPartitionRegionsMatchesReference: on random lists, under both cost
// models and every budget, the partition with running page totals makes
// exactly the regions of the loop that re-summed them. Chunk sizes come
// from a small set on both sides of the class bounds, so many adjacent
// pairs tie and the lowest index must win.
func TestPartitionRegionsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	sizes := []uint64{1, 4, 63, 64, 65, 600, 2047, 2048, 4096}
	ties := 0
	for list := 0; list < 300; list++ {
		var cl mem.ChunkList
		vpn, pfn := mem.VPN(r.Intn(1<<20)), mem.PFN(1<<30)
		for n := 1 + r.Intn(40); n > 0; n-- {
			pages := sizes[r.Intn(len(sizes))]
			cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: pfn, Pages: pages})
			vpn += mem.VPN(pages + uint64(r.Intn(3)))
			pfn += mem.PFN(pages + 1)
		}
		for _, model := range []core.CostModel{core.CostEntryCount, core.CostCapacityAware} {
			for budget := 0; budget <= MaxHWRegions+1; budget++ {
				want, tied := partitionReference(slices.Clone(cl), budget, model)
				if got := PartitionRegionsModel(cl, budget, model); !slices.Equal(got, want) {
					t.Fatalf("list %d, budget %d, %v: regions %+v, want %+v", list, budget, model, got, want)
				}
				ties += tied
			}
		}
	}
	if ties == 0 {
		t.Fatal("no merge round had a tie")
	}
	t.Logf("%d merge rounds with a tie", ties)
}
