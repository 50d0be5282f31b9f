package mem

import (
	"fmt"
	"sort"
)

// Chunk describes a run of virtually- and physically-contiguous base pages:
// Pages consecutive VPNs starting at StartVPN map to Pages consecutive PFNs
// starting at StartPFN. Chunks are the unit in which mapping scenarios are
// described and in which the OS reasons about contiguity (Section 4 of the
// paper: the contiguity histogram is a histogram over chunk sizes).
type Chunk struct {
	StartVPN VPN
	StartPFN PFN
	Pages    uint64
}

// EndVPN returns the first VPN after the chunk.
func (c Chunk) EndVPN() VPN { return c.StartVPN + VPN(c.Pages) }

// EndPFN returns the first PFN after the chunk.
func (c Chunk) EndPFN() PFN { return c.StartPFN + PFN(c.Pages) }

// Contains reports whether the chunk maps the given VPN.
func (c Chunk) Contains(v VPN) bool {
	return v >= c.StartVPN && v < c.EndVPN()
}

// Translate maps a VPN inside the chunk to its PFN. It panics if the VPN is
// outside the chunk; callers check Contains first.
func (c Chunk) Translate(v VPN) PFN {
	if !c.Contains(v) {
		panic(fmt.Sprintf("mem: VPN %#x outside chunk [%#x,%#x)", uint64(v), uint64(c.StartVPN), uint64(c.EndVPN())))
	}
	return c.StartPFN + PFN(v-c.StartVPN)
}

// Bytes returns the chunk size in bytes.
func (c Chunk) Bytes() uint64 { return c.Pages * Size4K }

// String renders the chunk as "VPN[a,b) -> PFN[c,d)".
func (c Chunk) String() string {
	return fmt.Sprintf("VPN[%#x,%#x)->PFN[%#x,%#x)",
		uint64(c.StartVPN), uint64(c.EndVPN()), uint64(c.StartPFN), uint64(c.EndPFN()))
}

// ChunkList is a set of non-overlapping chunks ordered by StartVPN.
// It is the canonical in-memory representation of a process memory mapping.
type ChunkList []Chunk

// Sort orders the list by StartVPN.
func (cl ChunkList) Sort() {
	sort.Slice(cl, func(i, j int) bool { return cl[i].StartVPN < cl[j].StartVPN })
}

// TotalPages returns the number of mapped base pages.
func (cl ChunkList) TotalPages() uint64 {
	var n uint64
	for _, c := range cl {
		n += c.Pages
	}
	return n
}

// Lookup finds the chunk containing v using binary search over the sorted
// list. The second result is false when v is unmapped.
func (cl ChunkList) Lookup(v VPN) (Chunk, bool) {
	i := sort.Search(len(cl), func(i int) bool { return cl[i].EndVPN() > v })
	if i < len(cl) && cl[i].Contains(v) {
		return cl[i], true
	}
	return Chunk{}, false
}

// Validate checks the invariants of a sorted chunk list: chunks are
// non-empty, ordered, and non-overlapping in virtual address space.
func (cl ChunkList) Validate() error {
	for i, c := range cl {
		if c.Pages == 0 {
			return fmt.Errorf("mem: chunk %d is empty", i)
		}
		if i > 0 && cl[i-1].EndVPN() > c.StartVPN {
			return fmt.Errorf("mem: chunk %d overlaps chunk %d (%s vs %s)", i, i-1, c, cl[i-1])
		}
	}
	return nil
}

// CoalesceVirtual merges chunks that are adjacent in both virtual and
// physical address space. The receiver must be sorted. The result is the
// minimal chunk list describing the same mapping, which is exactly the
// chunk structure the OS contiguity histogram is computed from. It is
// merged in place: the result shares the receiver's storage, and the
// receiver's chunks past the result's length are left as they were.
func (cl ChunkList) CoalesceVirtual() ChunkList {
	if len(cl) == 0 {
		return nil
	}
	out := cl[:1]
	for _, c := range cl[1:] {
		if cur := &out[len(out)-1]; c.StartVPN == cur.EndVPN() && c.StartPFN == cur.EndPFN() {
			cur.Pages += c.Pages
			continue
		}
		out = append(out, c)
	}
	return out
}

// Histogram summarizes chunk sizes as (contiguity, frequency) pairs sorted
// by ascending contiguity. This is the "contiguity histogram" the OS feeds
// into the dynamic anchor distance selection algorithm (Algorithm 1).
type Histogram []HistogramBin

// HistogramBin is one (contiguity, frequency) pair: Frequency chunks of
// exactly Contiguity base pages each.
type HistogramBin struct {
	Contiguity uint64 // chunk size in base pages
	Frequency  uint64 // number of chunks of that size
}

// BuildHistogram computes the contiguity histogram of a chunk list.
func BuildHistogram(cl ChunkList) Histogram {
	counts := make(map[uint64]uint64)
	for _, c := range cl {
		counts[c.Pages]++
	}
	h := make(Histogram, 0, len(counts))
	for cont, freq := range counts {
		h = append(h, HistogramBin{Contiguity: cont, Frequency: freq})
	}
	sort.Slice(h, func(i, j int) bool { return h[i].Contiguity < h[j].Contiguity })
	return h
}

// TotalPages returns the number of pages accounted for by the histogram.
func (h Histogram) TotalPages() uint64 {
	var n uint64
	for _, b := range h {
		n += b.Contiguity * b.Frequency
	}
	return n
}

// TotalChunks returns the number of chunks in the histogram.
func (h Histogram) TotalChunks() uint64 {
	var n uint64
	for _, b := range h {
		n += b.Frequency
	}
	return n
}

// CDF returns the cumulative distribution of *pages* over chunk sizes:
// point (x, y) means a fraction y of all mapped pages live in chunks of at
// most x base pages. This is the quantity plotted in Figure 1 of the paper.
func (h Histogram) CDF() []CDFPoint {
	total := h.TotalPages()
	if total == 0 {
		return nil
	}
	out := make([]CDFPoint, 0, len(h))
	var cum uint64
	for _, b := range h {
		cum += b.Contiguity * b.Frequency
		out = append(out, CDFPoint{ChunkPages: b.Contiguity, CumFraction: float64(cum) / float64(total)})
	}
	return out
}

// CDFPoint is one point of a chunk-size CDF.
type CDFPoint struct {
	ChunkPages  uint64
	CumFraction float64
}
