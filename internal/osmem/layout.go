// Package osmem models the operating-system side of hybrid TLB
// coalescing (Sections 3.3 and 4 of the paper): it owns a process's
// memory mapping (the chunk list), installs it into an anchored page
// table under a page-size policy, maintains anchor contiguity across
// mapping changes, selects the per-process anchor distance from the
// contiguity histogram, and models the cost of anchor distance changes.
package osmem

import (
	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
)

// Policy describes which translation machinery the OS uses for a process.
// Each translation scheme in internal/mmu pairs with one policy.
type Policy struct {
	// THP promotes 2 MiB-aligned, physically 2 MiB-contiguous regions to
	// huge pages (Linux transparent huge pages).
	THP bool
	// Anchors maintains anchor entries at the process's anchor distance
	// (the paper's scheme). Anchor-covered regions stay 4 KiB-mapped;
	// with THP also set, only regions not covered by anchors are
	// promoted.
	Anchors bool
	// Cost selects the distance-selection cost model (zero value: the
	// entry-count model that reproduces the paper's Table 6).
	Cost core.CostModel
}

// SegKind classifies how a segment of a chunk is mapped.
type SegKind uint8

// Segment kinds produced by DecomposeChunk.
const (
	// Seg4K: plain 4 KiB pages, no anchors.
	Seg4K SegKind = iota
	// Seg2M: one or more 2 MiB huge pages.
	Seg2M
	// SegAnchored: 4 KiB pages covered by anchor entries at every
	// distance-aligned VPN.
	SegAnchored
)

// String names the segment kind.
func (k SegKind) String() string {
	switch k {
	case Seg4K:
		return "4K"
	case Seg2M:
		return "2M"
	case SegAnchored:
		return "anchored"
	default:
		return "SegKind?"
	}
}

// Segment is a physically contiguous portion of a chunk mapped with one
// mechanism.
type Segment struct {
	Kind     SegKind
	StartVPN mem.VPN
	StartPFN mem.PFN
	Pages    uint64
}

// EndVPN returns the first VPN after the segment.
func (s Segment) EndVPN() mem.VPN { return s.StartVPN + mem.VPN(s.Pages) }

// DecomposeChunk splits one physically contiguous chunk into mapping
// segments according to the policy and anchor distance:
//
//   - With anchors, the suffix of the chunk starting at the first
//     distance-aligned VPN is anchor-covered (every aligned anchor inside
//     it records the run length to the chunk end, so all its pages
//     translate through anchors). The misaligned head falls through to
//     the THP/4K rules.
//   - With THP, 2 MiB-aligned subruns (virtually and physically) of
//     non-anchored regions become huge pages.
//   - Everything else is 4 KiB pages.
//
// dist is ignored unless pol.Anchors is set. A chunk has at most four
// segments — a 4 KiB head, a 2 MiB run, a 4 KiB tail and an anchored
// tail — written into segs; the result is their used prefix, so
// decomposing allocates nothing.
func DecomposeChunk(segs *[4]Segment, c mem.Chunk, pol Policy, dist uint64) []Segment {
	n := 0
	end := c.EndVPN()

	nonAnchoredEnd := end
	if pol.Anchors {
		if !core.ValidDistance(dist) {
			panic("osmem: DecomposeChunk with anchors requires a valid distance")
		}
		if a := c.StartVPN.AlignUp(dist); a < end {
			nonAnchoredEnd = a
		}
	}

	// Head region [start, nonAnchoredEnd): THP promotion where possible.
	emit := func(kind SegKind, from, to mem.VPN) {
		if from < to {
			segs[n] = Segment{kind, from, c.Translate(from), uint64(to - from)}
			n++
		}
	}
	v := c.StartVPN
	if pol.THP && nonAnchoredEnd > v {
		// A huge page needs both the VPN and the PFN 512-aligned; since
		// PFN = StartPFN + (VPN - StartVPN), that is possible only when
		// the virtual-to-physical offset is 2 MiB-congruent.
		congruent := (uint64(c.StartVPN)-uint64(c.StartPFN))%mem.PagesPer2M == 0
		if congruent {
			hugeStart := v.AlignUp(mem.PagesPer2M)
			hugeEnd := nonAnchoredEnd.AlignDown(mem.PagesPer2M)
			if hugeStart < hugeEnd {
				emit(Seg4K, v, hugeStart)
				emit(Seg2M, hugeStart, hugeEnd)
				v = hugeEnd
			}
		}
	}
	emit(Seg4K, v, nonAnchoredEnd)

	// Anchored tail [nonAnchoredEnd, end).
	emit(SegAnchored, nonAnchoredEnd, end)
	return segs[:n]
}
