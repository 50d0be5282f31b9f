package osmem

import (
	"fmt"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/pagetable"
)

// This file implements dynamic mapping updates ("Updating Memory Mapping",
// Section 3.3): whenever pages are allocated, relocated, or deallocated,
// the OS updates the page table entries of the changed pages *and* the
// anchor entries whose contiguity they affect, then invalidates the stale
// TLB entries.

// AppendChunk adds a new physically contiguous chunk to the mapping (a
// fresh allocation). The chunk may be virtually adjacent to an existing
// chunk, in which case contiguity extends and the affected anchors are
// rewritten. New pages are mapped 4 KiB (with THP promotion inside the new
// chunk where alignment allows); anchors over the merged chunk extent are
// recomputed.
func (p *Process) AppendChunk(c mem.Chunk) error {
	if c.Pages == 0 {
		return fmt.Errorf("osmem: empty chunk")
	}
	if err := checkChunkRange(c); err != nil {
		return err
	}
	for _, existing := range p.chunks {
		if c.StartVPN < existing.EndVPN() && existing.StartVPN < c.EndVPN() {
			return fmt.Errorf("osmem: chunk %v overlaps existing %v", c, existing)
		}
	}

	// Map the new pages themselves (THP only inside the fresh chunk; the
	// anchored-tail rule uses the distance in effect at the chunk's VA).
	p.installChunkAt(c, p.distanceForChunk(c))

	// Merge into the authoritative list.
	p.chunks = append(p.chunks, c)
	p.chunks.Sort()
	p.chunks = p.chunks.CoalesceVirtual()

	// If the chunk merged with neighbours, the merged chunk's anchors
	// (including ones before the new pages) see longer runs: rewrite them.
	merged, ok := p.chunks.Lookup(c.StartVPN)
	if !ok {
		panic("osmem: appended chunk not found after merge")
	}
	if merged != c && p.policy.Anchors {
		p.rewriteAnchorsIn(merged.StartVPN, merged.EndVPN())
	}
	return nil
}

// UnmapRange removes [startVPN, startVPN+pages) from the mapping: page
// table entries are cleared (2 MiB pages overlapping the range are demoted
// first), chunks are split, anchors whose runs were cut are rewritten, and
// one TLB entry shootdown is accounted per removed or demoted translation.
// Every split leaves a gap, so the chunk list stays the maximal
// virtually and physically contiguous runs; an empty range is a no-op.
func (p *Process) UnmapRange(startVPN mem.VPN, pages uint64) {
	if pages == 0 {
		return
	}
	endVPN := startVPN + mem.VPN(pages)
	var next mem.ChunkList
	for _, c := range p.chunks {
		if endVPN <= c.StartVPN || c.EndVPN() <= startVPN {
			next = append(next, c)
			continue
		}
		lo, hi := c.StartVPN, c.EndVPN()
		cutLo, cutHi := maxVPN(lo, startVPN), minVPN(hi, endVPN)

		p.demoteHugeOverlapping(cutLo, cutHi, c)
		for v := cutLo; v < cutHi; v++ {
			if p.pt.Unmap(v) {
				p.shootdown(v)
			}
		}
		if lo < cutLo {
			next = append(next, mem.Chunk{StartVPN: lo, StartPFN: c.StartPFN, Pages: uint64(cutLo - lo)})
		}
		if cutHi < hi {
			next = append(next, mem.Chunk{StartVPN: cutHi, StartPFN: c.Translate(cutHi), Pages: uint64(hi - cutHi)})
		}
	}
	next.Sort()
	p.chunks = next

	if p.policy.Anchors {
		// Runs ending at or after the cut changed; rewriting anchors over
		// a window extending one max-contiguity before the cut is safe
		// and simple.
		from := mem.VPN(0)
		if startVPN > mem.VPN(1<<16) {
			from = (startVPN - 1<<16).AlignDown(p.dist)
		}
		p.rewriteAnchorsIn(from, endVPN)
	}
}

// demoteHugeOverlapping demotes every 2 MiB page overlapping [lo, hi) back
// to 4 KiB mappings for the portions that survive (are outside the cut but
// inside the chunk).
func (p *Process) demoteHugeOverlapping(lo, hi mem.VPN, c mem.Chunk) {
	for base := lo.AlignDown(mem.PagesPer2M); base < hi; base += mem.VPN(mem.PagesPer2M) {
		pfn, ok := p.huge[base]
		if !ok {
			continue
		}
		p.pt.Unmap(base)
		p.shootdown(base)
		delete(p.huge, base)
		// The surviving pages are the huge page's share of the chunk
		// minus the cut: at most one run either side of [lo, hi).
		from := maxVPN(base, c.StartVPN)
		to := minVPN(base+mem.VPN(mem.PagesPer2M), c.EndVPN())
		p.remap4K(from, minVPN(to, lo), base, pfn)
		p.remap4K(maxVPN(from, hi), to, base, pfn)
	}
}

// remap4K maps [from, to) with 4 KiB pages as part of the demoted huge
// page base -> pfn; an empty range maps nothing.
func (p *Process) remap4K(from, to, base mem.VPN, pfn mem.PFN) {
	if from < to {
		p.pt.MapRange4K(from, pfn+mem.PFN(from-base), uint64(to-from), pagetable.FlagWrite|pagetable.FlagUser)
	}
}

// rewriteAnchorsIn recomputes anchor contiguity for every distance-aligned
// VPN in [from, to): anchors on mapped 4 KiB pages get the run length to
// their chunk's end; anchors on unmapped or huge-mapped pages are cleared.
// Each rewritten anchor costs one TLB entry shootdown (the anchor entry
// may be cached).
func (p *Process) rewriteAnchorsIn(from, to mem.VPN) {
	// The anchor distance can vary by region (Section 4.2 extension), so
	// the stride is re-derived per anchor.
	d := p.DistanceAt(from)
	for avpn := from.AlignUp(d); avpn < to; {
		d = p.DistanceAt(avpn)
		if !avpn.IsAligned(d) {
			// Region boundary moved us off this region's alignment.
			avpn = avpn.AlignUp(d)
			continue
		}
		run := p.anchorRun(avpn)
		if p.pt.SetAnchorContiguity(avpn, d, run) > 0 {
			p.shootdown(avpn)
		}
		avpn += mem.VPN(d)
	}
}

func minVPN(a, b mem.VPN) mem.VPN {
	if a < b {
		return a
	}
	return b
}

func maxVPN(a, b mem.VPN) mem.VPN {
	if a > b {
		return a
	}
	return b
}
