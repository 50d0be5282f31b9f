package osmem

import (
	"fmt"
	"sort"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/pagetable"
)

// This file implements the mapping-reorganization machinery Section 4 of
// the paper attributes to the OS: "The Linux kernel may try compacting
// memory as an effort to create more large pages for the process" and
// "Operating systems may also promote pages into a super page when
// sufficient reserved pages have been touched." Both change the process's
// contiguity histogram, which is exactly what the periodic distance
// re-selection reacts to.

// CompactResult reports one compaction pass.
type CompactResult struct {
	// ChunksBefore and ChunksAfter count physically contiguous chunks.
	ChunksBefore, ChunksAfter int
	// PagesMoved counts frames relocated.
	PagesMoved uint64
	// Reselect is the distance re-selection run after compaction.
	Reselect ReselectResult
}

// Compact relocates the process's frames so that virtually adjacent
// chunks become physically adjacent — the effect of Linux memory
// compaction from the process's point of view. targetPFN is where the
// defragmented image is placed (the compaction target zone); the caller
// guarantees the zone is free. Every moved page costs a TLB entry
// shootdown, anchors are rewritten, and the anchor distance is
// re-selected against the new histogram. A target whose image would end
// past the last frame the PTE frame field holds is an error, reported
// before any page moves.
func (p *Process) Compact(targetPFN mem.PFN, costModel SweepCostModel) (CompactResult, error) {
	res := CompactResult{ChunksBefore: len(p.chunks)}
	if len(p.chunks) == 0 {
		return res, nil
	}

	// Build the compacted chunk list: the same virtual layout, frames
	// packed back to back from targetPFN, preserving 2 MiB congruence by
	// aligning the target so the first chunk stays congruent.
	target := targetPFN.AlignDown(mem.PagesPer2M) + mem.PFN(uint64(p.chunks[0].StartVPN)%mem.PagesPer2M)
	if last := p.FootprintPages() - 1; target > pagetable.MaxPFN || last > uint64(pagetable.MaxPFN-target) {
		return res, fmt.Errorf("osmem: compacting %d pages to frame %#x would pass frame %#x, the last the PTE frame field holds",
			last+1, uint64(target), uint64(pagetable.MaxPFN))
	}
	var moved uint64
	var next mem.ChunkList
	for _, c := range p.chunks {
		if c.StartPFN != target {
			moved += c.Pages
			// Remap every page of the chunk; huge pages move wholesale.
			for off := uint64(0); off < c.Pages; off++ {
				v := c.StartVPN + mem.VPN(off)
				if p.IsHugeMapped(v) {
					base := v.AlignDown(mem.PagesPer2M)
					if base == v { // move the huge page once, at its base
						p.pt.Unmap(base)
						delete(p.huge, base)
						newPFN := target + mem.PFN(off)
						if err := p.pt.Map2M(base, newPFN, pagetable.FlagWrite|pagetable.FlagUser); err == nil {
							p.huge[base] = newPFN
						} else {
							// The compaction target broke 2 MiB
							// congruence (virtual holes): demote.
							for o := mem.VPN(0); o < mem.VPN(mem.PagesPer2M); o++ {
								p.pt.Map4K(base+o, newPFN+mem.PFN(o), p.ProtectionAt(base+o).flags())
							}
						}
						p.shootdown(base)
					}
					continue
				}
				p.pt.Map4K(v, target+mem.PFN(off), p.ProtectionAt(v).flags())
				p.shootdown(v)
			}
		}
		next = append(next, mem.Chunk{StartVPN: c.StartVPN, StartPFN: target, Pages: c.Pages})
		target += mem.PFN(c.Pages)
	}
	sort.Slice(next, func(i, j int) bool { return next[i].StartVPN < next[j].StartVPN })
	p.chunks = next.CoalesceVirtual()
	res.PagesMoved = moved
	res.ChunksAfter = len(p.chunks)

	// The contiguity histogram changed drastically: rewrite anchors and
	// re-run the selection (which sweeps and flushes if the distance
	// moves).
	if p.policy.Anchors {
		p.sweepAnchors()
		p.flushTLBs()
		res.Reselect = p.Reselect(costModel)
	}
	return res, nil
}

// PromoteResult reports one promotion pass.
type PromoteResult struct {
	// Promoted counts new 2 MiB pages installed.
	Promoted int
}

// PromoteHugePages scans the mapping for 2 MiB-aligned, physically
// congruent, uniformly protected 4 KiB runs and promotes them to huge
// pages — the khugepaged behaviour the paper cites. Promoted regions stop
// carrying 4 KiB anchor runs (the anchor entry requires a 4 KiB PTE), so
// affected anchors are rewritten and shot down.
func (p *Process) PromoteHugePages() PromoteResult {
	var res PromoteResult
	if !p.policy.THP {
		return res
	}
	for _, c := range p.chunks {
		congruent := (uint64(c.StartVPN)-uint64(c.StartPFN))%mem.PagesPer2M == 0
		if !congruent {
			continue
		}
		start := c.StartVPN.AlignUp(mem.PagesPer2M)
		for base := start; base+mem.VPN(mem.PagesPer2M) <= c.EndVPN(); base += mem.VPN(mem.PagesPer2M) {
			if p.IsHugeMapped(base) {
				continue
			}
			if !p.uniformProt(base, mem.PagesPer2M) {
				continue
			}
			prot := p.ProtectionAt(base)
			pfn := c.Translate(base)
			if err := p.pt.Collapse2M(base, pfn, prot.flags()); err != nil {
				continue
			}
			p.huge[base] = pfn
			p.shootdown(base)
			res.Promoted++
		}
	}
	if res.Promoted > 0 && p.policy.Anchors {
		p.sweepAnchors()
		p.flushTLBs()
	}
	return res
}

// uniformProt reports whether [start, start+pages) carries one protection.
func (p *Process) uniformProt(start mem.VPN, pages uint64) bool {
	if len(p.prots) == 0 {
		return true
	}
	return p.protBoundary(start, start+mem.VPN(pages)) == start+mem.VPN(pages)
}
