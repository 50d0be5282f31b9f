package osmem

import (
	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/pagetable"
)

// This file lets runs that only read a page table share one. The paper's
// OS changes the anchor distance by sweeping anchors in place (see
// distance.go), not by rebuilding the table; likewise a run can take a
// table built at another distance than its own, as long as every entry
// its MMU reads is the same in both tables.
//
// An MMU at distance d reads each page's frame and page size, the frames
// of a PTE line (cluster probes), the table pages a walk touches (the
// detailed walk), and the anchor of every d-aligned page. Installs at two
// distances that promote the same 2 MiB pages map every page to the same
// frame with the same flags and create the same table pages in the same
// order; they differ only in the ignored bits anchors are written to. An
// anchor holds the run from its page to its chunk's end (Section 3.1,
// pagetable/anchored.go):
//
//   - From 8 up the encoding is distributed: the low half sits in the
//     anchor's own entry and the high half in the next entry of its
//     64-byte line. Every d-aligned page is 8-aligned, so a table built
//     at 8 holds the same pair at every anchor an MMU at d reads.
//   - Below 8 the value sits in the anchor's own entry alone, capped at
//     1,024 pages, and a table built at 2 holds every anchor one at 4
//     reads.
//   - Anchors cover a chunk from its first d-aligned page on. With THP,
//     the head before that page is promoted wherever it holds a whole
//     2 MiB page, which takes a head longer than 512 pages, so d >= 1024.
//     A table built at 8 maps such a head with 4 KiB pages, so only a
//     table built at d itself serves d.
//
// The rule is one-way: a table built at 4 lacks the anchors at 2 mod 4,
// one built at 16 those at 8 mod 16, and one built below 8 holds no high
// halves.

// BuildDistance returns the anchor distance a page table of the
// installable list cl must be built at under pol to read, to an MMU at
// distance d, exactly like a table installed at d: 0 without anchors, 2
// below 8, and 8 from 8 up, unless some chunk decomposes at d with a
// 2 MiB page, when it is d itself.
func BuildDistance(cl mem.ChunkList, pol Policy, d uint64) uint64 {
	switch {
	case !pol.Anchors:
		return 0
	case d < pagetable.EntriesPerCacheBlock:
		return core.MinDistance
	case pol.THP && d > mem.PagesPer2M && hugeHead(cl, pol, d):
		return d
	}
	return pagetable.EntriesPerCacheBlock
}

// hugeHead reports whether DecomposeChunk at d gives some chunk of cl a
// 2 MiB page.
func hugeHead(cl mem.ChunkList, pol Policy, d uint64) bool {
	var segs [4]Segment
	for _, c := range cl {
		if c.Pages < mem.PagesPer2M {
			continue
		}
		for _, s := range DecomposeChunk(&segs, c, pol, d) {
			if s.Kind == Seg2M {
				return true
			}
		}
	}
	return false
}

// InstallShared is InstallChunks for a page table other runs may share
// through Rebind: the process takes the same distance and reads exactly
// the same, but its table is built at BuildDistance of that distance.
func (p *Process) InstallShared(cl mem.ChunkList, fixedDistance uint64) error {
	sorted, dist, err := p.prepare(cl, fixedDistance)
	if err != nil {
		return err
	}
	p.installAt(sorted, dist, BuildDistance(sorted, p.policy, dist))
	return nil
}

// Rebind returns a new process over p's page table, chunk list and huge
// pages that reads exactly like NewProcess(pol) after
// InstallChunks(p.Chunks(), fixedDistance): it takes pol, cost model
// included, and the distance that install would take, and its counters
// are those a fresh install leaves. It reports false, and shares
// nothing, when p's table cannot serve that install: p has regions or a
// THP or anchor setting other than pol's, its table was written since
// p's install, or the distance needs another build distance. p's table
// must not have been released.
//
// The two processes share the table: a mapping update through either
// one changes both, and the table is released once, by its owner.
func (p *Process) Rebind(pol Policy, fixedDistance uint64) (*Process, bool) {
	if pol.THP != p.policy.THP || pol.Anchors != p.policy.Anchors || p.regions != nil ||
		p.pt.Stats().PTEWrites != p.writes ||
		pol.Anchors && fixedDistance != 0 && !core.ValidDistance(fixedDistance) {
		return nil, false
	}
	dist := installDistance(p.chunks, pol, fixedDistance, core.MinDistance)
	if BuildDistance(p.chunks, pol, dist) != p.built {
		return nil, false
	}
	q := &Process{
		pt:     p.pt,
		chunks: p.chunks,
		policy: pol,
		dist:   dist,
		leaves: p.leaves,
		huge:   p.huge,
		built:  p.built,
		writes: p.writes,
	}
	q.flushTLBs() // the flush that ends an install
	return q, true
}
