package pagetable

import (
	"fmt"

	"hybridtlb/internal/mem"
)

// Anchor contiguity encoding (Section 3.1 and Figure 4).
//
// The contiguity value of an anchor entry counts how many pages starting at
// the anchor (including the anchor page itself) are mapped to physically
// contiguous frames. Following the paper's footnote, the stored field is
// contiguity-1 so that a w-bit field represents contiguities 1..2^w.
//
// For anchor distances >= 8 the anchor is always the first entry of its
// 64-byte PTE cache block, and the encoding is distributed: the low IgnBits
// bits live in the anchor entry's ignored field and the remaining bits in
// the ignored field of the next entry of the same cache block, which the
// walker fetches at no extra memory cost. For distances < 8 only the anchor
// entry's own ignored bits are available.
const (
	// ContiguityBits is the total contiguity field width used throughout
	// the evaluation ("we use 16 bits ... maximum contiguity of 2^16").
	ContiguityBits = 16
	// MaxContiguity is the largest representable contiguity (in pages)
	// with the distributed encoding.
	MaxContiguity = 1 << ContiguityBits

	// anchorValidBit marks an anchor entry whose contiguity field is
	// meaningful; it distinguishes "contiguity 1" from "no anchor info".
	anchorValidBit = 1 << (IgnBits - 1)
	// anchorPayloadBits is the contiguity payload width within the anchor
	// entry itself (its ignored bits minus the valid bit).
	anchorPayloadBits = IgnBits - 1
	// MaxContiguitySingle is the largest contiguity representable within
	// a single entry's ignored bits (used when the anchor distance < 8).
	MaxContiguitySingle = 1 << anchorPayloadBits
)

// contiguityCap returns the representable contiguity limit for a distance.
func contiguityCap(dist uint64) uint64 {
	if dist >= EntriesPerCacheBlock {
		return MaxContiguity
	}
	return MaxContiguitySingle
}

// checkDistance panics unless dist is a power of two >= 2.
func checkDistance(dist uint64) {
	if !mem.IsPow2(dist) || dist < 2 {
		panic(fmt.Sprintf("pagetable: anchor distance %d is not a power of two >= 2", dist))
	}
}

// checkAnchorArgs validates the (avpn, dist) pair shared by the anchor
// accessors.
func checkAnchorArgs(avpn mem.VPN, dist uint64) {
	checkDistance(dist)
	if !avpn.IsAligned(dist) {
		panic(fmt.Sprintf("pagetable: VPN %#x is not aligned to anchor distance %d", uint64(avpn), dist))
	}
}

// SetAnchorContiguity records that contiguity pages starting at avpn are
// physically contiguous. avpn must be aligned to dist. A contiguity of 0
// (anchor page itself unmapped or not usable) clears the field. Values
// beyond the encoding capacity are capped.
//
// It returns the number of PTEs written, which feeds the distance-change
// cost model of Section 3.3.
func (t *Table) SetAnchorContiguity(avpn mem.VPN, dist, contiguity uint64) int {
	checkAnchorArgs(avpn, dist)
	lf := t.leafOf(avpn)
	if lf == nil {
		return 0
	}
	writes := setAnchor(lf, indexAt(avpn, LevelPT), dist, min(contiguity, contiguityCap(dist)))
	t.stats.PTEWrites += writes
	return int(writes)
}

// writeAnchors records in lf the contiguity of every dist-aligned page
// of [from, to), a stretch of lf's pages: the run from that page to end,
// capped at the encoding's capacity. It returns the entries written.
func writeAnchors(lf *leaf, from, to, end mem.VPN, dist uint64) uint64 {
	limit := contiguityCap(dist)
	var writes uint64
	for avpn := from.AlignUp(dist); avpn < to; avpn += mem.VPN(dist) {
		writes += setAnchor(lf, indexAt(avpn, LevelPT), dist, min(uint64(end-avpn), limit))
	}
	return writes
}

// setAnchor encodes contiguity, within the cap for dist, into the anchor
// at entry i of lf and returns the entries written.
func setAnchor(lf *leaf, i int, dist, contiguity uint64) uint64 {
	var low, high uint64
	if contiguity > 0 {
		stored := contiguity - 1 // footnote encoding: field holds c-1
		low = stored&(MaxContiguitySingle-1) | anchorValidBit
		high = stored >> anchorPayloadBits
	}
	lf[i] = lf[i].WithIgn(low)
	if dist < EntriesPerCacheBlock {
		return 1
	}
	// Distributed encoding: the next entry of the same cache block holds
	// the high bits, whatever page it maps. i is block-aligned, so i+1 is
	// in range.
	lf[i+1] = lf[i+1].WithIgn(high)
	return 2
}

// AnchorContiguity reads the contiguity recorded at the anchor avpn for the
// given distance. It returns 0 when no contiguity is recorded (or the
// anchor's page table page does not exist).
func (t *Table) AnchorContiguity(avpn mem.VPN, dist uint64) uint64 {
	checkAnchorArgs(avpn, dist)
	lf := t.leafOf(avpn)
	if lf == nil {
		return 0
	}
	i := indexAt(avpn, LevelPT)
	low := lf[i].Ign()
	if low&anchorValidBit == 0 {
		return 0 // valid bit clear: no contiguity recorded
	}
	stored := low & (MaxContiguitySingle - 1)
	if dist >= EntriesPerCacheBlock {
		stored |= lf[i+1].Ign() << anchorPayloadBits
	}
	return stored + 1
}

// ComputeContiguity derives the true physical contiguity starting at avpn
// by scanning leaf entries: the length of the run of present 4 KiB entries
// whose frames increase by exactly one, capped at the encoding capacity for
// dist. This is the reference the OS uses when (re)writing anchors; reads
// are counted against the sweep cost model.
func (t *Table) ComputeContiguity(avpn mem.VPN, dist uint64) uint64 {
	checkAnchorArgs(avpn, dist)
	cap := contiguityCap(dist)
	w := t.Walk(avpn)
	t.stats.Walks-- // accounting: scans are not demand walks
	if !w.Present || w.Class != mem.Class4K {
		return 0
	}
	run := uint64(1)
	prev := w.PFN
	for run < cap {
		t.stats.PTEReads++
		w := t.Walk(avpn + mem.VPN(run))
		t.stats.Walks--
		if !w.Present || w.Class != mem.Class4K || w.PFN != prev+1 {
			break
		}
		prev = w.PFN
		run++
	}
	return run
}

// SweepResult reports the work performed by an anchor-distance sweep.
type SweepResult struct {
	AnchorsVisited uint64 // d-aligned present 4 KiB entries considered
	PTEWrites      uint64 // entries written (anchor + distributed halves)
	EntriesScanned uint64 // leaf entries read to locate anchors
}

// SweepAnchors rewrites every anchor entry for a new anchor distance,
// implementing the page-table update half of an anchor distance change
// (Section 3.3). contig supplies the contiguity for each anchor VPN —
// typically closed over the OS's chunk list so each anchor costs O(log
// chunks) rather than a page scan. The whole-table TLB invalidation that
// follows a sweep is the caller's (OS's) responsibility.
func (t *Table) SweepAnchors(dist uint64, contig func(avpn mem.VPN) uint64) SweepResult {
	checkDistance(dist)
	var res SweepResult
	t.Range(func(vpn mem.VPN, e PTE, class mem.PageClass) bool {
		res.EntriesScanned++
		if class != mem.Class4K || !vpn.IsAligned(dist) {
			return true
		}
		res.AnchorsVisited++
		res.PTEWrites += uint64(t.SetAnchorContiguity(vpn, dist, contig(vpn)))
		return true
	})
	return res
}
