package osmem

import (
	"math/rand"
	"testing"

	"hybridtlb/internal/mem"
)

// fragmentedChunks builds a mapping of many small physically scattered
// chunks covering a contiguous VA range.
func fragmentedChunks(n int, pagesEach uint64) mem.ChunkList {
	var cl mem.ChunkList
	vpn := mem.VPN(0x10000)
	pfn := mem.PFN(1 << 22)
	for i := 0; i < n; i++ {
		cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: pfn, Pages: pagesEach})
		vpn += mem.VPN(pagesEach)
		pfn += mem.PFN(pagesEach + 512) // scattered, congruence-preserving
	}
	return cl
}

func TestCompactMergesChunks(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	if err := p.InstallChunks(fragmentedChunks(64, 8), 0); err != nil {
		t.Fatal(err)
	}
	if p.AnchorDistance() > 16 {
		t.Fatalf("fragmented mapping selected distance %d", p.AnchorDistance())
	}
	res, err := p.Compact(1<<24, DefaultSweepCost)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksBefore != 64 || res.ChunksAfter != 1 {
		t.Fatalf("compact: %d -> %d chunks", res.ChunksBefore, res.ChunksAfter)
	}
	if res.PagesMoved == 0 {
		t.Error("no pages moved")
	}
	// The re-selection reacted to the new histogram with a much larger
	// distance.
	if !res.Reselect.Changed || p.AnchorDistance() < 256 {
		t.Errorf("post-compaction distance = %d (changed=%v)", p.AnchorDistance(), res.Reselect.Changed)
	}
	checkTranslations(t, p)
	// Anchor coverage now spans the whole compacted footprint.
	d := p.AnchorDistance()
	avpn := mem.VPN(0x10000).AlignUp(d)
	if got := p.PageTable().AnchorContiguity(avpn, d); got == 0 {
		t.Error("no anchor after compaction")
	}
}

func TestCompactPreservesTranslationUnderRandomMappings(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		p := NewProcess(Policy{THP: true, Anchors: true})
		if err := p.InstallChunks(randomChunks(r, 15, 1024), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Compact(1<<25, DefaultSweepCost); err != nil {
			t.Fatal(err)
		}
		checkTranslations(t, p)
		if err := p.Chunks().Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompactEmptyProcess(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	res, err := p.Compact(1<<24, DefaultSweepCost)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksBefore != 0 || res.ChunksAfter != 0 || res.PagesMoved != 0 {
		t.Errorf("empty compact = %+v", res)
	}
}

func TestPromoteHugePages(t *testing.T) {
	p := NewProcess(Policy{THP: true})
	// A congruent 4-page-misaligned chunk: after installation it holds
	// 4 KiB pages (no anchors policy), fully promotable in the aligned
	// interior. Install with THP disabled first by using a chunk whose
	// head prevents promotion... simpler: install, demote via protection,
	// clear protection effects by promoting again.
	if err := p.InstallChunks(mem.ChunkList{{StartVPN: 0, StartPFN: 0, Pages: 2048}}, 0); err != nil {
		t.Fatal(err)
	}
	if p.HugePages() != 4 {
		t.Fatalf("install promoted %d huge pages", p.HugePages())
	}
	// Punch a protection hole to demote one huge page.
	if err := p.SetProtection(100, 10, ProtRead); err != nil {
		t.Fatal(err)
	}
	if p.HugePages() != 3 {
		t.Fatalf("after protection: %d huge pages", p.HugePages())
	}
	// Restore uniform protection; khugepaged re-promotes the demoted
	// region.
	if err := p.SetProtection(100, 10, ProtDefault); err != nil {
		t.Fatal(err)
	}
	res := p.PromoteHugePages()
	if res.Promoted != 1 {
		t.Fatalf("promoted = %d, want 1", res.Promoted)
	}
	if p.HugePages() != 4 {
		t.Errorf("huge pages = %d, want 4", p.HugePages())
	}
	w := p.PageTable().Walk(100)
	if !w.Present || w.Class != mem.Class2M || w.PFN != 100 {
		t.Errorf("walk(100) = %+v", w)
	}
	checkTranslations(t, p)
}

func TestPromoteRespectsProtectionBoundaries(t *testing.T) {
	p := NewProcess(Policy{THP: true})
	if err := p.InstallChunks(mem.ChunkList{{StartVPN: 0, StartPFN: 0, Pages: 1024}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.SetProtection(100, 10, ProtRead); err != nil {
		t.Fatal(err)
	}
	res := p.PromoteHugePages()
	if res.Promoted != 0 {
		t.Errorf("promoted across a protection boundary: %d", res.Promoted)
	}
	// Non-THP policies never promote.
	q := NewProcess(Policy{})
	if err := q.InstallChunks(mem.ChunkList{{StartVPN: 0, StartPFN: 0, Pages: 1024}}, 0); err != nil {
		t.Fatal(err)
	}
	if r := q.PromoteHugePages(); r.Promoted != 0 {
		t.Error("non-THP policy promoted")
	}
}

func TestCompactionImprovesAnchorEfficiency(t *testing.T) {
	// End-to-end: fragmented mapping thrashes; after compaction the same
	// footprint is covered by a handful of anchors.
	p := NewProcess(Policy{Anchors: true})
	if err := p.InstallChunks(fragmentedChunks(512, 8), 0); err != nil {
		t.Fatal(err)
	}
	histBefore := p.Histogram()
	if _, err := p.Compact(1<<25, DefaultSweepCost); err != nil {
		t.Fatal(err)
	}
	histAfter := p.Histogram()
	if histAfter.TotalChunks() >= histBefore.TotalChunks() {
		t.Errorf("chunks: %d -> %d", histBefore.TotalChunks(), histAfter.TotalChunks())
	}
	if histAfter.TotalPages() != histBefore.TotalPages() {
		t.Errorf("pages changed: %d -> %d", histBefore.TotalPages(), histAfter.TotalPages())
	}
}
