package osmem

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/pagetable"
)

func TestDecomposeChunkPlain4K(t *testing.T) {
	c := mem.Chunk{StartVPN: 100, StartPFN: 5000, Pages: 1000}
	segs := DecomposeChunk(new([4]Segment), c, Policy{}, 0)
	if len(segs) != 1 || segs[0].Kind != Seg4K || segs[0].Pages != 1000 {
		t.Fatalf("segs = %+v", segs)
	}
}

func TestDecomposeChunkTHP(t *testing.T) {
	// Congruent chunk (VPN-PFN offset is a multiple of 512) spanning
	// several 2 MiB units with misaligned head and tail.
	c := mem.Chunk{StartVPN: 500, StartPFN: 512*10 + 500, Pages: 512*3 + 100}
	segs := DecomposeChunk(new([4]Segment), c, Policy{THP: true}, 0)
	if len(segs) != 3 {
		t.Fatalf("segs = %+v", segs)
	}
	if segs[0].Kind != Seg4K || segs[0].Pages != 12 { // 500..512
		t.Errorf("head = %+v", segs[0])
	}
	if segs[1].Kind != Seg2M || segs[1].StartVPN != 512 || segs[1].Pages != 512*3 {
		t.Errorf("huge = %+v", segs[1])
	}
	if segs[2].Kind != Seg4K || segs[2].Pages != 88 {
		t.Errorf("tail = %+v", segs[2])
	}

	// Incongruent chunk: no promotion possible.
	c2 := mem.Chunk{StartVPN: 0, StartPFN: 7, Pages: 2048}
	segs2 := DecomposeChunk(new([4]Segment), c2, Policy{THP: true}, 0)
	if len(segs2) != 1 || segs2[0].Kind != Seg4K {
		t.Errorf("incongruent segs = %+v", segs2)
	}
}

func TestDecomposeChunkAnchored(t *testing.T) {
	// Chunk starting misaligned to distance 16: head is 4K, tail anchored.
	c := mem.Chunk{StartVPN: 10, StartPFN: 1000, Pages: 100}
	segs := DecomposeChunk(new([4]Segment), c, Policy{Anchors: true}, 16)
	if len(segs) != 2 {
		t.Fatalf("segs = %+v", segs)
	}
	if segs[0].Kind != Seg4K || segs[0].StartVPN != 10 || segs[0].Pages != 6 {
		t.Errorf("head = %+v", segs[0])
	}
	if segs[1].Kind != SegAnchored || segs[1].StartVPN != 16 || segs[1].Pages != 94 {
		t.Errorf("tail = %+v", segs[1])
	}

	// Aligned chunk: fully anchored.
	c2 := mem.Chunk{StartVPN: 32, StartPFN: 64, Pages: 64}
	segs2 := DecomposeChunk(new([4]Segment), c2, Policy{Anchors: true}, 16)
	if len(segs2) != 1 || segs2[0].Kind != SegAnchored {
		t.Errorf("aligned segs = %+v", segs2)
	}

	// Chunk too small to contain an aligned anchor point: plain 4K.
	c3 := mem.Chunk{StartVPN: 17, StartPFN: 100, Pages: 10}
	segs3 := DecomposeChunk(new([4]Segment), c3, Policy{Anchors: true}, 64)
	if len(segs3) != 1 || segs3[0].Kind != Seg4K {
		t.Errorf("small segs = %+v", segs3)
	}
}

func TestDecomposeChunkAnchorsWithTHPHead(t *testing.T) {
	// Large distance: the long misaligned head gets huge pages.
	c := mem.Chunk{StartVPN: 512, StartPFN: 512 * 7, Pages: 8192 - 512}
	segs := DecomposeChunk(new([4]Segment), c, Policy{THP: true, Anchors: true}, 8192)
	// Head [512, 8192) is all 2 MiB-eligible; no anchored tail because
	// the chunk ends exactly at the first aligned point.
	if len(segs) != 1 || segs[0].Kind != Seg2M || segs[0].Pages != 8192-512 {
		t.Fatalf("segs = %+v", segs)
	}

	c2 := mem.Chunk{StartVPN: 512, StartPFN: 512 * 7, Pages: 16384 - 512}
	segs2 := DecomposeChunk(new([4]Segment), c2, Policy{THP: true, Anchors: true}, 8192)
	if len(segs2) != 2 || segs2[0].Kind != Seg2M || segs2[1].Kind != SegAnchored {
		t.Fatalf("segs = %+v", segs2)
	}
	if segs2[1].StartVPN != 8192 || segs2[1].Pages != 8192 {
		t.Errorf("anchored tail = %+v", segs2[1])
	}
}

func TestDecomposeChunkConservation(t *testing.T) {
	// Property: segments partition the chunk exactly, in order, and
	// translate identically to the chunk.
	r := rand.New(rand.NewSource(21))
	pols := []Policy{{}, {THP: true}, {Anchors: true}, {THP: true, Anchors: true}}
	for trial := 0; trial < 500; trial++ {
		c := mem.Chunk{
			StartVPN: mem.VPN(r.Intn(1 << 20)),
			StartPFN: mem.PFN(r.Intn(1 << 20)),
			Pages:    uint64(1 + r.Intn(1<<14)),
		}
		pol := pols[r.Intn(len(pols))]
		dist := uint64(1) << (1 + r.Intn(16))
		segs := DecomposeChunk(new([4]Segment), c, pol, dist)
		v := c.StartVPN
		for _, s := range segs {
			if s.StartVPN != v {
				t.Fatalf("trial %d: gap/overlap at %v: %+v", trial, v, segs)
			}
			if s.StartPFN != c.Translate(s.StartVPN) {
				t.Fatalf("trial %d: wrong segment PFN: %+v", trial, s)
			}
			if s.Kind == Seg2M && (!s.StartVPN.IsAligned(mem.PagesPer2M) || !s.StartPFN.IsAligned(mem.PagesPer2M) || s.Pages%mem.PagesPer2M != 0) {
				t.Fatalf("trial %d: misaligned 2M segment: %+v", trial, s)
			}
			v = s.EndVPN()
		}
		if v != c.EndVPN() {
			t.Fatalf("trial %d: segments end at %v, chunk at %v", trial, v, c.EndVPN())
		}
	}
}

// checkTranslations verifies that every mapped VPN translates correctly
// through the page table (regular walk) and, for anchor-covered pages,
// through the anchor path.
func checkTranslations(t *testing.T, p *Process) {
	t.Helper()
	d := p.AnchorDistance()
	for _, c := range p.Chunks() {
		step := mem.VPN(1 + c.Pages/257) // sample large chunks
		for v := c.StartVPN; v < c.EndVPN(); v += step {
			want := c.Translate(v)
			got, ok := p.Translate(v)
			if !ok || got != want {
				t.Fatalf("reference translate(%#x) = %#x, %v; want %#x", uint64(v), uint64(got), ok, uint64(want))
			}
			w := p.PageTable().Walk(v)
			if !w.Present || w.PFN != want {
				t.Fatalf("page table walk(%#x) = %+v; want pfn %#x", uint64(v), w, uint64(want))
			}
			if p.Policy().Anchors {
				avpn := core.AnchorVPN(v, d)
				contig := p.PageTable().AnchorContiguity(avpn, d)
				if core.Covered(v, avpn, contig) {
					aw := p.PageTable().Walk(avpn)
					if !aw.Present {
						t.Fatalf("anchor %#x covering %#x has no PTE", uint64(avpn), uint64(v))
					}
					if core.TranslateViaAnchor(v, avpn, aw.PFN) != want {
						t.Fatalf("anchor translation of %#x wrong", uint64(v))
					}
				}
			}
		}
	}
}

func randomChunks(r *rand.Rand, n int, maxPages uint64) mem.ChunkList {
	var cl mem.ChunkList
	vpn := mem.VPN(r.Intn(1000))
	pfn := mem.PFN(1 << 21)
	for i := 0; i < n; i++ {
		pages := uint64(1 + r.Intn(int(maxPages)))
		cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: pfn, Pages: pages})
		vpn += mem.VPN(pages + uint64(r.Intn(64))) // occasional VA adjacency
		pfn += mem.PFN(pages + uint64(1+r.Intn(1024)))
	}
	return cl
}

func TestInstallChunksAllPolicies(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, pol := range []Policy{{}, {THP: true}, {Anchors: true}, {THP: true, Anchors: true}} {
		p := NewProcess(pol)
		cl := randomChunks(r, 30, 4096)
		if err := p.InstallChunks(cl, 0); err != nil {
			t.Fatal(err)
		}
		checkTranslations(t, p)
		if p.FootprintPages() != cl.TotalPages() {
			t.Errorf("footprint = %d, want %d", p.FootprintPages(), cl.TotalPages())
		}
	}
}

func TestInstallSelectsDistance(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	// One giant chunk: selection must pick the maximum distance.
	cl := mem.ChunkList{{StartVPN: 0, StartPFN: 0, Pages: 1 << 21}}
	if err := p.InstallChunks(cl, 0); err != nil {
		t.Fatal(err)
	}
	if p.AnchorDistance() != 1<<16 {
		t.Errorf("distance = %d, want %d", p.AnchorDistance(), 1<<16)
	}
	// Fixed distance overrides selection.
	if err := p.InstallChunks(cl, 64); err != nil {
		t.Fatal(err)
	}
	if p.AnchorDistance() != 64 {
		t.Errorf("fixed distance = %d, want 64", p.AnchorDistance())
	}
	if err := p.InstallChunks(cl, 3); err == nil {
		t.Error("invalid fixed distance accepted")
	}
}

func TestInstallRejectsOverlap(t *testing.T) {
	p := NewProcess(Policy{})
	cl := mem.ChunkList{
		{StartVPN: 0, StartPFN: 0, Pages: 10},
		{StartVPN: 5, StartPFN: 100, Pages: 10},
	}
	if err := p.InstallChunks(cl, 0); err == nil {
		t.Error("overlapping chunks accepted")
	}
}

func TestAnchorCoverageWithinChunk(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	// A 100-page chunk at VPN 10 with forced distance 16.
	cl := mem.ChunkList{{StartVPN: 10, StartPFN: 1 << 20, Pages: 100}}
	if err := p.InstallChunks(cl, 16); err != nil {
		t.Fatal(err)
	}
	pt := p.PageTable()
	// Head pages [10,16) are not anchor-covered: their AVPN (0) is
	// unmapped.
	if got := pt.AnchorContiguity(0, 16); got != 0 {
		t.Errorf("anchor 0 contiguity = %d, want 0", got)
	}
	// Anchors at 16, 32, ..., 96 cover through the chunk end (VPN 110).
	for avpn := mem.VPN(16); avpn < 110; avpn += 16 {
		want := uint64(110 - avpn)
		if got := pt.AnchorContiguity(avpn, 16); got != want {
			t.Errorf("anchor %d contiguity = %d, want %d", avpn, got, want)
		}
	}
	// VPN 109 (last page) is covered by anchor 96: 109-96=13 < 14.
	if !core.Covered(109, 96, pt.AnchorContiguity(96, 16)) {
		t.Error("last page not covered")
	}
	// VPN 110 is not covered.
	if core.Covered(110, 96, pt.AnchorContiguity(96, 16)) {
		t.Error("page past chunk covered")
	}
}

func TestHugePagesInstalled(t *testing.T) {
	p := NewProcess(Policy{THP: true})
	cl := mem.ChunkList{{StartVPN: 0, StartPFN: 512 * 4, Pages: 2048}}
	if err := p.InstallChunks(cl, 0); err != nil {
		t.Fatal(err)
	}
	if p.HugePages() != 4 {
		t.Errorf("huge pages = %d, want 4", p.HugePages())
	}
	if !p.IsHugeMapped(700) {
		t.Error("page in huge region not reported huge")
	}
	w := p.PageTable().Walk(700)
	if w.Class != mem.Class2M || w.PFN != 512*4+700 {
		t.Errorf("walk = %+v", w)
	}
}

func TestAppendChunkMergesAndExtendsAnchors(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	if err := p.InstallChunks(mem.ChunkList{{StartVPN: 0, StartPFN: 1000, Pages: 32}}, 16); err != nil {
		t.Fatal(err)
	}
	if got := p.PageTable().AnchorContiguity(16, 16); got != 16 {
		t.Fatalf("pre-merge anchor 16 = %d, want 16", got)
	}
	// Append a physically and virtually adjacent chunk.
	if err := p.AppendChunk(mem.Chunk{StartVPN: 32, StartPFN: 1032, Pages: 32}); err != nil {
		t.Fatal(err)
	}
	if len(p.Chunks()) != 1 || p.Chunks()[0].Pages != 64 {
		t.Fatalf("chunks = %v", p.Chunks())
	}
	// The old anchor's run now extends across the merged chunk.
	if got := p.PageTable().AnchorContiguity(16, 16); got != 48 {
		t.Errorf("post-merge anchor 16 = %d, want 48", got)
	}
	checkTranslations(t, p)

	// Overlapping append is rejected.
	if err := p.AppendChunk(mem.Chunk{StartVPN: 10, StartPFN: 9999, Pages: 5}); err == nil {
		t.Error("overlapping append accepted")
	}
	if err := p.AppendChunk(mem.Chunk{}); err == nil {
		t.Error("empty append accepted")
	}
}

func TestUnmapRangeSplitsAndShrinksAnchors(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	if err := p.InstallChunks(mem.ChunkList{{StartVPN: 0, StartPFN: 1 << 20, Pages: 128}}, 16); err != nil {
		t.Fatal(err)
	}
	before := p.EntryShootdowns()
	p.UnmapRange(60, 8) // cut [60, 68)
	if p.EntryShootdowns() <= before {
		t.Error("no shootdowns accounted")
	}
	if len(p.Chunks()) != 2 {
		t.Fatalf("chunks = %v", p.Chunks())
	}
	if _, ok := p.Translate(60); ok {
		t.Error("unmapped page still translates")
	}
	if p.PageTable().Walk(64).Present {
		t.Error("unmapped page still in page table")
	}
	// Anchor at 48's run now stops at 60.
	if got := p.PageTable().AnchorContiguity(48, 16); got != 12 {
		t.Errorf("anchor 48 contiguity = %d, want 12", got)
	}
	// Anchor at 64 is inside the hole: cleared.
	if got := p.PageTable().AnchorContiguity(64, 16); got != 0 {
		t.Errorf("anchor 64 contiguity = %d, want 0", got)
	}
	// Anchor at 80 covers the second fragment through its end.
	if got := p.PageTable().AnchorContiguity(80, 16); got != 48 {
		t.Errorf("anchor 80 contiguity = %d, want 48", got)
	}
	checkTranslations(t, p)
}

// TestUnmapEmptyRangeKeepsChunks checks a zero-page unmap splits
// nothing: a split without a gap would leave two chunks that are one
// physical run, and the chunk list must stay the maximal runs.
func TestUnmapEmptyRangeKeepsChunks(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	if err := p.InstallChunks(mem.ChunkList{{StartVPN: 0, StartPFN: 1 << 20, Pages: 128}}, 16); err != nil {
		t.Fatal(err)
	}
	before := p.EntryShootdowns()
	p.UnmapRange(60, 0)
	if len(p.Chunks()) != 1 || p.Chunks()[0].Pages != 128 {
		t.Errorf("chunks = %v, want the one 128-page chunk", p.Chunks())
	}
	if got := p.PageTable().AnchorContiguity(48, 16); got != 80 {
		t.Errorf("anchor 48 contiguity = %d, want 80", got)
	}
	if p.EntryShootdowns() != before {
		t.Errorf("empty unmap issued %d shootdowns", p.EntryShootdowns()-before)
	}
}

func TestUnmapDemotesHugePages(t *testing.T) {
	p := NewProcess(Policy{THP: true})
	if err := p.InstallChunks(mem.ChunkList{{StartVPN: 0, StartPFN: 0, Pages: 1024}}, 0); err != nil {
		t.Fatal(err)
	}
	if p.HugePages() != 2 {
		t.Fatalf("huge pages = %d, want 2", p.HugePages())
	}
	p.UnmapRange(100, 10)
	if p.HugePages() != 1 {
		t.Errorf("huge pages after punch = %d, want 1", p.HugePages())
	}
	// Surviving pages of the demoted huge page are still mapped, as 4K.
	w := p.PageTable().Walk(99)
	if !w.Present || w.Class != mem.Class4K || w.PFN != 99 {
		t.Errorf("walk(99) = %+v", w)
	}
	if p.PageTable().Walk(105).Present {
		t.Error("punched page still mapped")
	}
	w = p.PageTable().Walk(600)
	if !w.Present || w.Class != mem.Class2M {
		t.Errorf("untouched huge page = %+v", w)
	}
	checkTranslations(t, p)
}

func TestUnmapWholeChunksAndEdges(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	cl := mem.ChunkList{
		{StartVPN: 0, StartPFN: 1 << 20, Pages: 32},
		{StartVPN: 100, StartPFN: 2 << 20, Pages: 32},
	}
	if err := p.InstallChunks(cl, 16); err != nil {
		t.Fatal(err)
	}
	p.UnmapRange(0, 32) // exactly the first chunk
	if len(p.Chunks()) != 1 || p.Chunks()[0].StartVPN != 100 {
		t.Fatalf("chunks = %v", p.Chunks())
	}
	p.UnmapRange(90, 20) // head of second chunk
	if p.Chunks()[0].StartVPN != 110 || p.Chunks()[0].Pages != 22 {
		t.Fatalf("chunks = %v", p.Chunks())
	}
	p.UnmapRange(500, 50) // nothing there: no-op
	if len(p.Chunks()) != 1 {
		t.Fatalf("chunks = %v", p.Chunks())
	}
	checkTranslations(t, p)
}

func TestChangeDistanceRewritesAnchors(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	if err := p.InstallChunks(mem.ChunkList{{StartVPN: 0, StartPFN: 4096, Pages: 256}}, 16); err != nil {
		t.Fatal(err)
	}
	flushes := 0
	p.OnFlush(func() { flushes++ })

	res, cost := p.ChangeDistance(64, DefaultSweepCost)
	if p.AnchorDistance() != 64 {
		t.Error("distance not changed")
	}
	if res.AnchorsVisited != 4 {
		t.Errorf("anchors visited = %d, want 4", res.AnchorsVisited)
	}
	if cost <= 0 {
		t.Error("zero sweep cost")
	}
	if flushes != 1 {
		t.Errorf("flushes = %d, want 1", flushes)
	}
	if got := p.PageTable().AnchorContiguity(64, 64); got != 192 {
		t.Errorf("anchor 64 contiguity = %d, want 192", got)
	}
	if p.DistanceChanges() != 1 {
		t.Errorf("distance changes = %d", p.DistanceChanges())
	}
	checkTranslations(t, p)
}

func TestReselect(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	// Install with a pinned, deliberately bad distance.
	if err := p.InstallChunks(mem.ChunkList{{StartVPN: 0, StartPFN: 0, Pages: 1 << 20}}, 4); err != nil {
		t.Fatal(err)
	}
	res := p.Reselect(DefaultSweepCost)
	if !res.Changed || res.Selected != 1<<16 || res.Previous != 4 {
		t.Fatalf("reselect = %+v", res)
	}
	// A second reselect is stable: no change.
	res2 := p.Reselect(DefaultSweepCost)
	if res2.Changed {
		t.Errorf("unstable reselect: %+v", res2)
	}
	// Non-anchor processes never change.
	q := NewProcess(Policy{})
	if err := q.InstallChunks(mem.ChunkList{{StartVPN: 0, StartPFN: 0, Pages: 64}}, 0); err != nil {
		t.Fatal(err)
	}
	if r := q.Reselect(DefaultSweepCost); r.Changed {
		t.Error("non-anchor process changed distance")
	}
}

func TestSweepCostCalibration(t *testing.T) {
	// Section 3.3: a 30 GiB mapping costs ~452 ms to re-anchor at
	// distance 8. 30 GiB = 7,864,320 pages -> 983,040 anchors.
	// The default model must land within 2x of the paper's figure.
	est := DefaultSweepCost.Estimate(sweepResultForAnchors(983040))
	if est.Milliseconds() < 226 || est.Milliseconds() > 904 {
		t.Errorf("30GiB/d=8 sweep estimate = %v, want within 2x of 452ms", est)
	}
	est64 := DefaultSweepCost.Estimate(sweepResultForAnchors(122880))
	if est64.Milliseconds() < 20 || est64.Milliseconds() > 150 {
		t.Errorf("30GiB/d=64 sweep estimate = %v, want within ~2x of 71.7ms", est64)
	}
}

func TestSetDistance(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	if err := p.InstallChunks(mem.ChunkList{{StartVPN: 0, StartPFN: 0, Pages: 1024}}, 16); err != nil {
		t.Fatal(err)
	}
	flushes := 0
	p.OnFlush(func() { flushes++ })
	p.SetDistance(16) // same distance: no-op
	if flushes != 0 {
		t.Error("no-op SetDistance flushed")
	}
	p.SetDistance(256)
	if flushes != 1 || p.AnchorDistance() != 256 {
		t.Error("SetDistance did not take effect")
	}
	checkTranslations(t, p)
}

func TestRandomizedUpdateStress(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	p := NewProcess(Policy{THP: true, Anchors: true})
	if err := p.InstallChunks(randomChunks(r, 20, 2048), 0); err != nil {
		t.Fatal(err)
	}
	vpnCeil := 1 << 18
	for step := 0; step < 60; step++ {
		switch r.Intn(4) {
		case 0, 1:
			v := mem.VPN(r.Intn(vpnCeil))
			pages := uint64(1 + r.Intn(512))
			p.UnmapRange(v, pages)
		case 2:
			c := mem.Chunk{
				StartVPN: mem.VPN(r.Intn(vpnCeil)),
				StartPFN: mem.PFN(1<<22 + step*4096),
				Pages:    uint64(1 + r.Intn(512)),
			}
			_ = p.AppendChunk(c) // overlap rejections are fine
		case 3:
			p.Reselect(DefaultSweepCost)
		}
	}
	if err := p.Chunks().Validate(); err != nil {
		t.Fatal(err)
	}
	checkTranslations(t, p)
}

func sweepResultForAnchors(n uint64) pagetable.SweepResult {
	return pagetable.SweepResult{AnchorsVisited: n, PTEWrites: 2 * n, EntriesScanned: n * 8}
}

func TestPartitionRegions(t *testing.T) {
	// Fine-grained chunks followed by one huge chunk: two regions with
	// very different distances.
	var cl mem.ChunkList
	vpn := mem.VPN(0)
	for i := 0; i < 100; i++ {
		cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: mem.PFN(1<<20 + i*64), Pages: 4})
		vpn += 4
	}
	cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: 1 << 24, Pages: 1 << 16})

	regions := PartitionRegions(cl, MaxHWRegions)
	if len(regions) != 2 {
		t.Fatalf("regions = %+v", regions)
	}
	if regions[0].Distance >= regions[1].Distance {
		t.Errorf("fine region distance %d !< huge region distance %d", regions[0].Distance, regions[1].Distance)
	}
	if regions[0].Start != 0 || regions[0].End != 400 || regions[1].End != 400+1<<16 {
		t.Errorf("region bounds wrong: %+v", regions)
	}
	if PartitionRegions(nil, 4) != nil {
		t.Error("empty chunk list produced regions")
	}
}

func TestPartitionRegionsRespectsBudget(t *testing.T) {
	// Alternating classes force many candidates; the merge must respect
	// the hardware budget.
	var cl mem.ChunkList
	vpn := mem.VPN(0)
	for i := 0; i < 40; i++ {
		pages := uint64(4)
		if i%2 == 1 {
			pages = 4096
		}
		cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: mem.PFN(uint64(1<<22) + uint64(i)<<14), Pages: pages})
		vpn += mem.VPN(pages)
	}
	regions := PartitionRegions(cl, 4)
	if len(regions) > 4 {
		t.Fatalf("got %d regions, budget 4", len(regions))
	}
	// Regions must be ordered, non-overlapping, and cover the span.
	for i := 1; i < len(regions); i++ {
		if regions[i].Start < regions[i-1].End {
			t.Errorf("regions overlap: %+v", regions)
		}
	}
}

func TestInstallChunksRegions(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	var cl mem.ChunkList
	vpn := mem.VPN(0)
	for i := 0; i < 64; i++ { // fine-grained half
		cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: mem.PFN(1<<20 + i*16), Pages: 4})
		vpn += 4
	}
	cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: 1 << 24, Pages: 1 << 14}) // huge half
	if err := p.InstallChunksRegions(cl, 0); err != nil {
		t.Fatal(err)
	}
	if len(p.Regions()) != 2 {
		t.Fatalf("regions = %+v", p.Regions())
	}
	dFine, dHuge := p.DistanceAt(0), p.DistanceAt(vpn+100)
	if dFine >= dHuge {
		t.Errorf("distances not differentiated: fine=%d huge=%d", dFine, dHuge)
	}
	// Anchors must exist at each region's own alignment.
	if got := p.PageTable().AnchorContiguity(0, dFine); got != 4 {
		t.Errorf("fine-region anchor contiguity = %d, want 4", got)
	}
	hugeAnchor := (vpn).AlignUp(dHuge)
	if got := p.PageTable().AnchorContiguity(hugeAnchor, dHuge); got == 0 {
		t.Error("huge-region anchor missing")
	}
	checkTranslations(t, p)

	// Reselect must not disturb a multi-region install.
	if r := p.Reselect(DefaultSweepCost); r.Changed {
		t.Error("reselect changed a multi-region process")
	}
	// Reverting to a single distance clears the region table.
	p.SetDistance(64)
	if p.Regions() != nil {
		t.Error("SetDistance kept regions")
	}

	q := NewProcess(Policy{})
	if err := q.InstallChunksRegions(cl, 0); err == nil {
		t.Error("multi-region install without anchor policy accepted")
	}
}

func TestDistanceAtFallsBackBetweenRegions(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	cl := mem.ChunkList{
		{StartVPN: 0, StartPFN: 1 << 20, Pages: 1 << 13},
		{StartVPN: 1 << 20, StartPFN: 1 << 24, Pages: 4},
	}
	if err := p.InstallChunksRegions(cl, 0); err != nil {
		t.Fatal(err)
	}
	// A VPN in the gap between regions falls back to the process-wide
	// distance.
	if got := p.DistanceAt(1 << 18); got != p.AnchorDistance() {
		t.Errorf("gap distance = %d, want process default %d", got, p.AnchorDistance())
	}
}

// TestPageSharingAcrossProcesses models Section 3.3's sharing note: two
// processes map the same physical chunk, each records contiguity in its
// own page table, and each may use a different anchor distance.
func TestPageSharingAcrossProcesses(t *testing.T) {
	shared := mem.Chunk{StartVPN: 0, StartPFN: 1 << 22, Pages: 4096}

	a := NewProcess(Policy{Anchors: true})
	if err := a.InstallChunks(mem.ChunkList{shared}, 64); err != nil {
		t.Fatal(err)
	}
	// Process B maps the same frames at a different VA with a different
	// anchor distance.
	b := NewProcess(Policy{Anchors: true})
	sharedB := mem.Chunk{StartVPN: 1 << 20, StartPFN: shared.StartPFN, Pages: shared.Pages}
	if err := b.InstallChunks(mem.ChunkList{sharedB}, 512); err != nil {
		t.Fatal(err)
	}

	// Each page table carries its own anchors over the shared frames.
	if got := a.PageTable().AnchorContiguity(64, 64); got != 4096-64 {
		t.Errorf("process A anchor = %d", got)
	}
	if got := b.PageTable().AnchorContiguity((1<<20)+512, 512); got != 4096-512 {
		t.Errorf("process B anchor = %d", got)
	}
	// Same frame reachable through both, at each process's own VA.
	pa, _ := a.Translate(100)
	pb, _ := b.Translate(1<<20 + 100)
	if pa != pb || pa != shared.StartPFN+100 {
		t.Errorf("shared frame translates differently: %#x vs %#x", uint64(pa), uint64(pb))
	}
	// Unmapping in A must not disturb B.
	a.UnmapRange(0, 4096)
	if _, ok := b.Translate(1<<20 + 100); !ok {
		t.Error("unmap in process A disturbed process B")
	}
}

// TestMultiRegionUnmapInterplay: unmapping across a region boundary must
// rewrite anchors at each region's own alignment and keep translations
// exact.
func TestMultiRegionUnmapInterplay(t *testing.T) {
	p := NewProcess(Policy{Anchors: true})
	var cl mem.ChunkList
	vpn := mem.VPN(0)
	for i := 0; i < 128; i++ { // fine region: 4-page chunks
		cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: mem.PFN(1<<20 + i*16), Pages: 4})
		vpn += 4
	}
	hugeStart := vpn
	cl = append(cl, mem.Chunk{StartVPN: hugeStart, StartPFN: 1 << 24, Pages: 1 << 13})
	if err := p.InstallChunksRegions(cl, 0); err != nil {
		t.Fatal(err)
	}
	dFine, dHuge := p.DistanceAt(0), p.DistanceAt(hugeStart+100)
	if dFine >= dHuge {
		t.Fatalf("regions not differentiated: %d vs %d", dFine, dHuge)
	}
	// Cut a range spanning the boundary between the regions.
	cut := hugeStart - 32
	p.UnmapRange(cut, 64)
	for _, v := range []mem.VPN{cut - 1, cut, cut + 63, cut + 64, hugeStart + 100} {
		got, ok := p.Translate(v)
		w := p.PageTable().Walk(v)
		if ok {
			if !w.Present || w.PFN != got {
				t.Fatalf("walk(%d) = %+v, want %#x", v, w, uint64(got))
			}
		} else if w.Present {
			t.Fatalf("unmapped %d still walks", v)
		}
	}
	// The huge region's anchor after the cut reflects the shortened run.
	avpn := (cut + 64).AlignUp(dHuge)
	if avpn < hugeStart+mem.VPN(1<<13) {
		run := p.PageTable().AnchorContiguity(avpn, dHuge)
		c, _ := p.chunks.Lookup(avpn)
		if run != uint64(c.EndVPN()-avpn) {
			t.Errorf("huge-region anchor run = %d, want %d", run, uint64(c.EndVPN()-avpn))
		}
	}
	// Fine-region anchors before the cut stop at the hole.
	fineAnchor := (cut - mem.VPN(dFine)).AlignDown(dFine)
	run := p.PageTable().AnchorContiguity(fineAnchor, dFine)
	if core.Covered(cut, fineAnchor, run) {
		t.Errorf("fine anchor %d (run %d) covers the hole at %d", fineAnchor, run, cut)
	}
	checkTranslations(t, p)
}

// TestInstallRejectsOutOfRangeChunks: frames past the PTE frame field and
// pages past the 48-bit virtual address space are refused with an error
// before the table is touched, by every install path; the last valid page
// and frame are accepted.
func TestInstallRejectsOutOfRangeChunks(t *testing.T) {
	const lastVPN, lastPFN = mem.VPN(1)<<36 - 1, pagetable.MaxPFN
	for _, tc := range []struct {
		name string
		c    mem.Chunk
	}{
		{"frame past the field", mem.Chunk{StartVPN: 0x10000, StartPFN: 1 << 40, Pages: 4}},
		{"frames run past the field", mem.Chunk{StartVPN: 0x10000, StartPFN: lastPFN - 1, Pages: 4}},
		{"page past the address space", mem.Chunk{StartVPN: 1 << 36, StartPFN: 200, Pages: 1}},
		{"pages run past the address space", mem.Chunk{StartVPN: lastVPN - 1, StartPFN: 200, Pages: 4}},
	} {
		cl := mem.ChunkList{{StartVPN: 0, StartPFN: 100, Pages: 1}, tc.c}
		p := NewProcess(Policy{Anchors: true})
		if err := p.InstallChunks(cl, 0); err == nil {
			t.Errorf("%s: InstallChunks accepted %v", tc.name, tc.c)
		}
		if err := p.InstallChunksRegions(cl, 0); err == nil {
			t.Errorf("%s: InstallChunksRegions accepted %v", tc.name, tc.c)
		}
		if err := p.AppendChunk(tc.c); err == nil {
			t.Errorf("%s: AppendChunk accepted %v", tc.name, tc.c)
		}
		if n := p.PageTable().Stats().Nodes; n != 1 {
			t.Errorf("%s: rejected chunks allocated %d table pages", tc.name, n-1)
		}
	}

	p := NewProcess(Policy{Anchors: true})
	if err := p.InstallChunks(mem.ChunkList{{StartVPN: lastVPN, StartPFN: lastPFN, Pages: 1}}, 0); err != nil {
		t.Fatalf("last page and frame refused: %v", err)
	}
	if w := p.PageTable().Walk(lastVPN); !w.Present || w.PFN != lastPFN {
		t.Errorf("walk(last page) = %+v", w)
	}
	if err := p.AppendChunk(mem.Chunk{StartVPN: lastVPN - 4, StartPFN: lastPFN - 4, Pages: 4}); err != nil {
		t.Errorf("append below the last page refused: %v", err)
	}
	checkTranslations(t, p)
}

// TestRejectedInstallLeavesProcessUnchanged: an install refused for its
// fixed distance or its chunk list leaves the process's chunk list,
// reference translations, page table and anchor distance as they were,
// so Translate and the page walk still agree.
func TestRejectedInstallLeavesProcessUnchanged(t *testing.T) {
	next := mem.ChunkList{{StartVPN: 0x1000, StartPFN: 0x20000, Pages: 16}}
	overlapping := append(slices.Clone(next), mem.Chunk{StartVPN: 0x1008, StartPFN: 0x30000, Pages: 16})
	for _, tc := range []struct {
		name    string
		install func(*Process) error
	}{
		{"invalid fixed distance", func(p *Process) error { return p.InstallChunks(next, 3) }},
		{"overlapping chunks", func(p *Process) error { return p.InstallChunks(overlapping, 0) }},
		{"overlapping chunks, multi-region", func(p *Process) error { return p.InstallChunksRegions(overlapping, 0) }},
	} {
		p := NewProcess(Policy{Anchors: true})
		if err := p.InstallChunks(mem.ChunkList{{StartVPN: 0x1000, StartPFN: 0x8000, Pages: 16}}, 8); err != nil {
			t.Fatal(err)
		}
		pt, chunks := p.PageTable(), slices.Clone(p.Chunks())
		if err := tc.install(p); err == nil {
			t.Fatalf("%s: install accepted", tc.name)
		}
		if p.PageTable() != pt || !slices.Equal(p.Chunks(), chunks) || p.AnchorDistance() != 8 || p.Regions() != nil {
			t.Errorf("%s: rejected install changed the process: chunks %v, distance %d, regions %v",
				tc.name, p.Chunks(), p.AnchorDistance(), p.Regions())
		}
		if pfn, ok := p.Translate(0x1000); !ok || pfn != 0x8000 {
			t.Errorf("%s: Translate(0x1000) = %#x, %t after the rejected install, want 0x8000", tc.name, uint64(pfn), ok)
		}
		checkTranslations(t, p)
	}
}

// TestInstallAllocations pins the install path's allocations: a mapping
// of thousands of small chunks allocates once per slab of leaf tables,
// not once per chunk or per leaf table, and an install drawing on a leaf
// list that holds enough slabs allocates no slab.
func TestInstallAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var cl mem.ChunkList
	start := mem.VPN(0x10000)
	vpn, pfn := start, mem.PFN(0x100000)
	for i := 0; i < 20000; i++ {
		pages := 1 + uint64(r.Intn(16))
		cl = append(cl, mem.Chunk{StartVPN: vpn, StartPFN: pfn, Pages: pages})
		vpn += mem.VPN(pages)
		// A one-frame gap keeps neighbours from merging into one chunk.
		pfn += mem.PFN(pages + 1)
	}
	leaves := float64(uint64(vpn-1)/mem.PagesPer2M - uint64(start)/mem.PagesPer2M + 1)
	// The process, the table's root path, the sorted chunk list and the
	// distance selection allocate a fixed number of times; each slab of
	// 32 leaf tables adds one allocation.
	const fixed = 30
	for _, pol := range []Policy{{}, {THP: true}, {Anchors: true}, {THP: true, Anchors: true}} {
		allocs := testing.AllocsPerRun(3, func() {
			if err := NewProcess(pol).InstallChunks(cl, 0); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%+v: %d chunks over %.0f leaf tables: %.0f allocations", pol, len(cl), leaves, allocs)
		if want := leaves/32 + 1 + fixed; allocs > want {
			t.Errorf("%+v: installing %d chunks over %.0f leaf tables made %.0f allocations, want at most %.0f",
				pol, len(cl), leaves, allocs, want)
		}

		// Each run releases its table, so the list holds the slabs of
		// the one before (AllocsPerRun runs once more first).
		l := new(pagetable.Leaves)
		reused := testing.AllocsPerRun(3, func() {
			p := NewProcessOn(pol, l)
			if err := p.InstallChunks(cl, 0); err != nil {
				t.Fatal(err)
			}
			p.PageTable().Release()
		})
		t.Logf("%+v: drawing on a leaf list: %.0f allocations", pol, reused)
		if slabs := math.Ceil(leaves / 32); reused > allocs-slabs {
			t.Errorf("%+v: an install drawing on a full leaf list made %.0f allocations, want at most %.0f (the %.0f slabs fewer)",
				pol, reused, allocs-slabs, slabs)
		}
	}
}
