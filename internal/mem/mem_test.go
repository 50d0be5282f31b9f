package mem

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestPageClassSizes(t *testing.T) {
	cases := []struct {
		class PageClass
		size  uint64
		pages uint64
		name  string
	}{
		{Class4K, 4096, 1, "4K"},
		{Class2M, 2 << 20, 512, "2M"},
		{Class1G, 1 << 30, 262144, "1G"},
	}
	for _, c := range cases {
		if got := c.class.Size(); got != c.size {
			t.Errorf("%v.Size() = %d, want %d", c.class, got, c.size)
		}
		if got := c.class.BasePages(); got != c.pages {
			t.Errorf("%v.BasePages() = %d, want %d", c.class, got, c.pages)
		}
		if got := c.class.String(); got != c.name {
			t.Errorf("%v.String() = %q, want %q", c.class, got, c.name)
		}
	}
}

func TestPageClassInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Shift() on invalid PageClass did not panic")
		}
	}()
	PageClass(99).Shift()
}

func TestAddrPageRoundTrip(t *testing.T) {
	va := VirtAddr(0x7f1234567abc)
	if got := va.PageNumber(); got != VPN(0x7f1234567) {
		t.Errorf("PageNumber = %#x, want %#x", uint64(got), uint64(0x7f1234567))
	}
	if got := va.Offset(); got != 0xabc {
		t.Errorf("Offset = %#x, want 0xabc", got)
	}
	if got := va.PageNumber().Addr(); got != VirtAddr(0x7f1234567000) {
		t.Errorf("Addr = %#x, want 0x7f1234567000", uint64(got))
	}

	pa := PhysAddr(0x89abcdef123)
	if pa.PageNumber().Addr()+PhysAddr(pa.Offset()) != pa {
		t.Errorf("PhysAddr round trip failed for %#x", uint64(pa))
	}
}

func TestAlignment(t *testing.T) {
	v := VPN(0x1237)
	if got := v.AlignDown(16); got != 0x1230 {
		t.Errorf("AlignDown(16) = %#x, want 0x1230", uint64(got))
	}
	if got := v.AlignUp(16); got != 0x1240 {
		t.Errorf("AlignUp(16) = %#x, want 0x1240", uint64(got))
	}
	if VPN(0x1230).AlignUp(16) != 0x1230 {
		t.Error("AlignUp of aligned value changed it")
	}
	if !VPN(0x1230).IsAligned(16) || VPN(0x1231).IsAligned(16) {
		t.Error("IsAligned wrong")
	}
	if !PFN(512).IsAligned(512) || PFN(513).IsAligned(512) {
		t.Error("PFN IsAligned wrong")
	}
	if PFN(1000).AlignDown(512) != 512 {
		t.Error("PFN AlignDown wrong")
	}
}

func TestAlignProperties(t *testing.T) {
	f := func(raw uint64, shiftSeed uint8) bool {
		align := uint64(1) << (shiftSeed % 17) // 1..65536
		v := VPN(raw % (1 << 40))
		down, up := v.AlignDown(align), v.AlignUp(align)
		if !down.IsAligned(align) || !up.IsAligned(align) {
			return false
		}
		if down > v || up < v {
			return false
		}
		return uint64(up-down) == 0 || uint64(up-down) == align
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPow2Helpers(t *testing.T) {
	if !IsPow2(1) || !IsPow2(1024) || IsPow2(0) || IsPow2(6) {
		t.Error("IsPow2 wrong")
	}
	if Log2(1) != 0 || Log2(2) != 1 || Log2(1<<16) != 16 || Log2(3) != 1 {
		t.Error("Log2 wrong")
	}
	if NextPow2(0) != 1 || NextPow2(1) != 1 || NextPow2(3) != 4 || NextPow2(1024) != 1024 || NextPow2(1025) != 2048 {
		t.Error("NextPow2 wrong")
	}
}

func TestLog2PanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log2(0) did not panic")
		}
	}()
	Log2(0)
}

func TestHumanFormatting(t *testing.T) {
	if HumanBytes(4096) != "4KiB" || HumanBytes(Size2M) != "2MiB" || HumanBytes(Size1G) != "1GiB" || HumanBytes(100) != "100B" {
		t.Error("HumanBytes wrong")
	}
	if HumanPages(4) != "4" || HumanPages(2048) != "2K" || HumanPages(65536) != "64K" || HumanPages(1<<20) != "1M" {
		t.Error("HumanPages wrong")
	}
}

func TestChunkTranslate(t *testing.T) {
	c := Chunk{StartVPN: 100, StartPFN: 5000, Pages: 16}
	if !c.Contains(100) || !c.Contains(115) || c.Contains(116) || c.Contains(99) {
		t.Error("Contains wrong")
	}
	if c.Translate(100) != 5000 || c.Translate(115) != 5015 {
		t.Error("Translate wrong")
	}
	if c.Bytes() != 16*4096 {
		t.Error("Bytes wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Translate outside chunk did not panic")
		}
	}()
	c.Translate(200)
}

func TestChunkListLookup(t *testing.T) {
	cl := ChunkList{
		{StartVPN: 0, StartPFN: 100, Pages: 4},
		{StartVPN: 10, StartPFN: 200, Pages: 2},
		{StartVPN: 100, StartPFN: 300, Pages: 50},
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	if cl.TotalPages() != 56 {
		t.Errorf("TotalPages = %d, want 56", cl.TotalPages())
	}
	for _, tc := range []struct {
		v    VPN
		want PFN
		ok   bool
	}{
		{0, 100, true}, {3, 103, true}, {4, 0, false},
		{10, 200, true}, {11, 201, true}, {12, 0, false},
		{100, 300, true}, {149, 349, true}, {150, 0, false}, {99, 0, false},
	} {
		c, ok := cl.Lookup(tc.v)
		if ok != tc.ok {
			t.Errorf("Lookup(%d) ok = %v, want %v", tc.v, ok, tc.ok)
			continue
		}
		if ok && c.Translate(tc.v) != tc.want {
			t.Errorf("Lookup(%d) -> %d, want %d", tc.v, c.Translate(tc.v), tc.want)
		}
	}
}

func TestChunkListValidateErrors(t *testing.T) {
	if err := (ChunkList{{StartVPN: 0, Pages: 0}}).Validate(); err == nil {
		t.Error("empty chunk not rejected")
	}
	overlapping := ChunkList{
		{StartVPN: 0, StartPFN: 0, Pages: 10},
		{StartVPN: 5, StartPFN: 100, Pages: 10},
	}
	if err := overlapping.Validate(); err == nil {
		t.Error("overlapping chunks not rejected")
	}
}

func TestCoalesceVirtual(t *testing.T) {
	cl := ChunkList{
		{StartVPN: 0, StartPFN: 100, Pages: 4},
		{StartVPN: 4, StartPFN: 104, Pages: 4},  // merges with previous
		{StartVPN: 8, StartPFN: 300, Pages: 4},  // physically discontiguous
		{StartVPN: 20, StartPFN: 304, Pages: 4}, // virtually discontiguous
	}
	got := cl.CoalesceVirtual()
	if &got[0] != &cl[0] {
		t.Error("coalescing copied the list instead of merging in place")
	}
	want := ChunkList{
		{StartVPN: 0, StartPFN: 100, Pages: 8},
		{StartVPN: 8, StartPFN: 300, Pages: 4},
		{StartVPN: 20, StartPFN: 304, Pages: 4},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d chunks, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("chunk %d = %v, want %v", i, got[i], want[i])
		}
	}
	if CoalesceEmpty := (ChunkList{}).CoalesceVirtual(); CoalesceEmpty != nil {
		t.Error("coalescing empty list should return nil")
	}
}

func TestCoalescePreservesTranslation(t *testing.T) {
	f := func(seeds []uint8) bool {
		// Build a random valid chunk list from seeds.
		var cl ChunkList
		vpn, pfn := VPN(0), PFN(1<<20)
		for _, s := range seeds {
			pages := uint64(s%16) + 1
			gapV := uint64(s % 3) // sometimes virtually adjacent
			gapP := uint64(s % 5) // sometimes physically adjacent
			vpn += VPN(gapV)
			pfn += PFN(gapP)
			cl = append(cl, Chunk{StartVPN: vpn, StartPFN: pfn, Pages: pages})
			vpn += VPN(pages)
			pfn += PFN(pages)
		}
		// Coalescing merges in place, so it works on a copy.
		co := slices.Clone(cl).CoalesceVirtual()
		// Every VPN must translate identically before and after.
		for _, c := range cl {
			for v := c.StartVPN; v < c.EndVPN(); v++ {
				oc, ok1 := cl.Lookup(v)
				cc, ok2 := co.Lookup(v)
				if !ok1 || !ok2 || oc.Translate(v) != cc.Translate(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	cl := ChunkList{
		{StartVPN: 0, StartPFN: 0, Pages: 4},
		{StartVPN: 10, StartPFN: 100, Pages: 4},
		{StartVPN: 20, StartPFN: 200, Pages: 16},
	}
	h := BuildHistogram(cl)
	if len(h) != 2 {
		t.Fatalf("got %d bins, want 2", len(h))
	}
	if h[0] != (HistogramBin{Contiguity: 4, Frequency: 2}) {
		t.Errorf("bin 0 = %+v", h[0])
	}
	if h[1] != (HistogramBin{Contiguity: 16, Frequency: 1}) {
		t.Errorf("bin 1 = %+v", h[1])
	}
	if h.TotalPages() != 24 || h.TotalChunks() != 3 {
		t.Errorf("totals = %d pages, %d chunks", h.TotalPages(), h.TotalChunks())
	}
}

func TestHistogramCDF(t *testing.T) {
	h := Histogram{{Contiguity: 1, Frequency: 8}, {Contiguity: 8, Frequency: 1}}
	cdf := h.CDF()
	if len(cdf) != 2 {
		t.Fatalf("got %d points", len(cdf))
	}
	if cdf[0].CumFraction != 0.5 {
		t.Errorf("first point fraction = %v, want 0.5", cdf[0].CumFraction)
	}
	if cdf[1].CumFraction != 1.0 {
		t.Errorf("last point fraction = %v, want 1.0", cdf[1].CumFraction)
	}
	if (Histogram{}).CDF() != nil {
		t.Error("empty histogram CDF should be nil")
	}
}

func TestCDFMonotonic(t *testing.T) {
	f := func(sizes []uint16) bool {
		var cl ChunkList
		v := VPN(0)
		for _, s := range sizes {
			p := uint64(s%2048) + 1
			cl = append(cl, Chunk{StartVPN: v, StartPFN: PFN(v), Pages: p})
			v += VPN(p + 1)
		}
		cdf := BuildHistogram(cl).CDF()
		prevX, prevY := uint64(0), 0.0
		for _, pt := range cdf {
			if pt.ChunkPages <= prevX && prevX != 0 {
				return false
			}
			if pt.CumFraction < prevY {
				return false
			}
			prevX, prevY = pt.ChunkPages, pt.CumFraction
		}
		return len(cdf) == 0 || cdf[len(cdf)-1].CumFraction > 0.999999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
