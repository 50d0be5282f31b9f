package hybridtlb

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/trace"
)

// osWriteFile is a test shim (kept local so the test file reads cleanly).
func osWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestSchemesScenariosWorkloadsLists(t *testing.T) {
	if len(Schemes()) != 8 {
		t.Errorf("schemes = %v", Schemes())
	}
	if len(Scenarios()) != 6 {
		t.Errorf("scenarios = %v", Scenarios())
	}
	if len(Workloads()) != 14 {
		t.Errorf("workloads = %v", Workloads())
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
	if _, err := NewSystem(SchemeAnchor, WithFixedAnchorDistance(3)); err == nil {
		t.Error("invalid anchor distance accepted")
	}
	s, err := NewSystem(SchemeAnchor)
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheme() != SchemeAnchor {
		t.Error("scheme name lost")
	}
}

func TestSystemMapTranslate(t *testing.T) {
	s, err := NewSystem(SchemeAnchor, WithFixedAnchorDistance(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Map([]Chunk{
		{VirtPage: 0x100, PhysPage: 0x5000, Pages: 64},
		{VirtPage: 0x1000, PhysPage: 0x9000, Pages: 32},
	}); err != nil {
		t.Fatal(err)
	}
	if s.FootprintPages() != 96 {
		t.Errorf("footprint = %d", s.FootprintPages())
	}
	// Byte-granular translation preserves the page offset.
	pa, ok := s.Translate(0x100<<12 | 0xabc)
	if !ok || pa != 0x5000<<12|0xabc {
		t.Errorf("translate = %#x, %v", pa, ok)
	}
	// Page-granular translation.
	pp, ok := s.TranslatePage(0x105)
	if !ok || pp != 0x5005 {
		t.Errorf("translate page = %#x, %v", pp, ok)
	}
	if _, ok := s.Translate(0x999999 << 12); ok {
		t.Error("unmapped address translated")
	}
	st := s.Stats()
	if st.Accesses != 3 || st.Misses == 0 {
		t.Errorf("stats = %+v", st)
	}
	if s.AnchorDistance() != 16 {
		t.Errorf("anchor distance = %d", s.AnchorDistance())
	}
}

func TestSystemAnchorHitsThroughPublicAPI(t *testing.T) {
	s, err := NewSystem(SchemeAnchor, WithFixedAnchorDistance(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Map([]Chunk{{VirtPage: 0, PhysPage: 1 << 20, Pages: 1024}}); err != nil {
		t.Fatal(err)
	}
	s.TranslatePage(0) // walk, fills anchor
	s.TranslatePage(5) // anchor hit
	if st := s.Stats(); st.CoalescedHits != 1 {
		t.Errorf("coalesced hits = %d, want 1", st.CoalescedHits)
	}
}

func TestSystemDynamicDistanceAndHistogram(t *testing.T) {
	s, err := NewSystem(SchemeAnchor)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Map([]Chunk{{VirtPage: 0, PhysPage: 0, Pages: 1 << 16}}); err != nil {
		t.Fatal(err)
	}
	if s.AnchorDistance() != 1<<16 {
		t.Errorf("dynamic selection picked %d", s.AnchorDistance())
	}
	h := s.ContiguityHistogram()
	if h[1<<16] != 1 || len(h) != 1 {
		t.Errorf("histogram = %v", h)
	}
	if changed, _ := s.Reselect(); changed {
		t.Error("stable mapping reselected a new distance")
	}
	if err := s.SetAnchorDistance(64); err != nil {
		t.Fatal(err)
	}
	if s.AnchorDistance() != 64 {
		t.Error("SetAnchorDistance ignored")
	}
	if err := s.SetAnchorDistance(7); err == nil {
		t.Error("invalid distance accepted")
	}
}

func TestSystemAddChunkUnmap(t *testing.T) {
	s, err := NewSystem(SchemeBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Map([]Chunk{{VirtPage: 0, PhysPage: 100, Pages: 10}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddChunk(Chunk{VirtPage: 100, PhysPage: 500, Pages: 10}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.TranslatePage(105); !ok {
		t.Error("added chunk not mapped")
	}
	s.Unmap(100, 10)
	if _, ok := s.TranslatePage(105); ok {
		t.Error("unmapped page still translates")
	}
	if err := s.AddChunk(Chunk{VirtPage: 5, PhysPage: 900, Pages: 2}); err == nil {
		t.Error("overlapping AddChunk accepted")
	}
}

func TestWithHardware(t *testing.T) {
	s, err := NewSystem(SchemeBase, WithHardware(Hardware{
		L2Entries: 16, L2Ways: 2,
		L2HitCycles: 3, WalkCycles: 100,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Map([]Chunk{{VirtPage: 0, PhysPage: 0, Pages: 8192}}); err != nil {
		t.Fatal(err)
	}
	s.TranslatePage(0)
	if st := s.Stats(); st.Cycles != 100 {
		t.Errorf("walk cycles = %d, want 100", st.Cycles)
	}
}

// TestHardwareGeometryValidation checks that an L2 geometry the TLB
// cannot index is an error from every entry point, not a panic, and that
// the zero value still means Table 3.
func TestHardwareGeometryValidation(t *testing.T) {
	cases := []struct {
		name string
		hw   Hardware
		ok   bool
	}{
		{"zero value is Table 3", Hardware{}, true},
		{"custom power-of-two sets", Hardware{L2Entries: 16, L2Ways: 2}, true},
		{"one set", Hardware{L2Entries: 8, L2Ways: 8}, true},
		{"125 sets", Hardware{L2Entries: 1000}, false},
		{"341 sets", Hardware{L2Ways: 3}, false},
		{"fewer entries than ways", Hardware{L2Entries: 4, L2Ways: 8}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := tc.hw.toConfig()
			if (err == nil) != tc.ok {
				t.Fatalf("toConfig error = %v, want ok=%v", err, tc.ok)
			}
			if tc.hw == (Hardware{}) && cfg != mmu.DefaultConfig() {
				t.Errorf("zero Hardware resolved to %+v, want Table 3", cfg)
			}
			if _, err := NewSystem(SchemeBase, WithHardware(tc.hw)); (err == nil) != tc.ok {
				t.Errorf("NewSystem error = %v, want ok=%v", err, tc.ok)
			}
			_, err = Simulate(SimulationConfig{
				Scheme: SchemeBase, Workload: "gups", Scenario: ScenarioMedium,
				Accesses: 100, FootprintPages: 1024, Hardware: tc.hw,
			})
			if (err == nil) != tc.ok {
				t.Errorf("Simulate error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestSelectAnchorDistance(t *testing.T) {
	// All 64 KiB chunks: the optimal distance is 16 pages.
	if d := SelectAnchorDistance(map[uint64]uint64{16: 100}); d != 16 {
		t.Errorf("distance = %d, want 16", d)
	}
	if d := SelectAnchorDistance(nil); d != 2 {
		t.Errorf("empty histogram distance = %d, want 2", d)
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	res, err := Simulate(SimulationConfig{
		Scheme:         SchemeAnchor,
		Workload:       "gups",
		Scenario:       ScenarioMedium,
		Accesses:       100_000,
		FootprintPages: 1 << 14,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != SchemeAnchor || res.Workload != "gups" || res.Scenario != ScenarioMedium {
		t.Errorf("labels = %+v", res)
	}
	if res.Stats.Accesses != 100_000 {
		t.Errorf("accesses = %d", res.Stats.Accesses)
	}
	if res.TranslationCPI <= 0 {
		t.Error("no translation CPI")
	}
	if got := res.CPIRegularHit + res.CPICoalescedHit + res.CPIWalk; got < res.TranslationCPI*0.999 || got > res.TranslationCPI*1.001 {
		t.Error("CPI components do not sum")
	}
	if sum := res.L2RegularHitFraction + res.L2CoalescedHitFraction + res.L2MissFraction; sum < 0.999 || sum > 1.001 {
		t.Errorf("L2 fractions sum to %v", sum)
	}
	if res.MissesPerMillionInstructions() <= 0 {
		t.Error("MPMI not positive")
	}
}

// TestSimulateTinyFootprints: every workload simulates a footprint of a
// few pages, below the 16-page granule of the skewed patterns and the
// 8- and 16-page fractions the pointer chases take, without panicking.
func TestSimulateTinyFootprints(t *testing.T) {
	for _, wl := range Workloads() {
		for _, fp := range []uint64{1, 2, 7, 8, 15, 16, 17} {
			res, err := func() (res SimulationResult, err error) {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s at %d pages: panic: %v", wl, fp, p)
					}
				}()
				return Simulate(SimulationConfig{Scheme: SchemeAnchor, Workload: wl, Scenario: ScenarioMedium, Accesses: 500, FootprintPages: fp, Seed: 3})
			}()
			if err != nil {
				t.Errorf("%s at %d pages: %v", wl, fp, err)
			} else if res.Stats.Accesses != 500 {
				t.Errorf("%s at %d pages: %d accesses, want 500", wl, fp, res.Stats.Accesses)
			}
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	base := SimulationConfig{Scheme: SchemeBase, Workload: "gups", Scenario: ScenarioLow, Accesses: 1000, FootprintPages: 4096}
	for _, mutate := range []func(*SimulationConfig){
		func(c *SimulationConfig) { c.Scheme = "bogus" },
		func(c *SimulationConfig) { c.Workload = "bogus" },
		func(c *SimulationConfig) { c.Scenario = "bogus" },
	} {
		c := base
		mutate(&c)
		if _, err := Simulate(c); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
}

func TestSimulateStaticIdeal(t *testing.T) {
	cfg := SimulationConfig{
		Workload:       "omnetpp",
		Scenario:       ScenarioLow,
		Accesses:       30_000,
		FootprintPages: 1 << 13,
		Seed:           2,
	}
	best, err := SimulateStaticIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = SchemeAnchor
	dyn, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best.Stats.Misses > dyn.Stats.Misses {
		t.Errorf("static-ideal (%d misses) lost to dynamic (%d)", best.Stats.Misses, dyn.Stats.Misses)
	}
	if _, err := SimulateStaticIdeal(SimulationConfig{Workload: "bogus", Scenario: ScenarioLow}); err == nil {
		t.Error("bad workload accepted")
	}
}

// TestSimulateStaticIdealCostModel pins the serial and concurrent
// static-ideal entry points to the same shared config builder: a
// non-default cost model must be carried (not silently dropped, as the
// serial path's hand-rolled sim.Config once did) and produce identical
// results on both paths, and an invalid cost model must be rejected by
// both.
func TestSimulateStaticIdealCostModel(t *testing.T) {
	cfg := SimulationConfig{
		Workload:       "omnetpp",
		Scenario:       ScenarioLow,
		Accesses:       20_000,
		FootprintPages: 1 << 13,
		Seed:           3,
		CostModel:      "capacity-aware",
	}
	serial, err := SimulateStaticIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := SimulateStaticIdealContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, concurrent) {
		t.Errorf("static-ideal paths diverged under cost model %q:\nserial:     %+v\nconcurrent: %+v",
			cfg.CostModel, serial, concurrent)
	}

	cfg.CostModel = "bogus-model"
	if _, err := SimulateStaticIdeal(cfg); err == nil {
		t.Error("serial path accepted an invalid cost model")
	}
	if _, err := SimulateStaticIdealContext(context.Background(), cfg); err == nil {
		t.Error("concurrent path accepted an invalid cost model")
	}
}

func TestGenerateMapping(t *testing.T) {
	chunks, err := GenerateMapping(ScenarioLow, 4096, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, c := range chunks {
		total += c.Pages
		if c.Pages > 16 {
			// The final remainder chunk may be short but never long.
			t.Errorf("low-contiguity chunk of %d pages", c.Pages)
		}
	}
	if total != 4096 {
		t.Errorf("total = %d", total)
	}
	// The generated mapping feeds straight into a System.
	s, err := NewSystem(SchemeAnchor)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Map(chunks); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateMapping("bogus", 100, 1, 0); err == nil {
		t.Error("bogus scenario accepted")
	}
}

func TestWithCostModel(t *testing.T) {
	if _, err := NewSystem(SchemeAnchor, WithCostModel("bogus")); err == nil {
		t.Error("bogus cost model accepted")
	}
	for _, name := range []string{CostModelEntryCount, CostModelCoverageWeighted, CostModelCapacityAware} {
		if _, err := NewSystem(SchemeAnchor, WithCostModel(name)); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
}

func TestMapRegionsPublicAPI(t *testing.T) {
	s, err := NewSystem(SchemeAnchor)
	if err != nil {
		t.Fatal(err)
	}
	// Mixed mapping: fine-grained region then a huge region.
	var chunks []Chunk
	vp := uint64(0x10000)
	for i := 0; i < 256; i++ {
		chunks = append(chunks, Chunk{VirtPage: vp, PhysPage: uint64(1<<22 + i*600), Pages: 4})
		vp += 4
	}
	chunks = append(chunks, Chunk{VirtPage: vp, PhysPage: 1 << 27, Pages: 1 << 14})
	if err := s.MapRegions(chunks); err != nil {
		t.Fatal(err)
	}
	regions := s.Regions()
	if len(regions) != 2 {
		t.Fatalf("regions = %+v", regions)
	}
	if regions[0].Distance >= regions[1].Distance {
		t.Errorf("region distances not differentiated: %+v", regions)
	}
	// Translation still correct across both regions.
	if pp, ok := s.TranslatePage(0x10000); !ok || pp != 1<<22 {
		t.Errorf("fine region translate = %#x, %v", pp, ok)
	}
	if pp, ok := s.TranslatePage(vp + 100); !ok || pp != 1<<27+100 {
		t.Errorf("huge region translate = %#x, %v", pp, ok)
	}
	// Plain Map clears the region table.
	if err := s.Map(chunks[:1]); err != nil {
		t.Fatal(err)
	}
	if s.Regions() != nil {
		t.Error("Map kept regions")
	}
	// Non-anchor schemes reject MapRegions.
	q, _ := NewSystem(SchemeBase)
	if err := q.MapRegions(chunks); err == nil {
		t.Error("MapRegions on base scheme accepted")
	}
}

func TestSimulateExtensions(t *testing.T) {
	cfg := SimulationConfig{
		Scheme:         SchemeAnchor,
		Workload:       "canneal",
		Scenario:       ScenarioEager,
		Accesses:       60_000,
		FootprintPages: 1 << 15,
		Seed:           4,
		Pressure:       0.3,
	}
	plain, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CostModel = CostModelCapacityAware
	capac, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The two models may pick different distances; neither should be
	// catastrophically worse (tolerance: 1% of the trace).
	if capac.Stats.Misses > plain.Stats.Misses+cfg.Accesses/100 {
		t.Errorf("capacity-aware (%d) clearly worse than entry-count (%d)", capac.Stats.Misses, plain.Stats.Misses)
	}
	cfg.CostModel = "nonesuch"
	if _, err := Simulate(cfg); err == nil {
		t.Error("bad cost model accepted")
	}
	cfg.CostModel = ""
	cfg.MultiRegionAnchors = true
	if _, err := Simulate(cfg); err != nil {
		t.Errorf("multi-region simulate failed: %v", err)
	}
}

func TestProtectPublicAPI(t *testing.T) {
	s, err := NewSystem(SchemeAnchor, WithFixedAnchorDistance(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Map([]Chunk{{VirtPage: 0, PhysPage: 1 << 20, Pages: 128}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(40, 16, "r--"); err != nil {
		t.Fatal(err)
	}
	// Pages on both sides of the boundary still translate correctly.
	for _, v := range []uint64{39, 40, 55, 56} {
		pp, ok := s.TranslatePage(v)
		if !ok || pp != 1<<20+v {
			t.Fatalf("translate(%d) = %#x, %v", v, pp, ok)
		}
	}
	for _, bad := range []string{"", "rw", "qw-", "rq-", "rwq", "rwxx"} {
		if err := s.Protect(0, 1, bad); err == nil {
			t.Errorf("protection %q accepted", bad)
		}
	}
}

func TestSimulateTraceReplay(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/w.trc"
	// Record via the tracegen pipeline's underlying packages is internal;
	// at the public level, record with tracegen-equivalent settings by
	// generating a matching simulation and comparing replays determinism:
	// simplest check: a missing file errors cleanly.
	cfg := SimulationConfig{
		Scheme:         SchemeBase,
		Workload:       "gups",
		Scenario:       ScenarioLow,
		Accesses:       1000,
		FootprintPages: 4096,
		TracePath:      path,
	}
	if _, err := Simulate(cfg); err == nil {
		t.Fatal("missing trace file accepted")
	}
	// A non-trace file is rejected by the header check.
	if err := osWriteFile(path, []byte("not a trace")); err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(cfg); err == nil {
		t.Fatal("bogus trace file accepted")
	}
	// A 50-record trace ends inside the 100-access warmup: an error, not
	// a measurement of cold-TLB warmup accesses. Cut inside its last
	// record, it reports the decode error instead.
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Write(trace.Record{VPN: mem.VPN(i), Instrs: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		data []byte
		want string
	}{
		{buf.Bytes(), "sim: trace ended after 50 records, inside the 100-record warmup"},
		{buf.Bytes()[:buf.Len()-1], "trace: truncated record: EOF"},
	} {
		if err := osWriteFile(path, c.data); err != nil {
			t.Fatal(err)
		}
		if _, err := Simulate(cfg); err == nil || err.Error() != c.want {
			t.Errorf("Simulate over a %d-byte trace: err = %v, want %q", len(c.data), err, c.want)
		}
	}
}

func TestCompactAndPromotePublicAPI(t *testing.T) {
	s, err := NewSystem(SchemeAnchor)
	if err != nil {
		t.Fatal(err)
	}
	// 32 scattered 16-page chunks.
	var chunks []Chunk
	vp, pp := uint64(0x10000), uint64(1<<22)
	for i := 0; i < 32; i++ {
		chunks = append(chunks, Chunk{VirtPage: vp, PhysPage: pp, Pages: 16})
		vp += 16
		pp += 16 + 512
	}
	if err := s.Map(chunks); err != nil {
		t.Fatal(err)
	}
	distBefore := s.AnchorDistance()
	if got, err := s.Compact(1 << 26); err != nil || got != 1 {
		t.Errorf("chunks after compaction = %d, %v; want 1", got, err)
	}
	if s.AnchorDistance() <= distBefore {
		t.Errorf("distance did not grow after compaction: %d -> %d", distBefore, s.AnchorDistance())
	}
	if pa, ok := s.TranslatePage(0x10000 + 100); !ok || pa == 0 {
		t.Error("translation broken after compaction")
	}

	// Promotion through the facade (THP scheme).
	q, err := NewSystem(SchemeTHP)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Map([]Chunk{{VirtPage: 0, PhysPage: 0, Pages: 1024}}); err != nil {
		t.Fatal(err)
	}
	q.Unmap(100, 10) // demotes one huge page
	if err := q.AddChunk(Chunk{VirtPage: 100, PhysPage: 100, Pages: 10}); err != nil {
		t.Fatal(err)
	}
	if n := q.PromoteHugePages(); n != 1 {
		t.Errorf("promoted = %d, want 1", n)
	}
}

// TestCompactRejectsTargetPastFrameField: a compaction whose image would
// end past the PTE frame field is an error that moves nothing — not a
// panic after the first chunk was already remapped — while the highest
// target whose image still fits compacts normally.
func TestCompactRejectsTargetPastFrameField(t *testing.T) {
	chunks := []Chunk{
		{VirtPage: 0x10000, PhysPage: 1 << 22, Pages: 400},
		{VirtPage: 0x10000 + 400, PhysPage: 1 << 23, Pages: 400},
	}
	mapped := func(t *testing.T) *System {
		t.Helper()
		s, err := NewSystem(SchemeAnchor)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Map(chunks); err != nil {
			t.Fatal(err)
		}
		return s
	}
	translatesTo := func(t *testing.T, s *System, vp, want uint64) {
		t.Helper()
		if got, ok := s.TranslatePage(vp); !ok || got != want {
			t.Fatalf("page %#x -> %#x, %v; want %#x", vp, got, ok, want)
		}
	}

	// The image is 800 pages; the target aligns down to 2 MiB, so every
	// target from 1<<40-512 up leaves it ending past frame 1<<40-1.
	for _, target := range []uint64{1<<40 - 512, 1<<40 - 1, 1 << 40} {
		s := mapped(t)
		before := append(mem.ChunkList(nil), s.proc.Chunks()...)
		if n, err := s.Compact(target); err == nil {
			t.Fatalf("Compact(%#x) = %d chunks, want an error", target, n)
		}
		if got := s.proc.Chunks(); !reflect.DeepEqual(got, before) {
			t.Errorf("Compact(%#x) changed the chunk list: %v, want %v", target, got, before)
		}
		for _, c := range chunks {
			for off := uint64(0); off < c.Pages; off++ {
				translatesTo(t, s, c.VirtPage+off, c.PhysPage+off)
			}
		}
	}

	s := mapped(t)
	if n, err := s.Compact(1<<40 - 513); err != nil || n != 1 {
		t.Fatalf("Compact(1<<40-513) = %d, %v; want 1 chunk", n, err)
	}
	translatesTo(t, s, 0x10000, 1<<40-1024)
	translatesTo(t, s, 0x10000+799, 1<<40-225)
}

// TestSystemRejectsOutOfRangeChunks: chunks the page table cannot hold are
// errors from Map, MapRegions and AddChunk, not panics or aliased pages.
func TestSystemRejectsOutOfRangeChunks(t *testing.T) {
	const lastPage, lastFrame = 1<<36 - 1, 1<<40 - 1
	for _, chunks := range [][]Chunk{
		{{VirtPage: 0x10000, PhysPage: 1 << 40, Pages: 4}},
		// Page 1<<36 would alias page 0 in the four-level radix index.
		{{VirtPage: 0, PhysPage: 100, Pages: 1}, {VirtPage: 1 << 36, PhysPage: 200, Pages: 1}},
	} {
		s, err := NewSystem(SchemeAnchor)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Map(chunks); err == nil {
			t.Errorf("Map(%v) accepted", chunks)
		}
		if err := s.MapRegions(chunks); err == nil {
			t.Errorf("MapRegions(%v) accepted", chunks)
		}
		if err := s.AddChunk(chunks[len(chunks)-1]); err == nil {
			t.Errorf("AddChunk(%v) accepted", chunks[len(chunks)-1])
		}
		if pfn, ok := s.TranslatePage(0); ok {
			t.Errorf("page 0 translates to %#x after rejected mappings", pfn)
		}
	}

	s, err := NewSystem(SchemeAnchor)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Map([]Chunk{{VirtPage: lastPage, PhysPage: lastFrame, Pages: 1}}); err != nil {
		t.Fatalf("last page and frame refused: %v", err)
	}
	if pfn, ok := s.TranslatePage(lastPage); !ok || pfn != lastFrame {
		t.Errorf("TranslatePage(last page) = %#x, %v", pfn, ok)
	}
	if err := s.AddChunk(Chunk{VirtPage: 0, PhysPage: lastFrame - 3, Pages: 3}); err != nil {
		t.Errorf("AddChunk ending at the last frame refused: %v", err)
	}
}
