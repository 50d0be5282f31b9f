package mapping

import (
	"math"
	"testing"

	"hybridtlb/internal/mem"
)

func testConfig(footprint uint64, pressure float64) Config {
	return Config{FootprintPages: footprint, Seed: 1, Pressure: pressure}
}

func TestScenarioNamesRoundTrip(t *testing.T) {
	for _, s := range All() {
		got, err := ParseScenario(s.String())
		if err != nil || got != s {
			t.Errorf("round trip of %v failed: %v, %v", s, got, err)
		}
	}
	if _, err := ParseScenario("bogus"); err == nil {
		t.Error("bogus scenario parsed")
	}
	if Scenario(99).String() == "" {
		t.Error("unknown scenario name empty")
	}
}

func TestChunkRanges(t *testing.T) {
	// Table 4 exactly.
	cases := []struct {
		s      Scenario
		lo, hi uint64
	}{{Low, 1, 16}, {Medium, 1, 512}, {High, 512, 65536}}
	for _, c := range cases {
		lo, hi := c.s.ChunkRange()
		if lo != c.lo || hi != c.hi {
			t.Errorf("%v range = [%d,%d], want [%d,%d]", c.s, lo, hi, c.lo, c.hi)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ChunkRange on demand did not panic")
		}
	}()
	Demand.ChunkRange()
}

// TestTable4 verifies each synthetic scenario produces chunk sizes within
// its Table 4 range (except the final remainder chunk).
func TestTable4(t *testing.T) {
	for _, s := range []Scenario{Low, Medium, High} {
		lo, hi := s.ChunkRange()
		cl, err := Generate(s, testConfig(1<<18, 0))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for i, c := range cl {
			last := i == len(cl)-1
			if c.Pages > hi || (!last && c.Pages < lo) {
				t.Errorf("%v: chunk %d has %d pages, outside [%d,%d]", s, i, c.Pages, lo, hi)
			}
		}
	}
}

func TestGenerateInvariants(t *testing.T) {
	for _, s := range All() {
		for _, pressure := range []float64{0, 0.5} {
			cl, err := Generate(s, testConfig(1<<16, pressure))
			if err != nil {
				t.Fatalf("%v p=%v: %v", s, pressure, err)
			}
			if err := cl.Validate(); err != nil {
				t.Fatalf("%v p=%v: %v", s, pressure, err)
			}
			if got := cl.TotalPages(); got != 1<<16 {
				t.Errorf("%v p=%v: %d pages, want %d", s, pressure, got, 1<<16)
			}
			// No virtual holes: chunks must be back to back.
			for i := 1; i < len(cl); i++ {
				if cl[i].StartVPN != cl[i-1].EndVPN() {
					t.Errorf("%v p=%v: virtual hole between chunk %d and %d", s, pressure, i-1, i)
				}
			}
			// No physical overlap between chunks.
			seen := make(map[mem.PFN]bool)
			for _, c := range cl {
				for p := c.StartPFN; p < c.EndPFN(); p += 97 {
					if seen[p] {
						t.Fatalf("%v p=%v: physical frame %#x mapped twice", s, pressure, uint64(p))
					}
					seen[p] = true
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, s := range All() {
		a, err := Generate(s, testConfig(1<<15, 0.3))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(s, testConfig(1<<15, 0.3))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%v: nondeterministic chunk count", s)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: nondeterministic chunk %d", s, i)
			}
		}
		c, err := Generate(s, Config{FootprintPages: 1 << 15, Seed: 2, Pressure: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		if s != Max && len(c) == len(a) && chunksEqual(a, c) {
			t.Errorf("%v: different seeds gave identical mappings", s)
		}
	}
}

func chunksEqual(a, b mem.ChunkList) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMaxScenarioIsOneChunk(t *testing.T) {
	cl, err := Generate(Max, testConfig(1<<16, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(cl) != 1 || cl[0].Pages != 1<<16 {
		t.Fatalf("max mapping = %v", cl)
	}
}

func TestSyntheticCongruence(t *testing.T) {
	// Every synthetic chunk must be 2 MiB-congruent so THP promotion is
	// possible exactly where alignment allows.
	for _, s := range []Scenario{Low, Medium, High} {
		cl, err := Generate(s, testConfig(1<<17, 0))
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cl {
			if (uint64(c.StartVPN)-uint64(c.StartPFN))%mem.PagesPer2M != 0 {
				t.Fatalf("%v: chunk %d not 2MiB-congruent: %v", s, i, c)
			}
		}
	}
}

func TestContiguityOrdering(t *testing.T) {
	// Mean chunk size must increase low < medium < high <= max, and eager
	// on a pristine machine must beat demand under heavy pressure.
	mean := func(s Scenario, pressure float64) float64 {
		cl, err := Generate(s, testConfig(1<<17, pressure))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		return float64(cl.TotalPages()) / float64(len(cl))
	}
	low, med, high, max := mean(Low, 0), mean(Medium, 0), mean(High, 0), mean(Max, 0)
	if !(low < med && med < high && high <= max) {
		t.Errorf("contiguity ordering violated: low=%.0f med=%.0f high=%.0f max=%.0f", low, med, high, max)
	}
	eagerPristine := mean(Eager, 0)
	demandPressured := mean(Demand, 0.9)
	if eagerPristine <= demandPressured {
		t.Errorf("eager on pristine (%.0f) should beat demand under pressure (%.0f)", eagerPristine, demandPressured)
	}
}

func TestPressureReducesContiguity(t *testing.T) {
	for _, s := range []Scenario{Demand, Eager} {
		calm, err := Generate(s, testConfig(1<<17, 0))
		if err != nil {
			t.Fatal(err)
		}
		pressured, err := Generate(s, Config{FootprintPages: 1 << 17, Seed: 1, Pressure: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if len(pressured) <= len(calm) {
			t.Errorf("%v: pressure did not fragment mapping (%d chunks calm, %d pressured)", s, len(calm), len(pressured))
		}
	}
}

func TestDemandProducesHugeChunksWhenCalm(t *testing.T) {
	cl, err := Generate(Demand, testConfig(1<<17, 0))
	if err != nil {
		t.Fatal(err)
	}
	// On a pristine machine every 2 MiB unit gets an order-9 block and
	// adjacent blocks coalesce: expect very few chunks.
	if len(cl) > 8 {
		t.Errorf("pristine demand mapping has %d chunks; expected near-perfect contiguity", len(cl))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Generate(Low, Config{}); err == nil {
		t.Error("zero footprint accepted")
	}
	if _, err := Generate(Low, Config{FootprintPages: 100, Pressure: 1.5}); err == nil {
		t.Error("pressure > 1 accepted")
	}
	if _, err := Generate(Low, Config{FootprintPages: 100, Pressure: math.NaN()}); err == nil {
		t.Error("NaN pressure accepted")
	}
	if _, err := Generate(Demand, Config{FootprintPages: 1 << 16, PhysFrames: 1 << 16}); err == nil {
		t.Error("physical memory equal to footprint accepted (no headroom)")
	}
	if _, err := Generate(Scenario(42), testConfig(100, 0)); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestBaseVPNDefaultsAndAlignment(t *testing.T) {
	cl, err := Generate(Low, testConfig(1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if cl[0].StartVPN != DefaultBaseVPN {
		t.Errorf("base = %#x, want %#x", uint64(cl[0].StartVPN), uint64(DefaultBaseVPN))
	}
	cl, err = Generate(Low, Config{FootprintPages: 1000, BaseVPN: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !cl[0].StartVPN.IsAligned(mem.PagesPer2M) {
		t.Error("base not aligned up to 2MiB")
	}
}

func TestFigure1ShapeCDFVariesWithPressure(t *testing.T) {
	// Figure 1's observation: contiguity distributions vary widely with
	// background pressure. The fraction of pages in chunks <= 16 pages
	// must grow monotonically-ish with pressure.
	fracSmall := func(p float64) float64 {
		cl, err := Generate(Demand, Config{FootprintPages: 1 << 16, Seed: 3, Pressure: p})
		if err != nil {
			t.Fatal(err)
		}
		var small, total uint64
		for _, c := range cl {
			total += c.Pages
			if c.Pages <= 16 {
				small += c.Pages
			}
		}
		return float64(small) / float64(total)
	}
	f0, f9 := fracSmall(0), fracSmall(0.9)
	if f9 <= f0 {
		t.Errorf("small-chunk fraction: pressure 0 -> %.3f, pressure 0.9 -> %.3f; want increase", f0, f9)
	}
}

func BenchmarkGenerateDemand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Demand, Config{FootprintPages: 1 << 16, Seed: int64(i), Pressure: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}
