package workload

import (
	"math/rand"
	"testing"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/trace"
)

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 14 {
		t.Fatalf("suite has %d benchmarks, want 14", len(suite))
	}
	seen := make(map[string]bool)
	for _, s := range suite {
		if s.Name == "" || seen[s.Name] {
			t.Errorf("bad or duplicate name %q", s.Name)
		}
		seen[s.Name] = true
		if s.FootprintPages < 1<<10 {
			t.Errorf("%s: footprint %d pages is implausibly small", s.Name, s.FootprintPages)
		}
		if s.MeanInstrsPerAccess < 1 {
			t.Errorf("%s: bad instruction spacing", s.Name)
		}
		if s.build == nil {
			t.Errorf("%s: no pattern builder", s.Name)
		}
	}
	// gups and graph500 must be the largest (the paper sets them to 8 GiB).
	g, _ := ByName("gups")
	for _, s := range suite {
		if s.FootprintPages > g.FootprintPages {
			t.Errorf("%s footprint exceeds gups", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("mcf")
	if err != nil || s.Name != "mcf" {
		t.Errorf("ByName(mcf) = %+v, %v", s, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if len(Names()) != 14 {
		t.Error("Names() length wrong")
	}
}

func TestGeneratorBounds(t *testing.T) {
	const base = mem.VPN(0x10000)
	for _, s := range Suite() {
		fp := uint64(1 << 12)
		g := s.NewGenerator(base, fp, 20000, 42)
		n := 0
		for {
			rec, ok := g.Next()
			if !ok {
				break
			}
			n++
			if rec.VPN < base || rec.VPN >= base+mem.VPN(fp) {
				t.Fatalf("%s: VPN %#x outside [%#x, %#x)", s.Name, uint64(rec.VPN), uint64(base), uint64(base)+fp)
			}
			if rec.Instrs < 1 {
				t.Fatalf("%s: zero instruction gap", s.Name)
			}
		}
		if n != 20000 {
			t.Errorf("%s: generated %d records, want 20000", s.Name, n)
		}
	}
}

// TestGeneratorTinyFootprints: footprints below the skewed patterns'
// 16-page granule, and below the 8 and 16 pages whose fractions the
// pointer chases take, still generate in bounds.
func TestGeneratorTinyFootprints(t *testing.T) {
	const base = mem.VPN(0x10000)
	for _, s := range Suite() {
		for fp := uint64(1); fp <= 33; fp++ {
			g := s.NewGenerator(base, fp, 2000, 42)
			for rec, ok := g.Next(); ok; rec, ok = g.Next() {
				if rec.VPN < base || rec.VPN >= base+mem.VPN(fp) {
					t.Fatalf("%s at %d pages: VPN %#x outside the footprint", s.Name, fp, uint64(rec.VPN))
				}
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, s := range Suite() {
		a := trace.Collect(s.NewGenerator(0, 1<<12, 1000, 7), 0)
		b := trace.Collect(s.NewGenerator(0, 1<<12, 1000, 7), 0)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: record %d differs between identical seeds", s.Name, i)
			}
		}
		c := trace.Collect(s.NewGenerator(0, 1<<12, 1000, 8), 0)
		same := true
		for i := range a {
			if a[i].VPN != c[i].VPN {
				same = false
				break
			}
		}
		if same && s.Name != "cactusADM" { // pure streams are seed-independent by design
			t.Errorf("%s: different seeds produced identical VPN sequences", s.Name)
		}
	}
}

func TestMeanInstructionSpacing(t *testing.T) {
	for _, s := range Suite() {
		recs := trace.Collect(s.NewGenerator(0, 1<<12, 50000, 3), 0)
		var total uint64
		for _, r := range recs {
			total += uint64(r.Instrs)
		}
		got := float64(total) / float64(len(recs))
		want := float64(s.MeanInstrsPerAccess)
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("%s: mean instruction gap %.2f, want ~%.0f", s.Name, got, want)
		}
	}
}

// TestLocalitySpectrum pins the relative page locality of key benchmarks
// via the miss rate of a 64-entry fully-associative LRU page filter (a
// tiny idealized TLB): gups must miss far more than the skewed canneal,
// which must miss more than the streaming cactusADM. This ordering is
// what drives the paper's per-benchmark differences.
func TestLocalitySpectrum(t *testing.T) {
	missRate := func(name string) float64 {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		const accesses = 50000
		g := s.NewGenerator(0, 1<<14, accesses, 5)
		type node struct{ lru int }
		resident := make(map[mem.VPN]*node)
		clock, misses := 0, 0
		for {
			rec, ok := g.Next()
			if !ok {
				break
			}
			clock++
			if n, hit := resident[rec.VPN]; hit {
				n.lru = clock
				continue
			}
			misses++
			if len(resident) >= 64 {
				var victim mem.VPN
				best := clock + 1
				for v, n := range resident {
					if n.lru < best {
						best, victim = n.lru, v
					}
				}
				delete(resident, victim)
			}
			resident[rec.VPN] = &node{lru: clock}
		}
		return float64(misses) / float64(accesses)
	}
	gups := missRate("gups")
	cactus := missRate("cactusADM")
	canneal := missRate("canneal")
	if !(gups > canneal && canneal > cactus) {
		t.Errorf("locality ordering violated: gups=%.3f canneal=%.3f cactusADM=%.3f", gups, canneal, cactus)
	}
}

// TestCoverage ensures long runs of every benchmark eventually touch a
// large share of the footprint (no generator is stuck in a corner).
func TestCoverage(t *testing.T) {
	for _, s := range Suite() {
		fp := uint64(1 << 10)
		g := s.NewGenerator(0, fp, 100000, 9)
		seen := make(map[mem.VPN]bool)
		for {
			rec, ok := g.Next()
			if !ok {
				break
			}
			seen[rec.VPN] = true
		}
		frac := float64(len(seen)) / float64(fp)
		// astar's random walk is intentionally slow-moving; everything
		// else must cover most of the footprint.
		min := 0.5
		if s.Name == "astar_biglake" {
			min = 0.05
		}
		if frac < min {
			t.Errorf("%s: covered only %.1f%% of footprint", s.Name, frac*100)
		}
	}
}

func TestPatternPrimitives(t *testing.T) {
	r := rand.New(rand.NewSource(1))

	t.Run("streams", func(t *testing.T) {
		p := newStreams(100, 2, 1, 2)
		// Stream 0 at page 0 twice, then stream 1 at page 50 twice, then
		// stream 0 at page 1...
		want := []uint64{0, 0, 50, 50, 1, 1, 51, 51}
		for i, w := range want {
			if got := p.next(); got != w {
				t.Fatalf("access %d = %d, want %d", i, got, w)
			}
		}
	})

	t.Run("chase full coverage", func(t *testing.T) {
		p := newChase(1000, 1)
		seen := make(map[uint64]bool)
		for i := 0; i < 100000; i++ {
			v := p.next()
			if v >= 1000 {
				t.Fatal("chase escaped footprint")
			}
			seen[v] = true
		}
		if len(seen) < 990 {
			t.Errorf("chase covered %d/1000 pages", len(seen))
		}
	})

	t.Run("burst is sequential", func(t *testing.T) {
		p := newBurst(r, &uniformPattern{r: r, footprint: 1 << 20}, 1<<20, 8)
		prev := p.next()
		sequential := 0
		for i := 0; i < 1000; i++ {
			v := p.next()
			if v == prev+1 {
				sequential++
			}
			prev = v
		}
		if sequential < 300 {
			t.Errorf("burst produced only %d sequential steps of 1000", sequential)
		}
	})

	t.Run("hotcold concentrates", func(t *testing.T) {
		p := newHotCold(r, 10000, 0.01, 90)
		inHot := 0
		for i := 0; i < 10000; i++ {
			if p.next() < 100 {
				inHot++
			}
		}
		if inHot < 8000 {
			t.Errorf("only %d/10000 accesses in hot region", inHot)
		}
	})

	t.Run("zipf skew", func(t *testing.T) {
		p := newZipf(r, 1<<16, 1.2)
		counts := make(map[uint64]int)
		for i := 0; i < 100000; i++ {
			counts[p.next()]++
		}
		// Strong skew: far fewer distinct pages than accesses.
		if len(counts) > 50000 {
			t.Errorf("zipf touched %d distinct pages of 100000 accesses; not skewed", len(counts))
		}
	})

	t.Run("walk stays local", func(t *testing.T) {
		p := newWalk(r, 1<<16)
		a := p.next()
		far := 0
		for i := 0; i < 1000; i++ {
			b := p.next()
			d := int64(b) - int64(a)
			if d < 0 {
				d = -d
			}
			if d > 300 {
				far++
			}
			a = b
		}
		if far > 100 {
			t.Errorf("%d/1000 walk steps were long jumps", far)
		}
	})
}

func TestGeneratorZeroAccessesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero accesses accepted")
		}
	}()
	s, _ := ByName("gups")
	s.NewGenerator(0, 0, 0, 1)
}

func BenchmarkGeneratorGups(b *testing.B) {
	s, _ := ByName("gups")
	g := s.NewGenerator(0, 1<<19, uint64(b.N)+1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
