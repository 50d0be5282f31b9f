package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/trace"
)

// Spec describes one benchmark of the evaluation suite.
type Spec struct {
	// Name as used in the paper's figures.
	Name string
	// FootprintPages is the benchmark's native footprint in 4 KiB pages
	// (the paper's working-set sizes: SPEC CPU2006 reference inputs,
	// 8 GiB for gups and graph500), so footprint-to-TLB-reach ratios
	// match the paper's. Simulations can override it downward for quick
	// runs.
	FootprintPages uint64
	// MeanInstrsPerAccess spaces memory accesses in instructions; the
	// translation CPI denominator comes from this.
	MeanInstrsPerAccess int
	// WriteFraction is the fraction of accesses that are stores.
	WriteFraction float64
	// FineGrainedAlloc marks benchmarks that build their footprint from
	// many small allocations interleaved with frees (omnetpp,
	// xalancbmk), so even demand/eager paging hands them fine-grained
	// physical contiguity (the paper's Table 6 selects distance 4 for
	// them on the real mappings).
	FineGrainedAlloc bool
	// build constructs the benchmark's access pattern.
	build func(r *rand.Rand, footprint uint64) pattern
}

// Suite returns the evaluation suite in the paper's figure order
// (alphabetical as plotted in Figures 7 and 8).
func Suite() []Spec {
	return []Spec{
		{
			// FDTD solver: several large field arrays swept by stencil
			// streams, plus a small hot set of coefficient tables.
			Name: "GemsFDTD", FootprintPages: 840 << 8, MeanInstrsPerAccess: 4, WriteFraction: 0.35,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newMix(r,
					[]pattern{newStreams(fp, 6, 1, 2), newHotCold(r, fp, 0.02, 90)},
					[]int{85, 15})
			},
		},
		{
			// Pathfinding over the "biglake" map: a spatially local
			// random walk over a 2D grid with occasional jumps to the
			// priority queue region.
			Name: "astar_biglake", FootprintPages: 500 << 8, MeanInstrsPerAccess: 5, WriteFraction: 0.2,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newMix(r,
					[]pattern{newWalk(r, fp), newZipf(r, fp, 1.4)},
					[]int{70, 30})
			},
		},
		{
			// 3D stencil over a structured grid: long unit-stride streams.
			Name: "cactusADM", FootprintPages: 670 << 8, MeanInstrsPerAccess: 4, WriteFraction: 0.3,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newStreams(fp, 3, 1, 3)
			},
		},
		{
			// Simulated annealing over a netlist: heavily skewed random
			// access to scattered elements.
			Name: "canneal", FootprintPages: 940 << 8, MeanInstrsPerAccess: 5, WriteFraction: 0.15,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newZipf(r, fp, 1.1)
			},
		},
		{
			// BFS over a scale-free graph: random vertex lookups, each
			// followed by a sequential adjacency sweep.
			Name: "graph500", FootprintPages: 8192 << 8, MeanInstrsPerAccess: 3, WriteFraction: 0.1,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newBurst(r, &uniformPattern{r: r, footprint: fp}, fp, 4)
			},
		},
		{
			// Giant updates per second: uniform random read-modify-write
			// over the whole table. The TLB worst case.
			Name: "gups", FootprintPages: 8192 << 8, MeanInstrsPerAccess: 3, WriteFraction: 0.5,
			build: func(r *rand.Rand, fp uint64) pattern {
				return &uniformPattern{r: r, footprint: fp}
			},
		},
		{
			// Network simplex: pointer chasing over a hot arc/node core
			// (the reference input's active network) with cold sweeps
			// over the full footprint.
			Name: "mcf", FootprintPages: 1700 << 8, MeanInstrsPerAccess: 4, WriteFraction: 0.25,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newMix(r,
					[]pattern{newChase(fp/16, r.Uint64()), newStreams(fp, 1, 1, 2), &uniformPattern{r: r, footprint: fp}},
					[]int{70, 20, 10})
			},
		},
		{
			// Lattice QCD: strided sweeps over a 4D lattice.
			Name: "milc", FootprintPages: 680 << 8, MeanInstrsPerAccess: 4, WriteFraction: 0.3,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newMix(r,
					[]pattern{newStreams(fp, 4, 1, 2), newStreams(fp, 2, 17, 1)},
					[]int{70, 30})
			},
		},
		{
			// Genome alignment: suffix-tree walks concentrated on the
			// tree's upper levels, with excursions over the whole
			// reference.
			Name: "mummer", FootprintPages: 470 << 8, MeanInstrsPerAccess: 4, WriteFraction: 0.1,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newMix(r,
					[]pattern{newChase(fp/8, r.Uint64()), &uniformPattern{r: r, footprint: fp}},
					[]int{75, 25})
			},
		},
		{
			// Discrete event simulation: skewed access to event/message
			// pools.
			Name: "omnetpp", FootprintPages: 170 << 8, MeanInstrsPerAccess: 5, WriteFraction: 0.3, FineGrainedAlloc: true,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newZipf(r, fp, 1.05)
			},
		},
		{
			// LP solver on the pds instance: sparse row sweeps plus
			// random column accesses.
			Name: "soplex_pds", FootprintPages: 440 << 8, MeanInstrsPerAccess: 4, WriteFraction: 0.2,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newMix(r,
					[]pattern{newStreams(fp, 2, 1, 2), &uniformPattern{r: r, footprint: fp}},
					[]int{60, 40})
			},
		},
		{
			// Speech recognition: streaming over acoustic models with a
			// hot active set.
			Name: "sphinx3", FootprintPages: 180 << 8, MeanInstrsPerAccess: 5, WriteFraction: 0.1,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newMix(r,
					[]pattern{newStreams(fp, 2, 1, 4), newHotCold(r, fp, 0.05, 80)},
					[]int{60, 40})
			},
		},
		{
			// Genome assembly: index walks over a hot table region plus
			// random access over the full sequence store.
			Name: "tigr", FootprintPages: 470 << 8, MeanInstrsPerAccess: 4, WriteFraction: 0.1,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newMix(r,
					[]pattern{newChase(fp/8, r.Uint64()), &uniformPattern{r: r, footprint: fp}},
					[]int{65, 35})
			},
		},
		{
			// XSLT processing: pointer-heavy DOM traversal with a hot
			// skewed core.
			Name: "xalancbmk", FootprintPages: 380 << 8, MeanInstrsPerAccess: 5, WriteFraction: 0.2, FineGrainedAlloc: true,
			build: func(r *rand.Rand, fp uint64) pattern {
				return newZipf(r, fp, 1.2)
			},
		},
	}
}

// Names lists the suite's benchmark names, sorted.
func Names() []string {
	var out []string
	for _, s := range Suite() {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// Identity names the spec in content-addressed keys: its Name, which
// names the access pattern, and its public parameters. Specs with equal
// identities generate equal traces from equal generator inputs, so a
// custom Spec needs a Name of its own.
func (s Spec) Identity() string {
	return fmt.Sprintf("%s/%d/%d/%g/%t", s.Name, s.FootprintPages, s.MeanInstrsPerAccess, s.WriteFraction, s.FineGrainedAlloc)
}

// ByName finds a benchmark spec.
func ByName(name string) (Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Generator streams the benchmark's accesses as trace records; it
// implements trace.Source.
type Generator struct {
	spec      Spec
	base      mem.VPN
	pat       pattern
	r         *rand.Rand
	remaining uint64
}

// NewGenerator builds a trace source for the benchmark over
// [base, base+footprint) emitting accesses records. A zero footprint uses
// the spec default; accesses must be positive.
func (s Spec) NewGenerator(base mem.VPN, footprint, accesses uint64, seed int64) *Generator {
	if footprint == 0 {
		footprint = s.FootprintPages
	}
	if accesses == 0 {
		panic("workload: zero-length trace")
	}
	r := rand.New(rand.NewSource(seed))
	return &Generator{
		spec:      s,
		base:      base,
		pat:       s.build(r, footprint),
		r:         r,
		remaining: accesses,
	}
}

// Next implements trace.Source.
func (g *Generator) Next() (trace.Record, bool) {
	if g.remaining == 0 {
		return trace.Record{}, false
	}
	g.remaining--
	// Instruction gaps are uniform in [1, 2*mean-1] so the mean holds.
	instrs := uint32(1)
	if m := g.spec.MeanInstrsPerAccess; m > 1 {
		instrs = uint32(1 + g.r.Intn(2*m-1))
	}
	return trace.Record{
		VPN:    g.base + mem.VPN(g.pat.next()),
		Instrs: instrs,
		Write:  g.r.Float64() < g.spec.WriteFraction,
	}, true
}

// ReadBatch implements trace.BatchSource. It draws from the RNG in
// exactly Next's order (instruction gap, then pattern, then write draw),
// so a batched trace is record-for-record identical to a serial one.
func (g *Generator) ReadBatch(dst []trace.Record) int {
	mean := g.spec.MeanInstrsPerAccess
	writeFrac := g.spec.WriteFraction
	for n := range dst {
		if g.remaining == 0 {
			return n
		}
		g.remaining--
		instrs := uint32(1)
		if mean > 1 {
			instrs = uint32(1 + g.r.Intn(2*mean-1))
		}
		dst[n] = trace.Record{
			VPN:    g.base + mem.VPN(g.pat.next()),
			Instrs: instrs,
			Write:  g.r.Float64() < writeFrac,
		}
	}
	return len(dst)
}
