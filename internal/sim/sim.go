// Package sim drives workloads through translation schemes: it wires a
// mapping scenario, an OS process, an MMU and a workload trace together,
// runs the access stream with periodic anchor-distance re-selection (the
// paper checks every one billion instructions), and reports the metrics
// the evaluation section plots — relative TLB misses, L2 hit breakdowns
// and translation cycles per instruction.
package sim

import (
	"fmt"
	"math"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/trace"
	"hybridtlb/internal/workload"
)

// ProbeSample is one per-epoch observation delivered to a Probe: the
// cumulative state of the run when an epoch boundary was crossed.
type ProbeSample struct {
	// Epoch counts boundaries crossed so far, starting at 1.
	Epoch int
	// Instructions retired since the start of the run (warmup included).
	Instructions uint64
	// Stats are the MMU's cumulative counters (warmup included).
	Stats mmu.Stats
	// AnchorDistance is the process anchor distance after any
	// re-selection this boundary triggered (anchor-family schemes;
	// 0 for schemes without anchors).
	AnchorDistance uint64
}

// Probe observes epoch boundaries. It runs outside the per-access inner
// loop — once per EpochInstructions — so observability never costs the
// hot path anything. Probes fire on every scheme (for non-anchor schemes
// the boundary triggers no re-selection, only the observation) and must
// not mutate simulation state; they are excluded from sweep cache keys.
type Probe func(ProbeSample)

// Config parameterizes one simulation run.
type Config struct {
	Scheme   mmu.Scheme
	Workload workload.Spec
	Scenario mapping.Scenario

	// Hardware configuration (zero value: Table 3 via DefaultConfig).
	HW mmu.Config

	// FootprintPages overrides the workload's default footprint.
	FootprintPages uint64
	// Accesses is the trace length (default 1,000,000).
	Accesses uint64
	// WarmupAccesses run before counters reset (default Accesses/10).
	WarmupAccesses uint64
	// Seed drives both mapping generation and the workload.
	Seed int64
	// Pressure is the background fragmentation for buddy-backed
	// scenarios.
	Pressure float64

	// FixedDistance pins the anchor distance and disables dynamic
	// re-selection (the static configuration). Zero selects dynamically.
	FixedDistance uint64
	// EpochInstructions is the dynamic re-selection period (the paper
	// uses 1e9; the scaled default is 10,000,000).
	EpochInstructions uint64
	// SweepCost models distance-change cost (zero: the calibrated
	// default).
	SweepCost osmem.SweepCostModel
	// CostModel selects the distance-selection cost model (zero: the
	// paper-faithful entry count; core.CostCapacityAware is this
	// repository's capacity-aware extension).
	CostModel core.CostModel
	// MultiRegionAnchors installs per-region anchor distances (the
	// paper's Section 4.2 future-work extension) instead of one
	// process-wide distance. Requires the anchor scheme; FixedDistance
	// is ignored.
	MultiRegionAnchors bool
	// DetailedWalk replaces the flat 50-cycle walk latency with the
	// cache+PWC walk model (an ablation of the Table 3 assumption).
	DetailedWalk bool

	// Probe, when non-nil, is called at every epoch boundary with a
	// snapshot of the run. Purely observational: it never changes
	// results, and the sweep engine excludes it from cache keys.
	Probe Probe
}

// WithDefaults returns the config with every zero field replaced by its
// default — the configuration Run actually simulates. The sweep engine
// normalizes configs this way before hashing, so a config and its
// defaulted form share one cache cell. It is idempotent.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.HW == (mmu.Config{}) {
		c.HW = mmu.DefaultConfig()
	}
	if c.FootprintPages == 0 {
		c.FootprintPages = c.Workload.FootprintPages
	}
	if c.Accesses == 0 {
		c.Accesses = 1_000_000
	}
	if c.WarmupAccesses == 0 {
		c.WarmupAccesses = c.Accesses / 10
	}
	if c.EpochInstructions == 0 {
		c.EpochInstructions = 10_000_000
	}
	if c.SweepCost == (osmem.SweepCostModel{}) {
		c.SweepCost = osmem.DefaultSweepCost
	}
	return c
}

// MappingSpec names the mapping a run installs: its scenario and the
// generator's inputs. Runs with equal specs install identical chunk lists.
type MappingSpec struct {
	Scenario mapping.Scenario
	Config   mapping.Config
}

// MappingOf returns the spec of the mapping cfg's run installs: the one
// place a run's mapping inputs are derived, for every drive here and for
// the sweep engine's per-batch mapping memo.
func MappingOf(cfg Config) MappingSpec {
	cfg = cfg.withDefaults()
	return MappingSpec{Scenario: cfg.Scenario, Config: mapping.Config{
		FootprintPages: cfg.FootprintPages,
		Seed:           cfg.Seed,
		Pressure:       cfg.Pressure,
		FineGrained:    cfg.Workload.FineGrainedAlloc,
	}}
}

// Generate draws the spec's chunk list.
func (s MappingSpec) Generate() (mem.ChunkList, error) { return mapping.Generate(s.Scenario, s.Config) }

// TraceSpec names the trace a run draws: its workload and the
// generator's inputs.
type TraceSpec struct {
	Workload workload.Spec
	// Base is the footprint's first page, the mapping's first VPN, so it
	// is known only once the mapping is.
	Base      mem.VPN
	Footprint uint64
	// Records is the trace length, warmup included.
	Records uint64
	Seed    int64
}

// TraceOf returns the spec of the trace cfg's run draws over a mapping
// whose first page is base: the one place a run's trace inputs are
// derived, for every drive here and for the sweep engine's trace memo.
func TraceOf(cfg Config, base mem.VPN) TraceSpec {
	cfg = cfg.withDefaults()
	return TraceSpec{
		Workload:  cfg.Workload,
		Base:      base,
		Footprint: cfg.FootprintPages,
		Records:   cfg.WarmupAccesses + cfg.Accesses,
		Seed:      cfg.Seed,
	}
}

// Generate returns a generator streaming the spec's trace.
func (s TraceSpec) Generate() *workload.Generator {
	return s.Workload.NewGenerator(s.Base, s.Footprint, s.Records, s.Seed)
}

// TraceKey is a TraceSpec's comparable identity without its base VPN, so
// a sweep can key traces before any mapping exists. Specs with equal
// keys draw equal traces over equal bases.
type TraceKey struct {
	Workload           string // workload.Spec.Identity
	Footprint, Records uint64
	Seed               int64
}

// Key returns the spec's identity.
func (s TraceSpec) Key() TraceKey {
	return TraceKey{s.Workload.Identity(), s.Footprint, s.Records, s.Seed}
}

// Inputs supplies a run's mapping and trace. Runs only read the chunk
// list (the OS installs a copy), so Mapping may hand one list to many
// concurrent runs; Trace returns a source of its own on every call.
type Inputs interface {
	Mapping(MappingSpec) (mem.ChunkList, error)
	Trace(TraceSpec) trace.Source
}

// Generated is the Inputs that generates every mapping and trace on
// demand.
var Generated Inputs = generated{}

type generated struct{}

func (generated) Mapping(s MappingSpec) (mem.ChunkList, error) { return s.Generate() }
func (generated) Trace(s TraceSpec) trace.Source               { return s.Generate() }

// Result reports one simulation.
type Result struct {
	Scheme   mmu.Scheme
	Workload string
	Scenario mapping.Scenario

	Stats        mmu.Stats
	Instructions uint64

	// Mapping/OS facts.
	Chunks          int
	HugePages       int
	AnchorDistance  uint64 // final distance (anchor scheme)
	DistanceChanges uint64

	// AnchorActions breaks anchor-scheme L2 flows down by Table 2 row.
	AnchorActions map[core.L2Action]uint64
}

// MissesPerMillionInstructions is the paper's underlying miss-rate metric.
func (r Result) MissesPerMillionInstructions() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Stats.Misses()) / float64(r.Instructions) * 1e6
}

// RelativeMisses returns this run's misses normalized to a baseline run
// (the y-axis of Figures 2 and 7-9), in percent.
func (r Result) RelativeMisses(base Result) float64 {
	if base.Stats.Misses() == 0 {
		if r.Stats.Misses() == 0 {
			return 100
		}
		return 0
	}
	return 100 * float64(r.Stats.Misses()) / float64(base.Stats.Misses())
}

// CPIBreakdown is the translation cycles-per-instruction split plotted in
// Figures 10 and 11.
type CPIBreakdown struct {
	L2Hit     float64 // cycles spent on regular L2 hits
	Coalesced float64 // cycles on anchor / cluster / range hits
	Walk      float64 // cycles on page table walks
}

// Total returns the full translation CPI.
func (c CPIBreakdown) Total() float64 { return c.L2Hit + c.Coalesced + c.Walk }

// CPI computes the translation CPI breakdown under the given latencies.
func (r Result) CPI(hw mmu.Config) CPIBreakdown {
	if r.Instructions == 0 {
		return CPIBreakdown{}
	}
	inv := 1 / float64(r.Instructions)
	return CPIBreakdown{
		L2Hit:     float64(r.Stats.L2RegularHits*hw.L2HitCycles) * inv,
		Coalesced: float64(r.Stats.CoalescedHits*hw.CoalescedHitCycles) * inv,
		Walk:      float64((r.Stats.Walks+r.Stats.Faults)*hw.WalkCycles) * inv,
	}
}

// L2Breakdown returns the Table 5 row: fractions of L2 accesses served by
// regular entries, coalesced entries, and misses.
func (r Result) L2Breakdown() (regular, coalesced, miss float64) {
	total := r.Stats.L2Accesses()
	if total == 0 {
		return 0, 0, 0
	}
	inv := 1 / float64(total)
	return float64(r.Stats.L2RegularHits) * inv,
		float64(r.Stats.CoalescedHits) * inv,
		float64(r.Stats.Misses()) * inv
}

// driveFunc pushes a trace through an MMU, performing churn's
// operations when churn is non-nil; drive is the production batched
// implementation, driveSerial the record-at-a-time reference the
// equivalence suite compares it against.
type driveFunc func(m mmu.MMU, proc *osmem.Process, src trace.Source, cfg Config, churn *churner, res *Result) error

// Run executes one simulation.
func Run(cfg Config) (Result, error) { return RunFrom(cfg, Generated) }

// RunFrom is Run with the mapping and the trace drawn from in.
func RunFrom(cfg Config, in Inputs) (Result, error) {
	res, _, err := run(cfg, in, nil, drive)
	return res, err
}

// run executes one simulation through driveFn. A non-nil churn remaps
// parts of the footprint while the workload runs (see RunWithChurn);
// such runs model neither the detailed walk nor multi-region anchors and
// report no anchor actions.
func run(cfg Config, in Inputs, churn *ChurnConfig, driveFn driveFunc) (Result, ChurnStats, error) {
	cfg = cfg.withDefaults()
	if churn != nil {
		cfg.DetailedWalk, cfg.MultiRegionAnchors = false, false
	}

	cl, err := in.Mapping(MappingOf(cfg))
	if err != nil {
		return Result{}, ChurnStats{}, fmt.Errorf("sim: generating mapping: %w", err)
	}

	if cfg.DetailedWalk {
		cfg.HW.Walk = mmu.NewWalkModel()
	}
	pol := cfg.Scheme.Policy()
	pol.Cost = cfg.CostModel
	proc := osmem.NewProcess(pol)
	if cfg.MultiRegionAnchors {
		if err := proc.InstallChunksRegions(cl, 0); err != nil {
			return Result{}, ChurnStats{}, fmt.Errorf("sim: installing multi-region mapping: %w", err)
		}
	} else if err := proc.InstallChunks(cl, cfg.FixedDistance); err != nil {
		return Result{}, ChurnStats{}, fmt.Errorf("sim: installing mapping: %w", err)
	}
	m := mmu.New(cfg.Scheme, cfg.HW, proc)

	src := in.Trace(TraceOf(cfg, cl[0].StartVPN))

	res := Result{
		Scheme:   cfg.Scheme,
		Workload: cfg.Workload.Name,
		Scenario: cfg.Scenario,
		Chunks:   len(cl),
	}
	var ch *churner
	if churn != nil {
		ch = newChurner(*churn, cl)
	}

	if err := driveFn(m, proc, src, cfg, ch, &res); err != nil {
		return Result{}, ChurnStats{}, err
	}

	res.HugePages = proc.HugePages()
	res.AnchorDistance = proc.AnchorDistance()
	res.DistanceChanges = proc.DistanceChanges()
	if ch != nil {
		return res, ch.finish(proc), nil
	}
	if am, ok := m.(interface {
		Actions() map[core.L2Action]uint64
	}); ok {
		res.AnchorActions = am.Actions()
	}
	return res, ChurnStats{}, nil
}

// batchRecords is the drive loop's batch size: large enough to amortize
// the per-batch bookkeeping to nothing, small enough that the record and
// VPN buffers (96 KiB together) stay cache-resident.
const batchRecords = 4096

// drive pushes the trace through the MMU in batches, resetting counters
// after warmup, performing churn operations and running the periodic
// distance re-selection. Each batch is sliced into segments that stop
// exactly where the per-record loop would act — at the warmup boundary
// (counted in accesses) and at each churn and epoch boundary (counted in
// instructions) — so the per-access warmup countdown and the churn and
// epoch checks live here, at segment granularity, instead of inside the
// translation inner loop. Results are byte-identical to driveSerial: the
// equivalence suite holds the two paths together.
//
// A streamed trace longer than one batch is read one batch ahead on a
// producer goroutine (trace.ReadAhead), so generating or decoding the
// next batch overlaps translating this one; records already in memory
// are read directly. Every buffer holds one batch: batchRecords records,
// or the whole run when it is shorter.
func drive(m mmu.MMU, proc *osmem.Process, src trace.Source, cfg Config, churn *churner, res *Result) error {
	anchors := cfg.Scheme.Policy().Anchors
	dynamic := anchors && cfg.FixedDistance == 0
	trackEpochs := dynamic || cfg.Probe != nil

	total := cfg.WarmupAccesses + cfg.Accesses
	batch := int(min(batchRecords, total))
	bs := trace.Batched(src)
	if total > batchRecords && !trace.InMemory(src) {
		ra := trace.NewReadAhead(bs, batch)
		defer ra.Close()
		bs = ra
	}
	recs := make([]trace.Record, batch)
	vpns := make([]mem.VPN, batch)

	var instructions, sinceEpoch, sinceChurn uint64
	warmLeft := cfg.WarmupAccesses
	var warmStats mmu.Stats
	var warmInstr uint64
	epoch := 0

	// The batch loop is the per-access path: setup above (the batch
	// buffers and any read-ahead) is the only allocation the drive makes.
	//tlbvet:hotpath
	for {
		n := bs.ReadBatch(recs)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			vpns[i] = recs[i].VPN
		}
		for start := 0; start < n; {
			// The segment ends at the batch end, the warmup boundary, or
			// the first record that reaches the churn interval or the
			// epoch — whichever comes first. The serial loop acts on each
			// record after translating it, in the order warmup, churn,
			// epoch; acting in that order below preserves it when one
			// record is several boundaries.
			end := n
			if warmLeft > 0 && uint64(end-start) > warmLeft {
				end = start + int(warmLeft)
			}
			// Both counters reset on every crossing, so each budget is at
			// least one; an untracked boundary never runs out.
			budget := uint64(math.MaxUint64)
			if trackEpochs {
				budget = cfg.EpochInstructions - sinceEpoch
			}
			if churn != nil {
				budget = min(budget, churn.interval-sinceChurn)
			}
			var segInstrs uint64
			for i := start; i < end; i++ {
				segInstrs += uint64(recs[i].Instrs)
				if segInstrs >= budget {
					end = i + 1
					break
				}
			}

			m.TranslateBatch(vpns[start:end])
			instructions += segInstrs

			if warmLeft > 0 {
				warmLeft -= uint64(end - start)
				if warmLeft == 0 {
					warmStats = m.Stats()
					warmInstr = instructions
				}
			}
			if churn != nil && sinceChurn+segInstrs >= churn.interval {
				sinceChurn = 0
				if err := churn.op(proc); err != nil {
					return err
				}
			} else {
				sinceChurn += segInstrs
			}
			if trackEpochs && sinceEpoch+segInstrs >= cfg.EpochInstructions {
				sinceEpoch = 0
				if dynamic {
					proc.Reselect(cfg.SweepCost)
				}
				if cfg.Probe != nil {
					epoch++
					d := uint64(0)
					if anchors {
						d = proc.AnchorDistance()
					}
					cfg.Probe(ProbeSample{
						Epoch:          epoch,
						Instructions:   instructions,
						Stats:          m.Stats(),
						AnchorDistance: d,
					})
				}
			} else {
				sinceEpoch += segInstrs
			}
			start = end
		}
	}
	res.Stats = subStats(m.Stats(), warmStats)
	res.Instructions = instructions - warmInstr
	return nil
}

// driveSerial is the original record-at-a-time loop, kept as the golden
// reference: the batched drive above must produce byte-identical results.
// Only the equivalence tests call it.
func driveSerial(m mmu.MMU, proc *osmem.Process, src trace.Source, cfg Config, churn *churner, res *Result) error {
	anchors := cfg.Scheme.Policy().Anchors
	dynamic := anchors && cfg.FixedDistance == 0
	var instructions, sinceEpoch, sinceChurn uint64
	var warmLeft = cfg.WarmupAccesses
	var warmStats mmu.Stats
	var warmInstr uint64
	epoch := 0

	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		m.Translate(rec.VPN)
		instructions += uint64(rec.Instrs)
		sinceEpoch += uint64(rec.Instrs)
		sinceChurn += uint64(rec.Instrs)

		if warmLeft > 0 {
			warmLeft--
			if warmLeft == 0 {
				warmStats = m.Stats()
				warmInstr = instructions
			}
		}
		if churn != nil && sinceChurn >= churn.interval {
			sinceChurn = 0
			if err := churn.op(proc); err != nil {
				return err
			}
		}
		if (dynamic || cfg.Probe != nil) && sinceEpoch >= cfg.EpochInstructions {
			sinceEpoch = 0
			if dynamic {
				proc.Reselect(cfg.SweepCost)
			}
			if cfg.Probe != nil {
				epoch++
				d := uint64(0)
				if anchors {
					d = proc.AnchorDistance()
				}
				cfg.Probe(ProbeSample{
					Epoch:          epoch,
					Instructions:   instructions,
					Stats:          m.Stats(),
					AnchorDistance: d,
				})
			}
		}
	}
	res.Stats = subStats(m.Stats(), warmStats)
	res.Instructions = instructions - warmInstr
	return nil
}

func subStats(a, b mmu.Stats) mmu.Stats {
	return mmu.Stats{
		Accesses:      a.Accesses - b.Accesses,
		L1Hits:        a.L1Hits - b.L1Hits,
		L2RegularHits: a.L2RegularHits - b.L2RegularHits,
		CoalescedHits: a.CoalescedHits - b.CoalescedHits,
		Walks:         a.Walks - b.Walks,
		Faults:        a.Faults - b.Faults,
		Cycles:        a.Cycles - b.Cycles,
	}
}

// StaticIdealConfigs expands the paper's "static ideal" configuration
// into its per-distance probe configs: one run per candidate anchor
// distance with the dynamic selection disabled. Callers run the probes —
// serially here in RunStaticIdeal, or concurrently and cached through
// internal/sweep — and reduce them with BestStaticIdeal.
func StaticIdealConfigs(cfg Config) ([]Config, error) {
	if !cfg.Scheme.Policy().Anchors {
		return nil, fmt.Errorf("sim: static-ideal requires an anchor scheme, got %v", cfg.Scheme)
	}
	ds := core.Distances()
	out := make([]Config, 0, len(ds))
	for _, d := range ds {
		c := cfg
		c.FixedDistance = d
		out = append(out, c)
	}
	return out, nil
}

// BestStaticIdeal picks the static-ideal winner from per-distance
// results in StaticIdealConfigs order: fewest misses, earliest distance
// on ties.
func BestStaticIdeal(all []Result) Result {
	var best Result
	for i, r := range all {
		if i == 0 || r.Stats.Misses() < best.Stats.Misses() {
			best = r
		}
	}
	return best
}

// RunStaticIdeal exhaustively evaluates every anchor distance with the
// dynamic selection disabled and returns the best run (fewest misses)
// — the paper's "static ideal" configuration — along with every
// per-distance result.
func RunStaticIdeal(cfg Config) (Result, []Result, error) {
	cfgs, err := StaticIdealConfigs(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	all := make([]Result, 0, len(cfgs))
	for _, c := range cfgs {
		r, err := Run(c)
		if err != nil {
			return Result{}, nil, err
		}
		all = append(all, r)
	}
	return BestStaticIdeal(all), all, nil
}
