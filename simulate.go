package hybridtlb

import (
	"context"
	"fmt"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/sweep"
	"hybridtlb/internal/trace"
	"hybridtlb/internal/workload"
)

// Mapping scenario names accepted by Simulate (Section 5.1 / Table 4).
const (
	ScenarioDemand = "demand" // Linux demand paging with THP
	ScenarioEager  = "eager"  // eager paging
	ScenarioLow    = "low"    // chunks of 1-16 pages
	ScenarioMedium = "medium" // chunks of 1-512 pages
	ScenarioHigh   = "high"   // chunks of 512-65536 pages
	ScenarioMax    = "max"    // one contiguous region
)

// Scenarios lists the available mapping scenarios.
func Scenarios() []string {
	var out []string
	for _, s := range mapping.All() {
		out = append(out, s.String())
	}
	return out
}

// Workloads lists the synthetic benchmark suite (stand-ins for the
// paper's SPEC CPU2006 / BioBench / graph500 / gups workloads).
func Workloads() []string { return workload.Names() }

// SimulationConfig parameterizes a Simulate run.
type SimulationConfig struct {
	// Scheme is a translation scheme name (see Schemes).
	Scheme string
	// Workload is a benchmark name (see Workloads).
	Workload string
	// Scenario is a mapping scenario name (see Scenarios).
	Scenario string
	// Accesses is the measured trace length (default 1,000,000; a
	// further 10% runs as warmup).
	Accesses uint64
	// FootprintPages overrides the workload's default footprint.
	FootprintPages uint64
	// Seed makes mapping and workload generation deterministic.
	Seed int64
	// Pressure in [0,1] adds background fragmentation to the
	// buddy-backed scenarios (demand, eager).
	Pressure float64
	// FixedAnchorDistance pins the anchor distance (0: dynamic).
	FixedAnchorDistance uint64
	// CostModel names the distance-selection cost model ("" or
	// CostModelEntryCount for the paper-faithful default).
	CostModel string
	// MultiRegionAnchors installs per-region anchor distances (the
	// paper's Section 4.2 extension). Requires the anchor scheme.
	MultiRegionAnchors bool
	// Hardware overrides TLB geometry and latencies (zero: Table 3).
	Hardware Hardware
	// TracePath, when set, replays a recorded trace file (written by
	// cmd/tracegen) instead of generating the workload's accesses; the
	// Workload field then only names the footprint defaults.
	TracePath string
	// EpochInstructions overrides the epoch period in instructions — the
	// dynamic anchor re-selection interval and the Probe sampling period
	// (0: the paper's 10,000,000).
	EpochInstructions uint64
	// Probe, when non-nil, observes the simulation at every epoch
	// boundary (anchor re-selection period): cumulative stats and the
	// current anchor distance. Purely observational — attaching a probe
	// never changes the result — and excluded from sweep result-cache
	// keys, so a config served from the cache fires no samples.
	Probe func(EpochSample) `json:"-"`
}

// EpochSample is one epoch-boundary observation delivered to a
// SimulationConfig.Probe: the state of the run after Epoch re-selection
// periods (1-based), with cumulative counters including warmup.
type EpochSample struct {
	Epoch        int
	Instructions uint64
	Stats        Stats
	// AnchorDistance is the process-wide anchor distance after any
	// re-selection at this boundary (anchor scheme; 0 otherwise).
	AnchorDistance uint64
}

// SimulationResult reports one simulation in the paper's metrics.
type SimulationResult struct {
	Scheme   string
	Workload string
	Scenario string

	Stats        Stats
	Instructions uint64

	// TranslationCPI is translation cycles per instruction, the quantity
	// plotted in Figures 10 and 11 (split into its three components).
	TranslationCPI  float64
	CPIRegularHit   float64
	CPICoalescedHit float64
	CPIWalk         float64

	// L2 access breakdown (Table 5): fractions of L2 accesses served by
	// regular entries, coalesced entries, or missing.
	L2RegularHitFraction   float64
	L2CoalescedHitFraction float64
	L2MissFraction         float64

	// AnchorDistance is the final anchor distance (anchor scheme).
	AnchorDistance uint64
	// Chunks and HugePages describe the generated mapping.
	Chunks    int
	HugePages int
}

// MissesPerMillionInstructions returns the normalized miss rate.
func (r SimulationResult) MissesPerMillionInstructions() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Stats.Misses) / float64(r.Instructions) * 1e6
}

// toSimConfig validates the config's names and assembles the internal
// simulator configuration plus the resolved hardware description.
func (cfg SimulationConfig) toSimConfig() (sim.Config, mmu.Config, error) {
	scheme, err := mmu.ParseScheme(cfg.Scheme)
	if err != nil {
		return sim.Config{}, mmu.Config{}, err
	}
	spec, err := workload.ByName(cfg.Workload)
	if err != nil {
		return sim.Config{}, mmu.Config{}, err
	}
	scenario, err := mapping.ParseScenario(cfg.Scenario)
	if err != nil {
		return sim.Config{}, mmu.Config{}, err
	}
	costModel, err := core.ParseCostModel(cfg.CostModel)
	if err != nil {
		return sim.Config{}, mmu.Config{}, err
	}
	hw, err := cfg.Hardware.toConfig()
	if err != nil {
		return sim.Config{}, mmu.Config{}, err
	}
	var probe sim.Probe
	if p := cfg.Probe; p != nil {
		probe = func(s sim.ProbeSample) {
			p(EpochSample{
				Epoch:          s.Epoch,
				Instructions:   s.Instructions,
				Stats:          toPublicStats(s.Stats),
				AnchorDistance: s.AnchorDistance,
			})
		}
	}
	return sim.Config{
		Scheme:             scheme,
		Workload:           spec,
		Scenario:           scenario,
		HW:                 hw,
		FootprintPages:     cfg.FootprintPages,
		Accesses:           cfg.Accesses,
		Seed:               cfg.Seed,
		Pressure:           cfg.Pressure,
		FixedDistance:      cfg.FixedAnchorDistance,
		EpochInstructions:  cfg.EpochInstructions,
		CostModel:          costModel,
		MultiRegionAnchors: cfg.MultiRegionAnchors,
		Probe:              probe,
	}, hw, nil
}

// SimulateContext is Simulate with cancellation support: it checks ctx
// before starting and again before reporting, so a cancelled caller (a
// Ctrl-C'd CLI, a disconnected HTTP request) never receives a result it
// no longer wants. A single simulation is not interruptible mid-run; the
// context is observed at simulation boundaries.
func SimulateContext(ctx context.Context, cfg SimulationConfig) (SimulationResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return SimulationResult{}, err
	}
	res, err := Simulate(cfg)
	if cerr := ctx.Err(); cerr != nil {
		return SimulationResult{}, cerr
	}
	return res, err
}

// Simulate runs one benchmark over one mapping scenario through one
// translation scheme and reports the paper's metrics.
func Simulate(cfg SimulationConfig) (SimulationResult, error) {
	simCfg, hw, err := cfg.toSimConfig()
	if err != nil {
		return SimulationResult{}, err
	}
	var res sim.Result
	if cfg.TracePath != "" {
		// OpenPath detects the trace format by magic: the varint v1
		// stream gets a decoding Reader, the fixed-width binary format a
		// zero-copy (mmap-backed where available) record view.
		src, closeSrc, oerr := trace.OpenPath(cfg.TracePath)
		if oerr != nil {
			return SimulationResult{}, oerr
		}
		defer closeSrc()
		res, err = sim.RunTrace(simCfg, src)
		// A decode error ends the stream early, so it outranks the
		// replay's own complaint about a trace ending inside warmup.
		if e, ok := src.(interface{ Err() error }); ok && e.Err() != nil {
			err = e.Err()
		}
	} else {
		res, err = sim.Run(simCfg)
	}
	if err != nil {
		return SimulationResult{}, err
	}
	return toSimulationResult(res, hw), nil
}

// staticIdealSimConfig assembles the probe configuration both
// static-ideal entry points share: the anchor scheme with dynamic
// selection enabled (each probe then pins its own distance) and the
// multi-region extension cleared, since per-region distances play no
// role under a fixed process-wide distance. Routing through toSimConfig
// keeps every field — notably CostModel, which a hand-rolled sim.Config
// here once silently dropped — validated and carried identically on the
// serial and concurrent paths.
func (cfg SimulationConfig) staticIdealSimConfig() (sim.Config, mmu.Config, error) {
	cfg.Scheme = SchemeAnchor
	cfg.FixedAnchorDistance = 0
	simCfg, hw, err := cfg.toSimConfig()
	if err != nil {
		return sim.Config{}, mmu.Config{}, err
	}
	simCfg.MultiRegionAnchors = false
	return simCfg, hw, nil
}

// SimulateStaticIdeal exhaustively evaluates every anchor distance and
// returns the best-performing run — the paper's "static ideal"
// configuration. The scheme is forced to the anchor scheme.
func SimulateStaticIdeal(cfg SimulationConfig) (SimulationResult, error) {
	simCfg, hw, err := cfg.staticIdealSimConfig()
	if err != nil {
		return SimulationResult{}, err
	}
	best, _, err := sim.RunStaticIdeal(simCfg)
	if err != nil {
		return SimulationResult{}, err
	}
	return toSimulationResult(best, hw), nil
}

// SimulateStaticIdealContext is SimulateStaticIdeal with cancellation
// support: the per-distance probes run through a sweep engine, so
// cancelling ctx stops dispatching probes not yet started and the
// probes themselves execute concurrently (bounded by GOMAXPROCS).
// Results are identical to the serial SimulateStaticIdeal.
func SimulateStaticIdealContext(ctx context.Context, cfg SimulationConfig) (SimulationResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	simCfg, hw, err := cfg.staticIdealSimConfig()
	if err != nil {
		return SimulationResult{}, err
	}
	probes, err := sim.StaticIdealConfigs(simCfg)
	if err != nil {
		return SimulationResult{}, err
	}
	jobs := make([]sweep.Job, len(probes))
	for i, pc := range probes {
		jobs[i] = sweep.Job{Config: pc}
	}
	results, err := sweep.New(sweep.Options{}).Run(ctx, jobs)
	if err != nil {
		return SimulationResult{}, err
	}
	return toSimulationResult(sim.BestStaticIdeal(sweep.Results(results)), hw), nil
}

// toPublicStats converts the internal per-scheme counters to the public
// Stats shape (shared by results and epoch probe samples).
func toPublicStats(s mmu.Stats) Stats {
	return Stats{
		Accesses:      s.Accesses,
		L1Hits:        s.L1Hits,
		L2RegularHits: s.L2RegularHits,
		CoalescedHits: s.CoalescedHits,
		Misses:        s.Misses(),
		Cycles:        s.Cycles,
	}
}

func toSimulationResult(res sim.Result, hw mmu.Config) SimulationResult {
	cpi := res.CPI(hw)
	reg, coal, miss := res.L2Breakdown()
	return SimulationResult{
		Scheme:                 res.Scheme.String(),
		Workload:               res.Workload,
		Scenario:               res.Scenario.String(),
		Stats:                  toPublicStats(res.Stats),
		Instructions:           res.Instructions,
		TranslationCPI:         cpi.Total(),
		CPIRegularHit:          cpi.L2Hit,
		CPICoalescedHit:        cpi.Coalesced,
		CPIWalk:                cpi.Walk,
		L2RegularHitFraction:   reg,
		L2CoalescedHitFraction: coal,
		L2MissFraction:         miss,
		AnchorDistance:         res.AnchorDistance,
		Chunks:                 res.Chunks,
		HugePages:              res.HugePages,
	}
}

// GenerateMapping produces the chunk list of a named mapping scenario for
// a given footprint — useful for feeding System.Map with realistic
// fragmented mappings.
func GenerateMapping(scenario string, footprintPages uint64, seed int64, pressure float64) ([]Chunk, error) {
	sc, err := mapping.ParseScenario(scenario)
	if err != nil {
		return nil, err
	}
	cl, err := mapping.Generate(sc, mapping.Config{
		FootprintPages: footprintPages,
		Seed:           seed,
		Pressure:       pressure,
	})
	if err != nil {
		return nil, err
	}
	out := make([]Chunk, 0, len(cl))
	for _, c := range cl {
		out = append(out, Chunk{VirtPage: uint64(c.StartVPN), PhysPage: uint64(c.StartPFN), Pages: c.Pages})
	}
	return out, nil
}

// check that the scheme constants stay in sync with the internal enum.
var _ = func() struct{} {
	for _, name := range []string{SchemeBase, SchemeTHP, SchemeCluster, SchemeCluster2M, SchemeRMM, SchemeAnchor, SchemeCoLT, SchemeCoLTFA} {
		if _, err := mmu.ParseScheme(name); err != nil {
			panic(fmt.Sprintf("hybridtlb: scheme constant %q out of sync: %v", name, err))
		}
	}
	return struct{}{}
}()
