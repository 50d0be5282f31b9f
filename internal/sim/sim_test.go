package sim

import (
	"testing"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/trace"
	"hybridtlb/internal/workload"
)

// smallCfg keeps unit-test runs fast: a modest footprint and trace.
func smallCfg(s mmu.Scheme, wl string, sc mapping.Scenario) Config {
	spec, err := workload.ByName(wl)
	if err != nil {
		panic(err)
	}
	return Config{
		Scheme:         s,
		Workload:       spec,
		Scenario:       sc,
		FootprintPages: 1 << 14,
		Accesses:       200_000,
		Seed:           1,
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(smallCfg(mmu.Base, "gups", mapping.Medium))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Accesses != 200_000 {
		t.Errorf("accesses = %d", res.Stats.Accesses)
	}
	if res.Instructions == 0 {
		t.Error("no instructions accounted")
	}
	if res.Stats.Faults != 0 {
		t.Errorf("%d faults: workload escaped its mapping", res.Stats.Faults)
	}
	if res.Stats.Misses() == 0 {
		t.Error("gups on base scheme produced zero misses; implausible")
	}
	if res.MissesPerMillionInstructions() <= 0 {
		t.Error("MPMI not positive")
	}
}

func TestWarmupExcluded(t *testing.T) {
	cfg := smallCfg(mmu.Base, "gups", mapping.Medium)
	cfg.WarmupAccesses = 100_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Accesses != 200_000 {
		t.Errorf("measured accesses = %d, want 200000 after warmup", res.Stats.Accesses)
	}
}

func TestSchemeOrderingOnMediumContiguity(t *testing.T) {
	// The paper's core result at medium contiguity (Figure 8): anchor
	// must beat base, THP must be nearly useless, and anchor must be at
	// least as good as cluster.
	misses := make(map[mmu.Scheme]uint64)
	for _, s := range []mmu.Scheme{mmu.Base, mmu.THP, mmu.Cluster, mmu.Anchor} {
		res, err := Run(smallCfg(s, "gups", mapping.Medium))
		if err != nil {
			t.Fatal(err)
		}
		misses[s] = res.Stats.Misses()
	}
	if misses[mmu.Anchor] >= misses[mmu.Base] {
		t.Errorf("anchor (%d) did not beat base (%d)", misses[mmu.Anchor], misses[mmu.Base])
	}
	if misses[mmu.Anchor] > misses[mmu.Cluster] {
		t.Errorf("anchor (%d) worse than cluster (%d) at medium contiguity", misses[mmu.Anchor], misses[mmu.Cluster])
	}
	if float64(misses[mmu.THP]) < float64(misses[mmu.Base])*0.7 {
		t.Errorf("THP (%d) too effective at medium contiguity vs base (%d)", misses[mmu.THP], misses[mmu.Base])
	}
}

func TestAnchorNearEliminatesMissesAtMaxContiguity(t *testing.T) {
	base, err := Run(smallCfg(mmu.Base, "gups", mapping.Max))
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := Run(smallCfg(mmu.Anchor, "gups", mapping.Max))
	if err != nil {
		t.Fatal(err)
	}
	rmm, err := Run(smallCfg(mmu.RMM, "gups", mapping.Max))
	if err != nil {
		t.Fatal(err)
	}
	if rel := anchor.RelativeMisses(base); rel > 10 {
		t.Errorf("anchor relative misses at max contiguity = %.1f%%, want < 10%%", rel)
	}
	if rel := rmm.RelativeMisses(base); rel > 5 {
		t.Errorf("RMM relative misses at max contiguity = %.1f%%, want < 5%%", rel)
	}
	// One 2^14-page chunk: the selection picks the distance matching the
	// chunk size (one anchor covers everything); 2^16 would leave no
	// anchor-coverable unit at all.
	if anchor.AnchorDistance != 1<<14 {
		t.Errorf("anchor distance = %d, want %d (the chunk size)", anchor.AnchorDistance, 1<<14)
	}
}

func TestFixedDistancePinsAndDisablesReselect(t *testing.T) {
	cfg := smallCfg(mmu.Anchor, "gups", mapping.Max)
	cfg.FixedDistance = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnchorDistance != 8 {
		t.Errorf("distance = %d, want pinned 8", res.AnchorDistance)
	}
	if res.DistanceChanges != 0 {
		t.Errorf("pinned run changed distance %d times", res.DistanceChanges)
	}
}

func TestDynamicReselectRuns(t *testing.T) {
	cfg := smallCfg(mmu.Anchor, "gups", mapping.Medium)
	cfg.EpochInstructions = 50_000 // force many epochs
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The selection must be stable: epochs re-run the algorithm but the
	// histogram has not changed, so no distance changes occur.
	if res.DistanceChanges != 0 {
		t.Errorf("stable mapping caused %d distance changes", res.DistanceChanges)
	}
}

func TestAnchorActionsReported(t *testing.T) {
	res, err := Run(smallCfg(mmu.Anchor, "gups", mapping.Medium))
	if err != nil {
		t.Fatal(err)
	}
	if res.AnchorActions == nil {
		t.Fatal("anchor actions missing")
	}
	// Actions accumulate over the whole run (warmup included), so they
	// must cover at least the measured L2 accesses.
	var total uint64
	for _, n := range res.AnchorActions {
		total += n
	}
	if total < res.Stats.L2Accesses() {
		t.Errorf("action counts (%d) below measured L2 accesses (%d)", total, res.Stats.L2Accesses())
	}
	if res.AnchorActions[core.ActionAnchorHit] == 0 {
		t.Error("no anchor hits recorded at medium contiguity")
	}
	base, err := Run(smallCfg(mmu.Base, "gups", mapping.Medium))
	if err != nil {
		t.Fatal(err)
	}
	if base.AnchorActions != nil {
		t.Error("base scheme reported anchor actions")
	}
}

func TestCPIBreakdown(t *testing.T) {
	res, err := Run(smallCfg(mmu.Anchor, "gups", mapping.Medium))
	if err != nil {
		t.Fatal(err)
	}
	cpi := res.CPI(mmu.DefaultConfig())
	if cpi.Total() <= 0 {
		t.Error("zero translation CPI")
	}
	want := float64(res.Stats.Cycles) / float64(res.Instructions)
	if got := cpi.Total(); got < want*0.99 || got > want*1.01 {
		t.Errorf("CPI breakdown total %.4f != cycles/instr %.4f", got, want)
	}
	if cpi.Coalesced == 0 {
		t.Error("anchor scheme shows no coalesced-hit cycles")
	}
}

func TestL2Breakdown(t *testing.T) {
	res, err := Run(smallCfg(mmu.Anchor, "gups", mapping.Medium))
	if err != nil {
		t.Fatal(err)
	}
	reg, coal, miss := res.L2Breakdown()
	sum := reg + coal + miss
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("L2 breakdown sums to %.4f", sum)
	}
	if coal == 0 {
		t.Error("no anchor-hit fraction")
	}
}

func TestRelativeMissesEdgeCases(t *testing.T) {
	a := Result{Stats: mmu.Stats{Walks: 50}, Instructions: 1000}
	b := Result{Stats: mmu.Stats{Walks: 100}, Instructions: 1000}
	if got := a.RelativeMisses(b); got != 50 {
		t.Errorf("relative misses = %v, want 50", got)
	}
	zero := Result{Instructions: 1000}
	if got := zero.RelativeMisses(zero); got != 100 {
		t.Errorf("0/0 relative misses = %v, want 100", got)
	}
	if got := a.RelativeMisses(zero); got != 0 {
		t.Errorf("n/0 relative misses = %v, want 0", got)
	}
}

func TestRunStaticIdeal(t *testing.T) {
	cfg := smallCfg(mmu.Anchor, "omnetpp", mapping.Low)
	cfg.Accesses = 50_000
	best, all, err := RunStaticIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(core.Distances()) {
		t.Fatalf("evaluated %d distances", len(all))
	}
	for _, r := range all {
		if r.Stats.Misses() < best.Stats.Misses() {
			t.Errorf("distance %d beats reported best", r.AnchorDistance)
		}
	}
	// Static-ideal can never lose to the dynamic pick by much; sanity:
	// its best distance should be small for the low-contiguity mapping.
	if best.AnchorDistance > 64 {
		t.Errorf("static-ideal picked distance %d for low contiguity", best.AnchorDistance)
	}
	if _, _, err := RunStaticIdeal(smallCfg(mmu.Base, "gups", mapping.Low)); err == nil {
		t.Error("static-ideal accepted a non-anchor scheme")
	}
}

func TestAllSchemesAllScenariosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke matrix skipped in -short")
	}
	for _, s := range mmu.All() {
		for _, sc := range mapping.All() {
			cfg := smallCfg(s, "xalancbmk", sc)
			cfg.Accesses = 30_000
			cfg.Pressure = 0.3
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", s, sc, err)
			}
			if res.Stats.Faults != 0 {
				t.Errorf("%v/%v: %d faults", s, sc, res.Stats.Faults)
			}
		}
	}
}

func BenchmarkSimulateAnchorMedium(b *testing.B) {
	cfg := smallCfg(mmu.Anchor, "gups", mapping.Medium)
	cfg.Accesses = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDetailedWalkChangesCosts(t *testing.T) {
	cfg := smallCfg(mmu.Base, "gups", mapping.Medium)
	flat, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DetailedWalk = true
	det, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same translations, same misses; only the cycle accounting moves.
	if det.Stats.Misses() != flat.Stats.Misses() {
		t.Errorf("detailed walk changed miss count: %d vs %d", det.Stats.Misses(), flat.Stats.Misses())
	}
	if det.Stats.Cycles == flat.Stats.Cycles {
		t.Error("detailed walk produced identical cycles; model not engaged")
	}
}

func TestRunTraceReplayMatchesGenerated(t *testing.T) {
	// Recording a workload and replaying it must reproduce the generated
	// run exactly (same mapping seed, same access stream).
	cfg := smallCfg(mmu.Anchor, "canneal", mapping.Medium)
	cfg.Accesses = 50_000
	gen, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Record the identical stream (warmup + measured).
	spec, _ := workload.ByName("canneal")
	recs := trace.Collect(spec.NewGenerator(
		mapping.DefaultBaseVPN, cfg.FootprintPages, cfg.WarmupAccesses+cfg.Accesses+55_000, cfg.Seed), 55_000)
	replayed, err := RunTrace(cfg, trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Stats.Misses() != gen.Stats.Misses() {
		t.Errorf("replay misses %d != generated %d", replayed.Stats.Misses(), gen.Stats.Misses())
	}
	if replayed.Stats.Accesses != gen.Stats.Accesses {
		t.Errorf("replay accesses %d != generated %d", replayed.Stats.Accesses, gen.Stats.Accesses)
	}
}

func TestRunTraceUnbounded(t *testing.T) {
	cfg := smallCfg(mmu.Base, "gups", mapping.Low)
	cfg.Accesses = 0 // the default: 1,000,000 after 100,000 of warmup
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = trace.Record{VPN: mapping.DefaultBaseVPN + mem.VPN(i%100), Instrs: 4}
	}
	res, err := RunTrace(cfg, trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	// The trace ends inside warmup, so no warmup snapshot is taken and
	// all 1000 accesses count.
	if res.Stats.Accesses != 1000 {
		t.Errorf("accesses = %d", res.Stats.Accesses)
	}
	if res.Stats.Faults != 0 {
		t.Errorf("faults = %d", res.Stats.Faults)
	}
}
