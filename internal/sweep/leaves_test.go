package sweep

import (
	"context"
	"testing"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/workload"
)

// TestLeafReuseMatchesDirectRuns: each worker builds its runs' page
// tables in the leaves its previous run released. At parallelism 2, a
// batch whose jobs alternate large and small footprints, THP and anchor
// schemes (dynamic, fixed-distance and multi-region), scenarios and
// churn returns for every job exactly the result of a direct run, whose
// tables are allocated fresh.
func TestLeafReuseMatchesDirectRuns(t *testing.T) {
	wl, err := workload.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	schemes := []mmu.Scheme{mmu.THP, mmu.Anchor, mmu.Cluster2M, mmu.Anchor, mmu.RMM, mmu.Anchor, mmu.Base, mmu.Anchor}
	scenarios := []mapping.Scenario{mapping.Low, mapping.Max, mapping.Medium, mapping.Demand, mapping.High}
	var jobs []Job
	for i := 0; i < 16; i++ {
		cfg := sim.Config{
			Scheme:         schemes[i%len(schemes)],
			Workload:       wl,
			Scenario:       scenarios[i%len(scenarios)],
			FootprintPages: 1 << 10,
			Accesses:       6_000,
			Seed:           int64(1 + i%3),
			Pressure:       0.15,
		}
		if i%2 == 0 {
			cfg.FootprintPages = 1 << 17 // eight slabs of leaves
		}
		j := Job{Config: cfg}
		switch {
		case cfg.Scheme != mmu.Anchor:
		case i%8 == 3:
			j.Config.FixedDistance = 64
		case i%8 == 5:
			j.Config.MultiRegionAnchors = true
		case i%8 == 7:
			j.ChurnIntervalInstructions, j.ChurnPages = 5_000, 64
		}
		jobs = append(jobs, j)
	}
	rs, err := New(Options{Parallelism: 2, DisableCache: true}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		res, churn, err := execute(r.Job, sim.Generated)
		if err != nil {
			t.Fatal(err)
		}
		if canonical(t, r.Res, r.Churn) != canonical(t, res, churn) {
			t.Errorf("job %v differs from its direct run", r.Job)
		}
	}
}
