package sim

import (
	"fmt"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/trace"
)

// RunTrace replays a recorded access trace (see internal/trace and
// cmd/tracegen) through the configured scheme and mapping instead of
// generating accesses — the record/replay mode the paper's Pin-based
// methodology uses. The config's Workload supplies only the footprint
// default; Accesses and WarmupAccesses bound and split the replay
// (Accesses 0 replays everything after warmup).
func RunTrace(cfg Config, src trace.Source) (Result, error) {
	return runTrace(cfg, src, drive)
}

func runTrace(cfg Config, src trace.Source, driveFn driveFunc) (Result, error) {
	cfg = cfg.withDefaults()

	cl, err := MappingOf(cfg).Generate()
	if err != nil {
		return Result{}, fmt.Errorf("sim: generating mapping: %w", err)
	}
	if cfg.DetailedWalk {
		cfg.HW.Walk = mmu.NewWalkModel()
	}
	pol := cfg.Scheme.Policy()
	pol.Cost = cfg.CostModel
	proc := osmem.NewProcess(pol)
	if err := proc.InstallChunks(cl, cfg.FixedDistance); err != nil {
		return Result{}, fmt.Errorf("sim: installing mapping: %w", err)
	}
	m := mmu.New(cfg.Scheme, cfg.HW, proc)

	res := Result{
		Scheme:   cfg.Scheme,
		Workload: cfg.Workload.Name,
		Scenario: cfg.Scenario,
		Chunks:   len(cl),
	}
	bounded := src
	if cfg.Accesses > 0 {
		bounded = trace.Limit(src, cfg.WarmupAccesses+cfg.Accesses)
	}
	driveFn(m, proc, bounded, cfg, &res)

	res.HugePages = proc.HugePages()
	res.AnchorDistance = proc.AnchorDistance()
	res.DistanceChanges = proc.DistanceChanges()
	if am, ok := m.(interface {
		Actions() map[core.L2Action]uint64
	}); ok {
		res.AnchorActions = am.Actions()
	}
	return res, nil
}
