package sim

import "hybridtlb/internal/trace"

// RunTrace replays a recorded access trace (see internal/trace and
// cmd/tracegen) through the configured scheme and mapping instead of
// generating accesses — the record/replay mode the paper's Pin-based
// methodology uses. The config's Workload supplies only the footprint
// default. The replay is bounded at WarmupAccesses+Accesses records, so
// Accesses 0 replays at most the default 1,000,000 measured accesses, as
// in Run; a shorter trace ends the replay early. A replay installs no
// multi-region anchors.
func RunTrace(cfg Config, src trace.Source) (Result, error) {
	return runTrace(cfg, src, drive)
}

func runTrace(cfg Config, src trace.Source, driveFn driveFunc) (Result, error) {
	cfg = cfg.withDefaults()
	cfg.MultiRegionAnchors = false
	res, _, err := run(cfg, replay{src: trace.Limit(src, cfg.WarmupAccesses+cfg.Accesses)}, nil, driveFn)
	return res, err
}

// replay is the Inputs of a replay: a generated mapping and the recorded
// trace.
type replay struct {
	generated
	src trace.Source
}

func (r replay) Trace(TraceSpec) trace.Source { return r.src }
