package hybridtlb

import (
	"math"
	"testing"
)

// FuzzSimulateConfig runs Simulate over arbitrary public configs at tiny
// scale. Every config must either return an error or measure exactly the
// accesses it asked for, and none may panic; a pressure that is NaN or
// outside [0,1] must be an error. The harness bounds the sizes
// (footprints of 1 to 2^16 pages, 1 to 2,000 accesses, hardware sizes of
// at most 64, where 0 keeps Table 3's value) and decodes the pressure
// from raw float bits, so NaN and the infinities reach it. The seed
// corpus in testdata/fuzz/FuzzSimulateConfig runs in every go test.
func FuzzSimulateConfig(f *testing.F) {
	schemes, workloads, scenarios := Schemes(), Workloads(), Scenarios()
	costModels := []string{"", CostModelEntryCount, CostModelCoverageWeighted, CostModelCapacityAware}
	f.Fuzz(func(t *testing.T, scheme, wl, scenario uint8, accesses uint16, footprint uint32, seed int64,
		pressureBits, distance uint64, costModel uint8, multiRegion bool, l2Entries, l2Ways, rangeEntries uint8, epoch uint16) {
		cfg := SimulationConfig{
			Scheme:              schemes[int(scheme)%len(schemes)],
			Workload:            workloads[int(wl)%len(workloads)],
			Scenario:            scenarios[int(scenario)%len(scenarios)],
			Accesses:            1 + uint64(accesses)%2_000,
			FootprintPages:      1 + uint64(footprint)%(1<<16),
			Seed:                seed,
			Pressure:            math.Float64frombits(pressureBits),
			FixedAnchorDistance: distance,
			CostModel:           costModels[int(costModel)%len(costModels)],
			MultiRegionAnchors:  multiRegion,
			Hardware: Hardware{
				L2Entries:    int(l2Entries % 65),
				L2Ways:       int(l2Ways % 65),
				RangeEntries: int(rangeEntries % 65),
			},
			EpochInstructions: uint64(epoch),
		}
		res, err := Simulate(cfg)
		if !(cfg.Pressure >= 0 && cfg.Pressure <= 1) {
			if err == nil {
				t.Fatalf("pressure %v accepted: %+v", cfg.Pressure, cfg)
			}
			return
		}
		if err == nil && res.Stats.Accesses != cfg.Accesses {
			t.Fatalf("measured %d accesses, want %d: %+v", res.Stats.Accesses, cfg.Accesses, cfg)
		}
	})
}
