package sim

import (
	"fmt"
	"math/rand"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
)

// This file simulates mapping churn: the process frees and reallocates
// parts of its footprint while running, as Section 3.3 ("Updating Memory
// Mapping") and Section 4 ("memory mappings can change even during the
// execution") describe. Every churn operation unmaps a region and remaps
// it to fresh frames, which forces the OS to rewrite the affected anchor
// entries and shoot stale TLB entries down — all while the workload keeps
// translating.

// ChurnConfig extends a simulation with periodic remapping.
type ChurnConfig struct {
	Config
	// ChurnIntervalInstructions is how often a churn operation fires.
	ChurnIntervalInstructions uint64
	// ChurnPages is the size of each remapped region.
	ChurnPages uint64
}

// ChurnStats reports the OS work the churn caused.
type ChurnStats struct {
	Operations      uint64
	PagesRemapped   uint64
	EntryShootdowns uint64
	FullFlushes     uint64
	DistanceChanges uint64
}

// RunWithChurn drives the workload while periodically remapping regions
// of the footprint. Remapped regions keep their virtual addresses (a
// free immediately followed by an allocation reusing them), so the
// workload never faults; only the physical side and the affected anchors
// change.
func RunWithChurn(cfg ChurnConfig) (Result, ChurnStats, error) {
	return RunWithChurnFrom(cfg, Generated)
}

// RunWithChurnFrom is RunWithChurn with the initial mapping and the trace
// drawn from in.
func RunWithChurnFrom(cfg ChurnConfig, in Inputs) (Result, ChurnStats, error) {
	base := cfg.Config.withDefaults()
	if cfg.ChurnIntervalInstructions == 0 || cfg.ChurnPages == 0 {
		return Result{}, ChurnStats{}, fmt.Errorf("sim: churn interval and size must be positive")
	}

	cl, err := in.Mapping(MappingOf(base))
	if err != nil {
		return Result{}, ChurnStats{}, fmt.Errorf("sim: generating mapping: %w", err)
	}
	pol := base.Scheme.Policy()
	pol.Cost = base.CostModel
	proc := osmem.NewProcess(pol)
	if err := proc.InstallChunks(cl, base.FixedDistance); err != nil {
		return Result{}, ChurnStats{}, fmt.Errorf("sim: installing mapping: %w", err)
	}
	m := mmu.New(base.Scheme, base.HW, proc)

	startVPN := cl[0].StartVPN
	endVPN := cl[len(cl)-1].EndVPN()
	src := in.Trace(TraceOf(base, startVPN))

	res := Result{
		Scheme:   base.Scheme,
		Workload: base.Workload.Name,
		Scenario: base.Scenario,
		Chunks:   len(cl),
	}
	r := rand.New(rand.NewSource(base.Seed ^ 0x636875726e)) // "churn"
	// Fresh frames for remaps come from a region above everything the
	// mapping generator used, within the architectural 40-bit PFN field.
	freshPFN := mem.PFN(1) << 38

	var stats ChurnStats
	var instructions, sinceChurn, sinceEpoch uint64
	warmLeft := base.WarmupAccesses
	var warmStats mmu.Stats
	var warmInstr uint64
	dynamic := pol.Anchors && base.FixedDistance == 0

	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		m.Translate(rec.VPN)
		instructions += uint64(rec.Instrs)
		sinceChurn += uint64(rec.Instrs)
		sinceEpoch += uint64(rec.Instrs)

		if warmLeft > 0 {
			warmLeft--
			if warmLeft == 0 {
				warmStats = m.Stats()
				warmInstr = instructions
			}
		}
		if sinceChurn >= cfg.ChurnIntervalInstructions {
			sinceChurn = 0
			// Free + realloc a random region at the same VA.
			span := uint64(endVPN - startVPN)
			if span > cfg.ChurnPages {
				v := startVPN + mem.VPN(uint64(r.Int63n(int64(span-cfg.ChurnPages))))
				proc.UnmapRange(v, cfg.ChurnPages)
				if err := proc.AppendChunk(mem.Chunk{StartVPN: v, StartPFN: freshPFN, Pages: cfg.ChurnPages}); err != nil {
					return Result{}, ChurnStats{}, fmt.Errorf("sim: churn remap: %w", err)
				}
				freshPFN += mem.PFN(cfg.ChurnPages + 512)
				stats.Operations++
				stats.PagesRemapped += cfg.ChurnPages
			}
		}
		if dynamic && sinceEpoch >= base.EpochInstructions {
			sinceEpoch = 0
			proc.Reselect(base.SweepCost)
		}
	}
	res.Stats = subStats(m.Stats(), warmStats)
	res.Instructions = instructions - warmInstr
	res.HugePages = proc.HugePages()
	res.AnchorDistance = proc.AnchorDistance()
	res.DistanceChanges = proc.DistanceChanges()

	stats.EntryShootdowns = proc.EntryShootdowns()
	stats.FullFlushes = proc.FullFlushes()
	stats.DistanceChanges = proc.DistanceChanges()
	return res, stats, nil
}
