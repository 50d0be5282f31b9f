package sim

import (
	"fmt"
	"math/rand"

	"hybridtlb/internal/mem"
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
// change. Churn runs model neither the detailed walk nor multi-region
// anchors, and their Result carries no AnchorActions.
func RunWithChurn(cfg ChurnConfig) (Result, ChurnStats, error) {
	return RunWithChurnFrom(cfg, Generated)
}

// RunWithChurnFrom is RunWithChurn with the initial mapping and the trace
// drawn from in.
func RunWithChurnFrom(cfg ChurnConfig, in Inputs) (Result, ChurnStats, error) {
	if cfg.ChurnIntervalInstructions == 0 || cfg.ChurnPages == 0 {
		return Result{}, ChurnStats{}, fmt.Errorf("sim: churn interval and size must be positive")
	}
	return run(cfg.Config, in, &cfg, drive)
}

// churner performs a run's churn operations. The drive calls op each time
// interval instructions have retired since the run started or since the
// last operation, warmup included.
type churner struct {
	interval, pages uint64
	// lo and hi bound the initial mapping's virtual span, where every
	// remapped region lies.
	lo, hi mem.VPN
	rng    *rand.Rand
	// fresh is the first frame of the next remap: frames come from a
	// region above everything the mapping generator used, within the
	// architectural 40-bit PFN field.
	fresh mem.PFN
	stats ChurnStats
}

func newChurner(cfg ChurnConfig, cl mem.ChunkList) *churner {
	return &churner{
		interval: cfg.ChurnIntervalInstructions,
		pages:    cfg.ChurnPages,
		lo:       cl[0].StartVPN,
		hi:       cl[len(cl)-1].EndVPN(),
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x636875726e)), // "churn"
		fresh:    mem.PFN(1) << 38,
	}
}

// op frees a random region of the span and reallocates it at the same
// virtual addresses on fresh frames. A span no larger than one region
// leaves nothing to choose, and op draws nothing.
func (c *churner) op(proc *osmem.Process) error {
	span := uint64(c.hi - c.lo)
	if span <= c.pages {
		return nil
	}
	v := c.lo + mem.VPN(uint64(c.rng.Int63n(int64(span-c.pages))))
	proc.UnmapRange(v, c.pages)
	if err := proc.AppendChunk(mem.Chunk{StartVPN: v, StartPFN: c.fresh, Pages: c.pages}); err != nil {
		return fmt.Errorf("sim: churn remap: %w", err)
	}
	c.fresh += mem.PFN(c.pages + 512)
	c.stats.Operations++
	c.stats.PagesRemapped += c.pages
	return nil
}

// finish returns the run's churn statistics, with the OS work proc
// accounted.
func (c *churner) finish(proc *osmem.Process) ChurnStats {
	s := c.stats
	s.EntryShootdowns = proc.EntryShootdowns()
	s.FullFlushes = proc.FullFlushes()
	s.DistanceChanges = proc.DistanceChanges()
	return s
}
