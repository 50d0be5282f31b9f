package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"hybridtlb"
	"hybridtlb/internal/core"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/trace"
)

// batchRecords is the simulator's drive batch size.
const batchRecords = 4096

// sampleVPNs is how many of a run's first accesses the isolated layer
// timings replay.
const sampleVPNs = 4096

// replica is one simulation re-driven through the layers' public
// functions: the outputs its untraced call reports, plus what only the
// re-drive sees.
type replica struct {
	res   sim.Result
	churn sim.ChurnStats
	// full are the MMU's cumulative counters, warmup included.
	full mmu.Stats
	// ptWalks counts page-table walks made inside TranslateBatch.
	ptWalks uint64
	// records counts the trace or workload records read.
	records uint64
	// nodes is the page-table size after install, and installAlloc the
	// bytes the install allocated.
	nodes, installAlloc uint64
	reselects           uint64
	// proc is the final OS state and sample the run's first accesses,
	// for the isolated layer timings.
	proc   *osmem.Process
	sample []mem.VPN
}

// redrive replays one simulation the way sim.Run, sim.RunWithChurn or
// sim.RunTrace does — mapping generation, install, MMU construction,
// record batches, and TranslateBatch over segments cut exactly at the
// warmup, churn and epoch boundaries the simulator acts on — with a span
// around each layer call (around each batch for the per-access ones).
func redrive(t *tracer, job simJob) (*replica, error) {
	cfg := job.Config.WithDefaults()
	churn := job.churn()
	if churn && (job.ChurnIntervalInstructions == 0 || job.ChurnPages == 0) {
		return nil, errors.New("redrive: churn interval and size must both be set")
	}
	rp := &replica{}
	s := t.begin("mapping.generate")
	cl, err := mapping.Generate(cfg.Scenario, mapping.Config{
		FootprintPages: cfg.FootprintPages,
		Seed:           cfg.Seed,
		Pressure:       cfg.Pressure,
		FineGrained:    cfg.Workload.FineGrainedAlloc,
	})
	t.end(s)
	if err != nil {
		return nil, err
	}

	// RunWithChurn models neither the detailed walk nor multi-region
	// anchors, and RunTrace installs no multi-region anchors either.
	if cfg.DetailedWalk && !churn {
		cfg.HW.Walk = mmu.NewWalkModel()
	}
	pol := cfg.Scheme.Policy()
	pol.Cost = cfg.CostModel
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	s = t.begin("osmem.install")
	proc := osmem.NewProcess(pol)
	if cfg.MultiRegionAnchors && !churn && job.tracePath == "" {
		err = proc.InstallChunksRegions(cl, 0)
	} else {
		err = proc.InstallChunks(cl, cfg.FixedDistance)
	}
	t.end(s)
	if err != nil {
		return nil, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rp.installAlloc = after.TotalAlloc - before.TotalAlloc
	pt := proc.PageTable()
	rp.nodes = pt.Stats().Nodes
	s = t.begin("mmu.new")
	m := mmu.New(cfg.Scheme, cfg.HW, proc)
	t.end(s)

	total := cfg.WarmupAccesses + cfg.Accesses
	var src trace.BatchSource
	var decodeErr func() error
	readSpan := "workload.read"
	if job.tracePath != "" {
		readSpan = "trace.read"
		s = t.begin("trace.open")
		raw, closeSrc, err := trace.OpenPath(job.tracePath)
		t.end(s)
		if err != nil {
			return nil, err
		}
		defer closeSrc()
		src = trace.Limit(raw, total)
		if e, ok := raw.(interface{ Err() error }); ok {
			decodeErr = e.Err
		}
	} else {
		s = t.begin("workload.new")
		src = cfg.Workload.NewGenerator(cl[0].StartVPN, cfg.FootprintPages, total, cfg.Seed)
		t.end(s)
	}

	dynamic := pol.Anchors && cfg.FixedDistance == 0
	var rng *rand.Rand
	var lo, hi mem.VPN
	fresh := mem.PFN(1) << 38 // RunWithChurn's fresh-frame region
	if churn {
		rng = rand.New(rand.NewSource(cfg.Seed ^ 0x636875726e)) // RunWithChurn's "churn" stream
		lo, hi = cl[0].StartVPN, cl[len(cl)-1].EndVPN()
	}
	recs := make([]trace.Record, batchRecords)
	vpns := make([]mem.VPN, batchRecords)
	var instructions, sinceEpoch, sinceChurn, warmInstr uint64
	var warmStats mmu.Stats
	warmLeft := cfg.WarmupAccesses
	for {
		s := t.begin(readSpan)
		n := src.ReadBatch(recs)
		t.end(s)
		if n == 0 {
			break
		}
		rp.records += uint64(n)
		for i := 0; i < n; i++ {
			vpns[i] = recs[i].VPN
		}
		if k := min(n, sampleVPNs-len(rp.sample)); k > 0 {
			rp.sample = append(rp.sample, vpns[:k]...)
		}
		for start := 0; start < n; {
			// A segment ends at the batch end, the warmup boundary, or
			// the first record that reaches the churn interval or the
			// epoch — where the per-record loops act.
			end := n
			if warmLeft > 0 && uint64(end-start) > warmLeft {
				end = start + int(warmLeft)
			}
			var seg uint64
			epochDue, churnDue := false, false
			for i := start; i < end; i++ {
				seg += uint64(recs[i].Instrs)
				epochDue = dynamic && sinceEpoch+seg >= cfg.EpochInstructions
				churnDue = churn && sinceChurn+seg >= job.ChurnIntervalInstructions
				if epochDue || churnDue {
					end = i + 1
					break
				}
			}
			s := t.begin("mmu.translate")
			walks := pt.Stats().Walks
			m.TranslateBatch(vpns[start:end])
			rp.ptWalks += pt.Stats().Walks - walks
			t.end(s)
			instructions += seg
			if warmLeft > 0 {
				warmLeft -= uint64(end - start)
				if warmLeft == 0 {
					warmStats = m.Stats()
					warmInstr = instructions
				}
			}
			if churnDue {
				sinceChurn = 0
				if err := rp.remap(t, proc, rng, lo, hi, &fresh, job.ChurnPages); err != nil {
					return nil, err
				}
			} else {
				sinceChurn += seg
			}
			if epochDue {
				sinceEpoch = 0
				s := t.begin("osmem.reselect")
				proc.Reselect(cfg.SweepCost)
				t.end(s)
				rp.reselects++
			} else {
				sinceEpoch += seg
			}
			start = end
		}
	}
	if decodeErr != nil {
		if err := decodeErr(); err != nil {
			return nil, err
		}
	}

	rp.full = m.Stats()
	rp.res = sim.Result{
		Scheme:          cfg.Scheme,
		Workload:        cfg.Workload.Name,
		Scenario:        cfg.Scenario,
		Stats:           subStats(rp.full, warmStats),
		Instructions:    instructions - warmInstr,
		Chunks:          len(cl),
		HugePages:       proc.HugePages(),
		AnchorDistance:  proc.AnchorDistance(),
		DistanceChanges: proc.DistanceChanges(),
	}
	if am, ok := m.(interface {
		Actions() map[core.L2Action]uint64
	}); ok && !churn {
		rp.res.AnchorActions = am.Actions()
	}
	if churn {
		rp.churn.EntryShootdowns = proc.EntryShootdowns()
		rp.churn.FullFlushes = proc.FullFlushes()
		rp.churn.DistanceChanges = proc.DistanceChanges()
	}
	rp.proc = proc
	return rp, nil
}

// remap is one churn operation as RunWithChurn performs it: free a
// random region and reallocate it at the same virtual addresses on fresh
// frames.
func (rp *replica) remap(t *tracer, proc *osmem.Process, rng *rand.Rand, lo, hi mem.VPN, fresh *mem.PFN, pages uint64) error {
	span := uint64(hi - lo)
	if span <= pages {
		return nil
	}
	v := lo + mem.VPN(uint64(rng.Int63n(int64(span-pages))))
	s := t.begin("osmem.unmap")
	proc.UnmapRange(v, pages)
	t.end(s)
	s = t.begin("osmem.remap")
	err := proc.AppendChunk(mem.Chunk{StartVPN: v, StartPFN: *fresh, Pages: pages})
	t.end(s)
	if err != nil {
		return fmt.Errorf("redrive: churn remap: %w", err)
	}
	*fresh += mem.PFN(pages + 512)
	rp.churn.Operations++
	rp.churn.PagesRemapped += pages
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

func addStats(a, b mmu.Stats) mmu.Stats {
	return mmu.Stats{
		Accesses:      a.Accesses + b.Accesses,
		L1Hits:        a.L1Hits + b.L1Hits,
		L2RegularHits: a.L2RegularHits + b.L2RegularHits,
		CoalescedHits: a.CoalescedHits + b.CoalescedHits,
		Walks:         a.Walks + b.Walks,
		Faults:        a.Faults + b.Faults,
		Cycles:        a.Cycles + b.Cycles,
	}
}

// counters are a simulation's outputs as named integers: what the
// replica guard compares.
type counters map[string]uint64

func simCounters(r sim.Result, churn *sim.ChurnStats) counters {
	c := counters{
		"stats.accesses":        r.Stats.Accesses,
		"stats.l1_hits":         r.Stats.L1Hits,
		"stats.l2_regular_hits": r.Stats.L2RegularHits,
		"stats.coalesced_hits":  r.Stats.CoalescedHits,
		"stats.walks":           r.Stats.Walks,
		"stats.faults":          r.Stats.Faults,
		"stats.cycles":          r.Stats.Cycles,
		"instructions":          r.Instructions,
		"chunks":                uint64(r.Chunks),
		"huge_pages":            uint64(r.HugePages),
		"anchor_distance":       r.AnchorDistance,
		"distance_changes":      r.DistanceChanges,
	}
	for a, n := range r.AnchorActions {
		c["anchor_actions."+a.String()] = n
	}
	if churn != nil {
		c["churn.operations"] = churn.Operations
		c["churn.pages_remapped"] = churn.PagesRemapped
		c["churn.entry_shootdowns"] = churn.EntryShootdowns
		c["churn.full_flushes"] = churn.FullFlushes
		c["churn.distance_changes"] = churn.DistanceChanges
	}
	return c
}

// publicCounters are the integer outputs hybridtlb.Simulate reports.
func publicCounters(r hybridtlb.SimulationResult) counters {
	return counters{
		"stats.accesses":        r.Stats.Accesses,
		"stats.l1_hits":         r.Stats.L1Hits,
		"stats.l2_regular_hits": r.Stats.L2RegularHits,
		"stats.coalesced_hits":  r.Stats.CoalescedHits,
		"stats.misses":          r.Stats.Misses,
		"stats.cycles":          r.Stats.Cycles,
		"instructions":          r.Instructions,
		"chunks":                uint64(r.Chunks),
		"huge_pages":            uint64(r.HugePages),
		"anchor_distance":       r.AnchorDistance,
	}
}

// counters returns the re-driven outputs in the shape the job's
// untraced call reports them.
func (rp *replica) counters(job simJob) counters {
	switch {
	case job.tracePath != "":
		r := rp.res
		return publicCounters(hybridtlb.SimulationResult{
			Stats: hybridtlb.Stats{
				Accesses:      r.Stats.Accesses,
				L1Hits:        r.Stats.L1Hits,
				L2RegularHits: r.Stats.L2RegularHits,
				CoalescedHits: r.Stats.CoalescedHits,
				Misses:        r.Stats.Misses(),
				Cycles:        r.Stats.Cycles,
			},
			Instructions:   r.Instructions,
			Chunks:         r.Chunks,
			HugePages:      r.HugePages,
			AnchorDistance: r.AnchorDistance,
		})
	case job.churn():
		return simCounters(rp.res, &rp.churn)
	default:
		return simCounters(rp.res, nil)
	}
}

// untraced runs a job the way its workload does, without tracing, and
// returns its outputs.
func untraced(job simJob, in inputs) (counters, error) {
	switch {
	case job.tracePath != "":
		r, err := hybridtlb.Simulate(replayConfig(in, job.Config.Scheme, job.Config.Accesses))
		return publicCounters(r), err
	case job.churn():
		r, c, err := sim.RunWithChurn(sim.ChurnConfig{
			Config:                    job.Config,
			ChurnIntervalInstructions: job.ChurnIntervalInstructions,
			ChurnPages:                job.ChurnPages,
		})
		return simCounters(r, &c), err
	default:
		r, err := sim.Run(job.Config)
		return simCounters(r, nil), err
	}
}

// guard fails when any re-driven counter differs from the untraced one,
// naming each difference.
func guard(want, got counters) error {
	var diffs []string
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			diffs = append(diffs, fmt.Sprintf("%s: untraced %d, re-driven %d", k, w, g))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: untraced none, re-driven %d", k, g))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	return fmt.Errorf("replica guard: %s", strings.Join(diffs, "; "))
}
