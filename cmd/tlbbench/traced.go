package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hybridtlb/internal/mmu"
	"hybridtlb/internal/report"
)

const mib = 1 << 20

// tracedRun measures one workload's per-layer ledger in four steps:
//  1. it runs the workload's own entry once, untraced, observed only
//     through the sweep engine's Probe and Progress hooks, for the sweep
//     and runtime figures and the list of simulated jobs;
//  2. it re-drives every simulated job through the layers' public
//     functions under spans, right after an untraced call of the same
//     job;
//  3. it requires the re-driven counters to equal the untraced ones;
//  4. it times the layers that run only inside TranslateBatch in
//     isolation, on each run's own final state.
func tracedRun(w workloadDef, in inputs, want map[string]string, dir string) (verdict, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep := w.rep(in)
	runtime.ReadMemStats(&after)
	printDigests(in, rep.digests)
	v := verdict{Attempted: rep.attempted, Failed: failedSims(want, rep)}

	tr := newTracer()
	acc := newLedgerAccum(len(rep.cells))
	for i, c := range rep.cells {
		t0 := time.Now()
		wantCounters, err := untraced(c.job, in)
		acc.untraced[i] = time.Since(t0).Seconds()
		acc.schemes[i] = c.job.Config.Scheme.String()
		tr.sim = i
		root := tr.begin("sim")
		rp, rerr := redrive(tr, c.job)
		tr.end(root)
		v.Attempted++
		if err == nil {
			err = rerr
		}
		if err == nil {
			err = guard(wantCounters, rp.counters(c.job))
		}
		if err != nil {
			v.Failed++
			fmt.Fprintf(os.Stderr, "tlbbench: %v: %v\n", c.job.Job, err)
			continue
		}
		acc.add(rp, c.job)
		acc.micro.time(rp, c.job.Config.HW)
	}
	tr.sim = -1
	switch w.name {
	case "paper-grid":
		if err := traceGridExtras(tr, in); err != nil {
			return v, err
		}
	case "trace-replay":
		var err error
		if acc.decodeNS, acc.binDecodeNS, err = timeDecode(in.tracePath, dir); err != nil {
			return v, fmt.Errorf("decode passes: %w", err)
		}
	}

	vals := acc.values(tr.spans, rep)
	vals["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	vals["runtime.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	vals["runtime.alloc_mib"] = float64(after.TotalAlloc-before.TotalAlloc) / mib
	spanPath := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", in.workload, in.seed))
	if err := tr.write(spanPath); err != nil {
		return v, fmt.Errorf("writing spans: %w", err)
	}
	v.Correct = v.Failed == 0
	v.Metrics = collect(perLayerDefs(), vals)
	return v, nil
}

// gridExtras are the paper-grid experiments that run no simulation; the
// traced run times each whole, as one report-layer span.
var gridExtras = []string{"fig1", "tab1", "tab3", "tab4", "tab6", "sweep"}

func traceGridExtras(tr *tracer, in inputs) error {
	root := tr.begin("report")
	defer tr.end(root)
	for _, name := range gridExtras {
		s := tr.begin("report." + name)
		err := report.Run(name, io.Discard, gridOptions(in, in.scale.gridAccesses, nil))
		tr.end(s)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// ledgerAccum sums what the re-drives and isolated timings measured.
type ledgerAccum struct {
	// schemes and untraced hold each simulation's scheme and untraced
	// host seconds, by simulation id.
	schemes  []string
	untraced []float64

	chunks, nodes, installAlloc, reselects uint64
	distanceChanges, shootdowns, flushes   uint64
	// genRecords counts workload-generated records; ptWalks the page
	// walks made inside TranslateBatch.
	genRecords, ptWalks uint64
	// stats are the MMU counters summed over runs, warmup included, and
	// accesses the same access count by scheme.
	stats    mmu.Stats
	accesses map[string]uint64

	micro                 microLedger
	decodeNS, binDecodeNS float64
}

func newLedgerAccum(n int) *ledgerAccum {
	return &ledgerAccum{schemes: make([]string, n), untraced: make([]float64, n), accesses: make(map[string]uint64)}
}

func (a *ledgerAccum) add(rp *replica, job simJob) {
	a.chunks += uint64(rp.res.Chunks)
	a.nodes += rp.nodes
	a.installAlloc += rp.installAlloc
	a.reselects += rp.reselects
	a.distanceChanges += rp.res.DistanceChanges
	a.shootdowns += rp.proc.EntryShootdowns()
	a.flushes += rp.proc.FullFlushes()
	if job.tracePath == "" {
		a.genRecords += rp.records
	}
	a.ptWalks += rp.ptWalks
	a.stats = addStats(a.stats, rp.full)
	a.accesses[job.Config.Scheme.String()] += rp.full.Accesses
}

// values derives the per-layer metrics from the spans, the accumulated
// counters and the observed repetition.
func (a *ledgerAccum) values(spans []span, rep repResult) map[string]float64 {
	childNS, self := spanTotals(spans)
	st := a.stats
	l2 := float64(st.Accesses - st.L1Hits)
	v := map[string]float64{
		"mapping.generate_s":       self["mapping.generate"],
		"mapping.chunks":           float64(a.chunks),
		"osmem.install_s":          self["osmem.install"],
		"osmem.install_alloc_mib":  float64(a.installAlloc) / mib,
		"osmem.unmap_s":            self["osmem.unmap"],
		"osmem.remap_s":            self["osmem.remap"],
		"osmem.reselect_s":         self["osmem.reselect"],
		"osmem.reselects":          float64(a.reselects),
		"osmem.distance_changes":   float64(a.distanceChanges),
		"osmem.entry_shootdowns":   float64(a.shootdowns),
		"osmem.full_flushes":       float64(a.flushes),
		"pagetable.nodes":          float64(a.nodes),
		"pagetable.walk_ns":        a.micro.walk.mean(),
		"pagetable.anchor_read_ns": a.micro.anchorRead.mean(),
		"pagetable.walks_per_miss": ratio(float64(a.ptWalks), float64(st.Walks)),
		"tlb.l1_lookup_ns":         a.micro.l1.mean(),
		"tlb.l2_lookup_ns":         a.micro.l2.mean(),
		"tlb.range_lookup_ns":      a.micro.rangeLookup.mean(),
		"core.select_distance_ns":  a.micro.selectDistance.mean(),
		"mmu.translate_s":          self["mmu.translate"],
		"mmu.accesses":             float64(st.Accesses),
		"mmu.l1_hits":              float64(st.L1Hits),
		"mmu.l2_regular_hits":      float64(st.L2RegularHits),
		"mmu.coalesced_hits":       float64(st.CoalescedHits),
		"mmu.walks":                float64(st.Walks),
		"mmu.faults":               float64(st.Faults),
		"mmu.l1_hit_ratio":         ratio(float64(st.L1Hits), float64(st.Accesses)),
		"mmu.coalesced_ratio":      ratio(float64(st.CoalescedHits), l2),
		"mmu.walk_ratio":           ratio(float64(st.Walks), l2),
		"workload.generate_s":      self["workload.new"] + self["workload.read"],
		"workload.ns_per_record":   ratio(self["workload.read"]*1e9, float64(a.genRecords)),
		"trace.decode_s":           self["trace.open"] + self["trace.read"],
		"trace.ns_per_record":      a.decodeNS,
		"trace.bin_ns_per_record":  a.binDecodeNS,
	}

	translateNS := make(map[string]float64)
	var tracedSimNS, untracedNS, simSelfNS float64
	for i, s := range spans {
		if s.Name == "mmu.translate" && s.Sim >= 0 {
			translateNS[a.schemes[s.Sim]] += float64(s.dur() - childNS[i])
		}
		if s.Parent < 0 && s.Name == "sim" {
			u := a.untraced[s.Sim] * 1e9
			tracedSimNS += float64(s.dur())
			untracedNS += u
			simSelfNS += u - float64(childNS[i])
		}
	}
	runS := make(map[string]float64)
	for i, s := range a.schemes {
		runS[s] += a.untraced[i]
	}
	for _, s := range mmu.All() {
		name := s.String()
		v["mmu.ns_per_access."+name] = ratio(translateNS[name], float64(a.accesses[name]))
		v["sim.run_s."+name] = runS[name]
	}
	v["sim.self_s"] = simSelfNS / 1e9
	v["bench.trace_overhead_ratio"] = ratio(tracedSimNS, untracedNS)
	v["bench.span_coverage"] = spanCoverage(spans, childNS, a.untraced)

	cellMS := make([]float64, len(rep.cells))
	var busy float64
	for i, c := range rep.cells {
		cellMS[i] = c.seconds * 1e3
		busy += c.seconds
	}
	v["sweep.jobs"] = float64(rep.jobs)
	v["sweep.simulated"] = float64(len(rep.cells))
	v["sweep.cache_hit_ratio"] = ratio(float64(rep.jobs-len(rep.cells)), float64(rep.jobs))
	v["sweep.cell_ms_p50"] = percentile(cellMS, 50)
	v["sweep.cell_ms_p98"] = percentile(cellMS, 98)
	v["sweep.busy_ratio"] = ratio(busy, rep.wall.Seconds()*float64(rep.parallelism))
	return v
}

// spanCoverage is the share of the workload's time that named layer spans
// cover: the direct children of every root span, over the untraced calls
// of the simulations (untraced, in seconds) plus the roots that have no
// untraced twin (the grid's non-simulating experiments), capped at 1.
// Work that sim.Run, RunWithChurn or Simulate does and the re-drive does
// not copy lengthens the untraced calls but no span, so coverage falls.
func spanCoverage(spans []span, childNS []int64, untraced []float64) float64 {
	var covered, total float64
	for _, u := range untraced {
		total += u * 1e9
	}
	for i, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		covered += float64(childNS[i])
		if s.Name != "sim" {
			total += float64(s.dur())
		}
	}
	return min(1, ratio(covered, total))
}
