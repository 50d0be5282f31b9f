package hybridtlb_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 5), plus ablation benches for the design choices
// DESIGN.md calls out. Each benchmark runs a scaled version of its
// experiment per iteration and reports the experiment's headline quantity
// through b.ReportMetric, so `go test -bench=. -benchmem` both times the
// harness and regenerates the result shapes. The full-scale rows are
// printed by cmd/experiments.
//
// (External test package: the server benchmarks import internal/server,
// which itself imports hybridtlb — an in-package test file would cycle.)

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"hybridtlb"
	"hybridtlb/internal/core"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/report"
	"hybridtlb/internal/server"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/sweep"
	"hybridtlb/internal/trace"
	"hybridtlb/internal/workload"
)

// benchOpts keeps one benchmark iteration around a second.
func benchOpts() report.Options {
	return report.Options{
		Accesses:        50_000,
		Seed:            42,
		Workloads:       []string{"gups", "omnetpp", "canneal"},
		SkipStaticIdeal: true,
	}
}

func benchCfg(b *testing.B, wl string, sc mapping.Scenario, scheme mmu.Scheme) sim.Config {
	b.Helper()
	spec, err := workload.ByName(wl)
	if err != nil {
		b.Fatal(err)
	}
	return sim.Config{
		Scheme:         scheme,
		Workload:       spec,
		Scenario:       sc,
		FootprintPages: 1 << 16,
		Accesses:       100_000,
		Seed:           42,
		Pressure:       0.15,
	}
}

// BenchmarkFig1ChunkCDF regenerates Figure 1: chunk-size CDFs of the
// demand mapping under increasing background pressure.
func BenchmarkFig1ChunkCDF(b *testing.B) {
	var smallFrac float64
	for i := 0; i < b.N; i++ {
		series, err := report.Fig1Data(1<<16, 42)
		if err != nil {
			b.Fatal(err)
		}
		last := series[len(series)-1]
		for _, pt := range last.CDF {
			if pt.ChunkPages <= 16 {
				smallFrac = pt.CumFraction
			}
		}
	}
	b.ReportMetric(smallFrac, "highPressureSmallChunkFrac")
}

// BenchmarkFig2PriorSchemes regenerates the motivation figure: relative
// misses of cluster and RMM at low vs high contiguity, exposing the
// crossover the paper builds on.
func BenchmarkFig2PriorSchemes(b *testing.B) {
	var clusterLow, rmmLow, rmmHigh float64
	for i := 0; i < b.N; i++ {
		for _, sc := range []mapping.Scenario{mapping.Low, mapping.High} {
			base, err := sim.Run(benchCfg(b, "omnetpp", sc, mmu.Base))
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range []mmu.Scheme{mmu.Cluster, mmu.RMM} {
				res, err := sim.Run(benchCfg(b, "omnetpp", sc, s))
				if err != nil {
					b.Fatal(err)
				}
				switch {
				case sc == mapping.Low && s == mmu.Cluster:
					clusterLow = res.RelativeMisses(base)
				case sc == mapping.Low && s == mmu.RMM:
					rmmLow = res.RelativeMisses(base)
				case sc == mapping.High && s == mmu.RMM:
					rmmHigh = res.RelativeMisses(base)
				}
			}
		}
	}
	b.ReportMetric(clusterLow, "clusterLow%")
	b.ReportMetric(rmmLow, "rmmLow%")
	b.ReportMetric(rmmHigh, "rmmHigh%")
}

// benchMissFigure runs one scenario's scheme matrix and reports the
// dynamic-anchor mean.
func benchMissFigure(b *testing.B, sc mapping.Scenario) {
	b.Helper()
	var dyn, bestPrior float64
	for i := 0; i < b.N; i++ {
		fig, err := report.MissesByScenario(sc, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		dyn = fig.Mean("dynamic")
		bestPrior = 1e18
		for _, col := range []string{"thp", "cluster", "cl.2mb", "rmm"} {
			if m := fig.Mean(col); m < bestPrior {
				bestPrior = m
			}
		}
	}
	b.ReportMetric(dyn, "dynamicMean%")
	b.ReportMetric(bestPrior, "bestPriorMean%")
}

// BenchmarkFig7Demand regenerates Figure 7 (demand paging misses).
func BenchmarkFig7Demand(b *testing.B) { benchMissFigure(b, mapping.Demand) }

// BenchmarkFig8Medium regenerates Figure 8 (medium contiguity misses).
func BenchmarkFig8Medium(b *testing.B) { benchMissFigure(b, mapping.Medium) }

// BenchmarkFig9AllMappings regenerates Figure 9 (mean misses over all six
// mapping scenarios).
func BenchmarkFig9AllMappings(b *testing.B) {
	var grand float64
	for i := 0; i < b.N; i++ {
		figs, err := report.Fig9Data(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		grand = 0
		for _, fig := range figs {
			grand += fig.Mean("dynamic")
		}
		grand /= float64(len(figs))
	}
	b.ReportMetric(grand, "dynamicGrandMean%")
}

// BenchmarkTab5L2Breakdown regenerates Table 5: the anchor scheme's L2
// regular-hit / anchor-hit / miss split.
func BenchmarkTab5L2Breakdown(b *testing.B) {
	var anchorHit float64
	for i := 0; i < b.N; i++ {
		rows, err := report.Tab5Data(mapping.Medium, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		anchorHit = 0
		for _, r := range rows {
			anchorHit += r.AnchorHit
		}
		anchorHit /= float64(len(rows))
	}
	b.ReportMetric(anchorHit*100, "anchorHit%")
}

// BenchmarkTab6DistanceSelection regenerates Table 6: Algorithm 1's
// selected distances across mappings.
func BenchmarkTab6DistanceSelection(b *testing.B) {
	var lowDist, maxDist float64
	for i := 0; i < b.N; i++ {
		data, err := report.Tab6Data(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, per := range data {
			lowDist = float64(per[mapping.Low])
			maxDist = float64(per[mapping.Max])
			break
		}
	}
	b.ReportMetric(lowDist, "lowDist")
	b.ReportMetric(maxDist, "maxDist")
}

// benchCPI runs a CPI figure and reports the dynamic column's mean total.
func benchCPI(b *testing.B, sc mapping.Scenario) {
	b.Helper()
	var total float64
	for i := 0; i < b.N; i++ {
		data, _, err := report.CPIFigure(sc, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, per := range data {
			total += per["dynamic"].Total()
		}
		total /= float64(len(data))
	}
	b.ReportMetric(total, "dynamicCPI")
}

// BenchmarkFig10CPIDemand regenerates Figure 10 (translation CPI, demand).
func BenchmarkFig10CPIDemand(b *testing.B) { benchCPI(b, mapping.Demand) }

// BenchmarkFig11CPIMedium regenerates Figure 11 (translation CPI, medium).
func BenchmarkFig11CPIMedium(b *testing.B) { benchCPI(b, mapping.Medium) }

// BenchmarkDistanceChangeSweep regenerates the Section 3.3 experiment: the
// cost of re-anchoring a mapping at distances 8 / 64 / 512.
func BenchmarkDistanceChangeSweep(b *testing.B) {
	var d8ms float64
	for i := 0; i < b.N; i++ {
		rows, err := report.SweepData(1 << 17)
		if err != nil {
			b.Fatal(err)
		}
		d8ms = rows[0].Millis
	}
	b.ReportMetric(d8ms, "d8SweepMs(1GiB)")
}

// BenchmarkAblationFixedDistance compares the dynamic selection against a
// deliberately wrong fixed distance, quantifying what Algorithm 1 buys.
func BenchmarkAblationFixedDistance(b *testing.B) {
	var dynMisses, fixedMisses float64
	for i := 0; i < b.N; i++ {
		dyn, err := sim.Run(benchCfg(b, "omnetpp", mapping.Max, mmu.Anchor))
		if err != nil {
			b.Fatal(err)
		}
		cfg := benchCfg(b, "omnetpp", mapping.Max, mmu.Anchor)
		cfg.FixedDistance = 4 // far too fine for a fully contiguous mapping
		fixed, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dynMisses = float64(dyn.Stats.Misses())
		fixedMisses = float64(fixed.Stats.Misses())
	}
	b.ReportMetric(dynMisses, "dynamicMisses")
	b.ReportMetric(fixedMisses, "fixed4Misses")
}

// BenchmarkAblationCostModel compares the three distance-selection cost
// models by the misses they actually produce: the entry-count default
// (reproduces Table 6), the coverage-weighted arithmetic written in the
// Algorithm 1 listing, and this repository's capacity-aware extension.
func BenchmarkAblationCostModel(b *testing.B) {
	var entry, weighted, capac float64
	for i := 0; i < b.N; i++ {
		for _, m := range []core.CostModel{core.CostEntryCount, core.CostCoverageWeighted, core.CostCapacityAware} {
			cfg := benchCfg(b, "canneal", mapping.Medium, mmu.Anchor)
			cfg.CostModel = m
			res, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			switch m {
			case core.CostEntryCount:
				entry = float64(res.Stats.Misses())
			case core.CostCoverageWeighted:
				weighted = float64(res.Stats.Misses())
			case core.CostCapacityAware:
				capac = float64(res.Stats.Misses())
			}
		}
	}
	b.ReportMetric(entry, "entryCountMisses")
	b.ReportMetric(weighted, "coverageWeightedMisses")
	b.ReportMetric(capac, "capacityAwareMisses")
}

// BenchmarkExtensionMultiRegion measures the Section 4.2 multi-region
// anchors against the single process-wide distance on the medium mapping.
func BenchmarkExtensionMultiRegion(b *testing.B) {
	var single, multi float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(b, "canneal", mapping.Medium, mmu.Anchor)
		s, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.MultiRegionAnchors = true
		m, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		single = float64(s.Stats.Misses())
		multi = float64(m.Stats.Misses())
	}
	b.ReportMetric(single, "singleDistMisses")
	b.ReportMetric(multi, "multiRegionMisses")
}

// BenchmarkAblationSharedVsPartitioned contrasts coalesced entries in a
// statically partitioned L2 (the cluster scheme) against the same
// coalescing logic sharing one L2 (CoLT) — the partitioning cost the
// paper calls out for cactusADM.
func BenchmarkAblationSharedVsPartitioned(b *testing.B) {
	var partitioned, shared float64
	for i := 0; i < b.N; i++ {
		p, err := sim.Run(benchCfg(b, "omnetpp", mapping.Low, mmu.Cluster))
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.Run(benchCfg(b, "omnetpp", mapping.Low, mmu.CoLT))
		if err != nil {
			b.Fatal(err)
		}
		partitioned = float64(p.Stats.Misses())
		shared = float64(s.Stats.Misses())
	}
	b.ReportMetric(partitioned, "partitionedMisses")
	b.ReportMetric(shared, "sharedMisses")
}

// BenchmarkAblationParallelAnchorLookup models making the anchor probe a
// parallel (same-cycle) L2 access instead of a serialized second access:
// the 8-cycle coalesced latency drops to the regular 7.
func BenchmarkAblationParallelAnchorLookup(b *testing.B) {
	var serialCPI, parallelCPI float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(b, "omnetpp", mapping.Medium, mmu.Anchor)
		serial, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		hw := mmu.DefaultConfig()
		hw.CoalescedHitCycles = hw.L2HitCycles
		cfg.HW = hw
		parallel, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		serialCPI = serial.CPI(mmu.DefaultConfig()).Total()
		parallelCPI = parallel.CPI(hw).Total()
	}
	b.ReportMetric(serialCPI, "serialCPI")
	b.ReportMetric(parallelCPI, "parallelCPI")
}

// BenchmarkAblationEpochLength measures how the periodic re-selection
// epoch affects a run with a stable mapping (the check is nearly free
// because the selection never changes — the paper's stability claim).
func BenchmarkAblationEpochLength(b *testing.B) {
	for _, epoch := range []uint64{100_000, 10_000_000} {
		name := "epoch=100k"
		if epoch == 10_000_000 {
			name = "epoch=10M"
		}
		b.Run(name, func(b *testing.B) {
			var changes float64
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(b, "omnetpp", mapping.Medium, mmu.Anchor)
				cfg.EpochInstructions = epoch
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				changes = float64(res.DistanceChanges)
			}
			b.ReportMetric(changes, "distanceChanges")
		})
	}
}

// BenchmarkAblationDetailedWalk contrasts the paper's flat 50-cycle walk
// latency (Table 3) with the detailed cache+PWC walk model, reporting
// each configuration's translation CPI — evidence for (or against) the
// flat-latency assumption.
func BenchmarkAblationDetailedWalk(b *testing.B) {
	var flatCPI, detailedCPI float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(b, "canneal", mapping.Medium, mmu.Anchor)
		flat, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.DetailedWalk = true
		det, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		flatCPI = float64(flat.Stats.Cycles) / float64(flat.Instructions)
		detailedCPI = float64(det.Stats.Cycles) / float64(det.Instructions)
	}
	b.ReportMetric(flatCPI, "flatWalkCPI")
	b.ReportMetric(detailedCPI, "detailedWalkCPI")
}

// hotPathSetup builds the fixture BenchmarkTranslateHotPath drives: a
// medium-contiguity mapping, the scheme's MMU, and a pre-generated gups
// record buffer (the TLB worst case, so the full probe/walk/fill flow is
// exercised) that the measured loop cycles through. All allocation
// happens here, before the timer starts.
func hotPathSetup(b *testing.B, scheme mmu.Scheme) (mmu.MMU, *osmem.Process, sim.Config, []trace.Record, []mem.VPN) {
	b.Helper()
	cfg := benchCfg(b, "gups", mapping.Medium, scheme)
	cfg.Pressure = 0
	cfg = cfg.WithDefaults()
	cl, err := mapping.Generate(cfg.Scenario, mapping.Config{
		FootprintPages: cfg.FootprintPages,
		Seed:           cfg.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	proc := osmem.NewProcess(cfg.Scheme.Policy())
	if err := proc.InstallChunks(cl, 0); err != nil {
		b.Fatal(err)
	}
	m := mmu.New(cfg.Scheme, cfg.HW, proc)
	gen := cfg.Workload.NewGenerator(cl[0].StartVPN, cfg.FootprintPages, 1<<18, cfg.Seed)
	recs := trace.Collect(gen, 1<<18)
	vpns := make([]mem.VPN, len(recs))
	for i := range recs {
		vpns[i] = recs[i].VPN
	}
	return m, proc, cfg, recs, vpns
}

// BenchmarkTranslateHotPath measures the simulation inner loop per
// scheme: ns/op is nanoseconds per access and allocs/op is allocations
// per access (it must hold 0). Its one variant, batched, is the
// segment-sliced TranslateBatch loop the drive runs. `make bench-json`
// emits these rows as BENCH_pipeline.json.
func BenchmarkTranslateHotPath(b *testing.B) {
	const warmup = 1 << 14
	for _, scheme := range mmu.All() {
		b.Run(scheme.String(), func(b *testing.B) {
			b.Run("batched", func(b *testing.B) {
				m, proc, cfg, recs, vpns := hotPathSetup(b, scheme)
				dynamic := cfg.Scheme.Policy().Anchors
				var sinceEpoch uint64
				warmLeft := uint64(warmup)
				pos := 0
				b.ResetTimer()
				for done := 0; done < b.N; {
					n := 4096
					if rem := len(recs) - pos; n > rem {
						n = rem
					}
					if n > b.N-done {
						n = b.N - done
					}
					chunkEnd := pos + n
					for start := pos; start < chunkEnd; {
						end := chunkEnd
						if warmLeft > 0 && uint64(end-start) > warmLeft {
							end = start + int(warmLeft)
						}
						var segInstrs uint64
						epochCrossed := false
						if dynamic {
							budget := cfg.EpochInstructions - sinceEpoch
							for i := start; i < end; i++ {
								segInstrs += uint64(recs[i].Instrs)
								if segInstrs >= budget {
									end = i + 1
									epochCrossed = true
									break
								}
							}
						}
						m.TranslateBatch(vpns[start:end])
						if warmLeft > 0 {
							warmLeft -= uint64(end - start)
							if warmLeft == 0 {
								_ = m.Stats()
							}
						}
						if epochCrossed {
							sinceEpoch = 0
							proc.Reselect(cfg.SweepCost)
						} else {
							sinceEpoch += segInstrs
						}
						start = end
					}
					done += n
					pos += n
					if pos == len(recs) {
						pos = 0
					}
				}
			})
		})
	}
}

// BenchmarkTranslatePublicAPI measures raw translation throughput through
// the public System API (anchor hits on a warm TLB).
func BenchmarkTranslatePublicAPI(b *testing.B) {
	sys, err := hybridtlb.NewSystem(hybridtlb.SchemeAnchor)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Map([]hybridtlb.Chunk{{VirtPage: 0x10000, PhysPage: 1 << 24, Pages: 1 << 16}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sys.TranslatePage(0x10000 + uint64(i)&0xFFFF); !ok {
			b.Fatal("fault")
		}
	}
}

// BenchmarkSweepEngine times the same fig9/fig10-style scheme×workload
// grid through the sweep engine at parallelism 1 and 4, with the cache
// disabled so both variants simulate every cell. The parallel/serial
// ratio is the engine's wall-clock speedup (EXPERIMENTS.md records it).
func BenchmarkSweepEngine(b *testing.B) {
	var jobs []sweep.Job
	for _, wl := range []string{"gups", "omnetpp", "canneal", "mcf"} {
		for _, scheme := range []mmu.Scheme{mmu.Base, mmu.THP, mmu.Cluster, mmu.RMM, mmu.Anchor} {
			cfg := benchCfg(b, wl, mapping.Demand, scheme)
			cfg.Accesses = 50_000
			jobs = append(jobs, sweep.Job{Config: cfg})
		}
	}
	for _, bc := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{"parallel4", 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := sweep.New(sweep.Options{Parallelism: bc.parallelism, DisableCache: true})
				results, err := eng.Run(context.Background(), jobs)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(jobs) {
					b.Fatal("short sweep")
				}
			}
		})
	}
}

// BenchmarkExperimentHarness times the full report pipeline end to end on
// a small matrix (what cmd/experiments does at scale).
func BenchmarkExperimentHarness(b *testing.B) {
	opts := benchOpts()
	opts.Workloads = []string{"omnetpp"}
	opts.Accesses = 20_000
	for i := 0; i < b.N; i++ {
		if err := report.Run("fig2", io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// newBenchServer assembles a tlbserver handler with logging discarded.
func newBenchServer(b *testing.B, cfg server.Config) *httptest.Server {
	b.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	b.Cleanup(func() { srv.Drain(context.Background()) })
	return ts
}

// BenchmarkServerSimulate measures end-to-end requests/sec of the
// synchronous POST /v1/simulate path — HTTP decode, validation, the
// shared sweeper, JSON encode. The cached variant repeats one config
// (every request after the first is a result-cache hit: the serving
// overhead floor); the uncached variant varies the seed per request so
// every call simulates (EXPERIMENTS.md records both).
func BenchmarkServerSimulate(b *testing.B) {
	run := func(b *testing.B, body func(i int) string) {
		ts := newBenchServer(b, server.Config{Workers: 4})
		client := ts.Client()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Post(ts.URL+"/v1/simulate", "application/json",
				bytes.NewReader([]byte(body(i))))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				out, _ := io.ReadAll(resp.Body)
				b.Fatalf("status %d: %s", resp.StatusCode, out)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	b.Run("cached", func(b *testing.B) {
		run(b, func(int) string {
			return `{"scheme":"anchor","workload":"gups","scenario":"medium","accesses":20000}`
		})
	})
	b.Run("uncached", func(b *testing.B) {
		run(b, func(i int) string {
			return `{"scheme":"anchor","workload":"gups","scenario":"medium","accesses":20000,"seed":` +
				strconv.Itoa(i+1) + `}`
		})
	})
}

// BenchmarkServerSweep measures the asynchronous path end to end:
// submit a grid, poll to completion. One iteration is one full job
// lifecycle on a 2-worker pool.
func BenchmarkServerSweep(b *testing.B) {
	ts := newBenchServer(b, server.Config{Workers: 2, QueueDepth: 64})
	client := ts.Client()
	grid := `{"schemes":["base","anchor"],"workloads":["gups"],"scenarios":["medium"],"accesses":20000}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader([]byte(grid)))
		if err != nil {
			b.Fatal(err)
		}
		var acc struct {
			StatusURL string `json:"status_url"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		for {
			resp, err := client.Get(ts.URL + acc.StatusURL)
			if err != nil {
				b.Fatal(err)
			}
			var st struct {
				State string `json:"state"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if st.State == "done" {
				break
			}
			if st.State == "failed" || st.State == "canceled" {
				b.Fatalf("sweep ended %s", st.State)
			}
		}
	}
}
