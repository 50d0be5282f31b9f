package report

import (
	"fmt"
	"io"
	"text/tabwriter"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/sweep"
)

// Fig1 reproduces Figure 1: cumulative distributions of contiguous chunk
// sizes for two workload footprints, running alone and with increasing
// background job pressure. The paper captured canneal on a 4-socket and
// raytrace on a 2-socket machine; we substitute their footprints under
// the buddy-allocator demand-paging model.
type Fig1Series struct {
	Label    string
	Pressure float64
	CDF      []mem.CDFPoint
}

// fig1Pressures are Figure 1's series: the footprint alone and under
// rising background pressure.
var fig1Pressures = []struct {
	label    string
	pressure float64
}{
	{"alone", 0},
	{"bg-low", 0.3},
	{"bg-mid", 0.6},
	{"bg-high", 0.9},
}

// Fig1Data computes the CDF series for one footprint at several pressure
// levels.
func Fig1Data(footprintPages uint64, seed int64) ([]Fig1Series, error) {
	series, err := fig1Data([]uint64{footprintPages}, seed, 1)
	if err != nil {
		return nil, err
	}
	return series[0], nil
}

// fig1Data computes Fig1Data for each footprint, generating the mappings
// on at most par goroutines.
func fig1Data(footprints []uint64, seed int64, par int) ([][]Fig1Series, error) {
	n := len(fig1Pressures)
	out := make([][]Fig1Series, len(footprints))
	for i := range out {
		out[i] = make([]Fig1Series, n)
	}
	err := inParallel(len(footprints)*n, par, func(k int) error {
		p := fig1Pressures[k%n]
		cl, err := mapping.Generate(mapping.Demand, mapping.Config{
			FootprintPages: footprints[k/n],
			Seed:           seed,
			Pressure:       p.pressure,
		})
		if err != nil {
			return err
		}
		out[k/n][k%n] = Fig1Series{
			Label:    p.label,
			Pressure: p.pressure,
			CDF:      mem.BuildHistogram(cl).CDF(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func runFig1(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	names := []string{"canneal (4-socket stand-in)", "raytrace (2-socket stand-in)"}
	all, err := fig1Data([]uint64{940 << 8, 1300 << 8}, opts.Seed, opts.Parallelism)
	if err != nil {
		return err
	}
	for i, series := range all {
		fmt.Fprintf(w, "Figure 1: chunk-size CDF, %s\n", names[i])
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "series\tchunks<=16\tchunks<=512\tchunks<=4096\tmax-chunk")
		for _, s := range series {
			fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%d\n",
				s.Label, cdfAt(s.CDF, 16), cdfAt(s.CDF, 512), cdfAt(s.CDF, 4096), maxChunk(s.CDF))
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
	return nil
}

func cdfAt(cdf []mem.CDFPoint, pages uint64) float64 {
	frac := 0.0
	for _, pt := range cdf {
		if pt.ChunkPages > pages {
			break
		}
		frac = pt.CumFraction
	}
	return frac
}

func maxChunk(cdf []mem.CDFPoint) uint64 {
	if len(cdf) == 0 {
		return 0
	}
	return cdf[len(cdf)-1].ChunkPages
}

// Fig2 reproduces the motivation figure: relative TLB misses of the
// baseline, cluster and RMM at small (low), medium and large (high)
// contiguity, averaged over the suite.
func runFig2(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	suite := opts.suite()
	scenarios := []mapping.Scenario{mapping.Low, mapping.Medium, mapping.High}
	schemes := []mmu.Scheme{mmu.Base, mmu.Cluster, mmu.RMM}

	var b batch
	baseCells := make([][]int, len(scenarios))
	schemeCells := make([][][]int, len(scenarios))
	for si, sc := range scenarios {
		baseCells[si] = make([]int, len(suite))
		schemeCells[si] = make([][]int, len(suite))
		for wi, spec := range suite {
			cfg := opts.baseConfig(spec, sc)
			cfg.Scheme = mmu.Base
			baseCells[si][wi] = b.addCfg(cfg)
			schemeCells[si][wi] = make([]int, len(schemes))
			for ki, s := range schemes {
				c := cfg
				c.Scheme = s
				schemeCells[si][wi][ki] = b.addCfg(c)
			}
		}
	}
	cells, err := b.run(opts)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Figure 2: relative TLB misses of prior techniques (% of base)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mapping\tbase\tcluster\trmm")
	for si, sc := range scenarios {
		sums := map[mmu.Scheme]float64{}
		n := 0
		for wi := range suite {
			base := cells[baseCells[si][wi]][0].Res
			for ki, s := range schemes {
				sums[s] += cells[schemeCells[si][wi][ki]][0].Res.RelativeMisses(base)
			}
			n++
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\n", sc,
			sums[mmu.Base]/float64(n), sums[mmu.Cluster]/float64(n), sums[mmu.RMM]/float64(n))
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

func runTab1(w io.Writer, _ Options) error {
	fmt.Fprintln(w, "Table 1: comparison of scalability and allocation flexibility")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "	THP	Cluster/CoLT	RMM	Anchor (this work)")
	fmt.Fprintln(tw, "Scalability	Moderate	Moderate	Good	Good")
	fmt.Fprintln(tw, "Flexibility	Moderate	Flexible	Restricted	Flexible")
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

func runTab3(w io.Writer, _ Options) error {
	cfg := mmu.DefaultConfig()
	fmt.Fprintln(w, "Table 3: TLB configuration")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "L1 4KB\t%d entries, %d-way\n", cfg.L1Entries4K, cfg.L1Ways4K)
	fmt.Fprintf(tw, "L1 2MB\t%d entries, %d-way\n", cfg.L1Entries2M, cfg.L1Ways2M)
	fmt.Fprintf(tw, "L2 shared\t%d entries, %d-way\n", cfg.L2Entries, cfg.L2Ways)
	fmt.Fprintf(tw, "cluster regular\t%d entries, %d-way\n", cfg.ClusterRegularEntries, cfg.ClusterRegularWays)
	fmt.Fprintf(tw, "cluster-8\t%d entries, %d-way\n", cfg.ClusterEntries, cfg.ClusterWays)
	fmt.Fprintf(tw, "range TLB\t%d entries, fully associative\n", cfg.RangeEntries)
	fmt.Fprintf(tw, "L2 hit\t%d cycles\n", cfg.L2HitCycles)
	fmt.Fprintf(tw, "clust./RMM/anch. hit\t%d cycles\n", cfg.CoalescedHitCycles)
	fmt.Fprintf(tw, "page table walk\t%d cycles\n", cfg.WalkCycles)
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

func runTab4(w io.Writer, _ Options) error {
	fmt.Fprintln(w, "Table 4: synthetic mapping scenarios")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, sc := range []mapping.Scenario{mapping.Low, mapping.Medium, mapping.High} {
		lo, hi := sc.ChunkRange()
		fmt.Fprintf(tw, "%s contiguity\t%d - %d pages (%s - %s)\n",
			sc, lo, hi, mem.HumanBytes(lo*mem.Size4K), mem.HumanBytes(hi*mem.Size4K))
	}
	fmt.Fprintln(tw, "max contiguity\tmaximum")
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

func runFig7(w io.Writer, opts Options) error {
	fig, err := MissesByScenario(mapping.Demand, opts)
	if err != nil {
		return err
	}
	WriteMissFigure(w, "Figure 7: demand paging mapping", fig)
	return nil
}

func runFig8(w io.Writer, opts Options) error {
	fig, err := MissesByScenario(mapping.Medium, opts)
	if err != nil {
		return err
	}
	WriteMissFigure(w, "Figure 8: medium contiguity mapping", fig)
	return nil
}

// Fig9Data computes the per-scenario mean relative misses for every
// scheme column (the summary bar chart of Figure 9).
func Fig9Data(opts Options) (map[mapping.Scenario]MissFigure, error) {
	out := make(map[mapping.Scenario]MissFigure)
	for _, sc := range mapping.All() {
		fig, err := MissesByScenario(sc, opts)
		if err != nil {
			return nil, err
		}
		out[sc] = fig
	}
	return out, nil
}

func runFig9(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	figs, err := Fig9Data(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 9: average relative TLB misses per mapping scenario (% of base)")
	cols := figs[mapping.Demand].Columns
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "mapping")
	for _, c := range cols {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, sc := range mapping.All() {
		fmt.Fprint(tw, sc.String())
		for _, c := range cols {
			fmt.Fprintf(tw, "\t%.1f", figs[sc].Mean(c))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

// Tab5Row is one benchmark's L2 access breakdown under the anchor scheme.
type Tab5Row struct {
	Workload                    string
	RegularHit, AnchorHit, Miss float64
}

// Tab5Data computes the Table 5 breakdown for one scenario.
func Tab5Data(sc mapping.Scenario, opts Options) ([]Tab5Row, error) {
	opts = opts.withDefaults()
	suite := opts.suite()
	var b batch
	for _, spec := range suite {
		cfg := opts.baseConfig(spec, sc)
		cfg.Scheme = mmu.Anchor
		b.addCfg(cfg)
	}
	cells, err := b.run(opts)
	if err != nil {
		return nil, err
	}
	rows := make([]Tab5Row, 0, len(suite))
	for i, spec := range suite {
		reg, coal, miss := cells[i][0].Res.L2Breakdown()
		rows = append(rows, Tab5Row{Workload: spec.Name, RegularHit: reg, AnchorHit: coal, Miss: miss})
	}
	return rows, nil
}

func runTab5(w io.Writer, opts Options) error {
	fmt.Fprintln(w, "Table 5: L2 TLB hit/miss statistics of the anchor scheme")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tdemand\t\t\tmedium\t\t")
	fmt.Fprintln(tw, "benchmark\tR.hit\tA.hit\tL2 miss\tR.hit\tA.hit\tL2 miss")
	demand, err := Tab5Data(mapping.Demand, opts)
	if err != nil {
		return err
	}
	medium, err := Tab5Data(mapping.Medium, opts)
	if err != nil {
		return err
	}
	for i := range demand {
		d, m := demand[i], medium[i]
		fmt.Fprintf(tw, "%s\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\n",
			d.Workload, d.RegularHit*100, d.AnchorHit*100, d.Miss*100,
			m.RegularHit*100, m.AnchorHit*100, m.Miss*100)
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

// Tab6Data computes the anchor distance chosen by the dynamic selection
// for every benchmark and scenario.
func Tab6Data(opts Options) (map[string]map[mapping.Scenario]uint64, error) {
	opts = opts.withDefaults()
	suite, scs := opts.suite(), mapping.All()
	dists := make([]uint64, len(suite)*len(scs))
	err := inParallel(len(dists), opts.Parallelism, func(k int) error {
		spec := suite[k/len(scs)]
		cl, err := mapping.Generate(scs[k%len(scs)], mapping.Config{
			FootprintPages: spec.FootprintPages,
			Seed:           opts.Seed,
			Pressure:       opts.Pressure,
			FineGrained:    spec.FineGrainedAlloc,
		})
		if err != nil {
			return err
		}
		dists[k], _ = core.SelectDistanceFromChunks(cl)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[mapping.Scenario]uint64)
	for i, spec := range suite {
		out[spec.Name] = make(map[mapping.Scenario]uint64)
		for j, sc := range scs {
			out[spec.Name][sc] = dists[i*len(scs)+j]
		}
	}
	return out, nil
}

func runTab6(w io.Writer, opts Options) error {
	data, err := Tab6Data(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 6: anchor distances selected by the dynamic selection algorithm (pages)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "benchmark")
	for _, sc := range mapping.All() {
		fmt.Fprintf(tw, "\t%s", sc)
	}
	fmt.Fprintln(tw)
	for _, name := range sortedKeys(data) {
		fmt.Fprint(tw, name)
		for _, sc := range mapping.All() {
			fmt.Fprintf(tw, "\t%s", mem.HumanPages(data[name][sc]))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

// CPIFigure computes the per-benchmark translation CPI breakdowns for one
// scenario across all scheme columns (Figures 10 and 11).
func CPIFigure(sc mapping.Scenario, opts Options) (map[string]map[string]sim.CPIBreakdown, []string, error) {
	opts = opts.withDefaults()
	cols := Columns(opts.SkipStaticIdeal)
	var colNames []string
	for _, c := range cols {
		colNames = append(colNames, c.Name)
	}
	suite := opts.suite()
	var b batch
	cellIdx := make([][]int, len(suite))
	for i, spec := range suite {
		cfg := opts.baseConfig(spec, sc)
		cellIdx[i] = make([]int, len(cols))
		for j, col := range cols {
			js, err := col.jobs(cfg)
			if err != nil {
				return nil, nil, err
			}
			cellIdx[i][j] = b.add(js...)
		}
	}
	cells, err := b.run(opts)
	if err != nil {
		return nil, nil, err
	}

	out := make(map[string]map[string]sim.CPIBreakdown)
	hw := mmu.DefaultConfig()
	for i, spec := range suite {
		out[spec.Name] = make(map[string]sim.CPIBreakdown)
		for j, col := range cols {
			out[spec.Name][col.Name] = col.reduce(cells[cellIdx[i][j]]).CPI(hw)
		}
	}
	return out, colNames, nil
}

func runCPI(w io.Writer, title string, sc mapping.Scenario, opts Options) error {
	data, cols, err := CPIFigure(sc, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s (translation CPI totals per scheme)\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "benchmark")
	for _, c := range cols {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, name := range sortedKeys(data) {
		fmt.Fprint(tw, name)
		for _, c := range cols {
			b := data[name][c]
			fmt.Fprintf(tw, "\t%.3f", b.Total())
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	// The paper plots each bar stacked into its three components; print
	// the stack for the dynamic anchor column.
	fmt.Fprintln(w, "\ndynamic-anchor CPI stack (L2-hit + anchor-hit + page-walk cycles/instr):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tL2 hit\tanchor hit\tpage walk\ttotal")
	for _, name := range sortedKeys(data) {
		b := data[name]["dynamic"]
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\n", name, b.L2Hit, b.Coalesced, b.Walk, b.Total())
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

func runFig10(w io.Writer, opts Options) error {
	return runCPI(w, "Figure 10: CPI breakdown, demand paging", mapping.Demand, opts)
}

func runFig11(w io.Writer, opts Options) error {
	return runCPI(w, "Figure 11: CPI breakdown, medium contiguity", mapping.Medium, opts)
}

// SweepCostRow is one distance-change measurement of the Section 3.3
// experiment.
type SweepCostRow struct {
	Distance uint64
	Anchors  uint64
	Millis   float64
}

// SweepData models the cost of re-anchoring a footprint at the paper's
// three distances (8 / 64 / 512) — Section 3.3 measures 452 ms / 71.7 ms
// / 1.7 ms for 30 GiB.
func SweepData(footprintPages uint64) ([]SweepCostRow, error) {
	proc := osmem.NewProcess(osmem.Policy{Anchors: true})
	cl := mem.ChunkList{{StartVPN: 0x10000, StartPFN: 1 << 21, Pages: footprintPages}}
	if err := proc.InstallChunks(cl, 2); err != nil {
		return nil, err
	}
	var rows []SweepCostRow
	for _, d := range []uint64{8, 64, 512} {
		res, cost := proc.ChangeDistance(d, osmem.DefaultSweepCost)
		rows = append(rows, SweepCostRow{
			Distance: d,
			Anchors:  res.AnchorsVisited,
			Millis:   float64(cost.Microseconds()) / 1000,
		})
	}
	return rows, nil
}

func runSweep(w io.Writer, _ Options) error {
	// The paper sweeps a 30 GiB mapping; default to 1 GiB here and scale
	// the reported figure alongside the modeled per-anchor cost.
	const footprint = 1 << 18 // 1 GiB
	rows, err := SweepData(footprint)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Section 3.3: anchor distance change cost (modeled)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "distance\tanchors rewritten\tcost (1GiB)\tscaled to 30GiB\tpaper (30GiB)")
	paper := map[uint64]string{8: "452ms", 64: "71.7ms", 512: "1.7ms"}
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.2fms\t%.0fms\t%s\n", r.Distance, r.Anchors, r.Millis, r.Millis*30, paper[r.Distance])
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

// runExt runs the extension experiments beyond the paper: the
// capacity-aware distance-selection cost model and the Section 4.2
// multi-region anchors, each compared against the paper-faithful
// configuration on the mappings where the single-snapshot heuristic is
// weakest.
func runExt(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	suite := opts.suite()
	scenarios := []mapping.Scenario{mapping.Eager, mapping.Medium}

	var b batch
	type extCell struct{ plain, capac, multi int }
	cellIdx := make([]extCell, 0, len(suite)*len(scenarios))
	for _, spec := range suite {
		for _, sc := range scenarios {
			cfg := opts.baseConfig(spec, sc)
			cfg.Scheme = mmu.Anchor
			var c extCell
			c.plain = b.addCfg(cfg)
			capac := cfg
			capac.CostModel = core.CostCapacityAware
			c.capac = b.addCfg(capac)
			multi := cfg
			multi.MultiRegionAnchors = true
			c.multi = b.addCfg(multi)
			cellIdx = append(cellIdx, c)
		}
	}
	cells, err := b.run(opts)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Extensions: capacity-aware selection and multi-region anchors (TLB misses)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmapping\tentry-count\tcapacity-aware\tmulti-region")
	i := 0
	for _, spec := range suite {
		for _, sc := range scenarios {
			c := cellIdx[i]
			i++
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n", spec.Name, sc,
				cells[c.plain][0].Res.Stats.Misses(),
				cells[c.capac][0].Res.Stats.Misses(),
				cells[c.multi][0].Res.Stats.Misses())
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

// runChurn exercises the Section 3.3 mapping-update machinery under
// load: each scheme runs the same workload while regions of the footprint
// are freed and reallocated, and the table reports the miss inflation and
// the OS shootdown work.
func runChurn(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	suite := opts.suite()
	schemes := []mmu.Scheme{mmu.THP, mmu.Cluster2M, mmu.RMM, mmu.Anchor}

	var b batch
	type churnCell struct{ calm, churned int }
	cellIdx := make([]churnCell, 0, len(suite)*len(schemes))
	for _, spec := range suite {
		for _, s := range schemes {
			cfg := opts.baseConfig(spec, mapping.Medium)
			cfg.Scheme = s
			var c churnCell
			c.calm = b.addCfg(cfg)
			c.churned = b.add(sweep.Job{
				Config:                    cfg,
				ChurnIntervalInstructions: 100_000,
				ChurnPages:                256,
			})
			cellIdx = append(cellIdx, c)
		}
	}
	cells, err := b.run(opts)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Mapping churn (Section 3.3): misses calm vs churned, plus shootdown work")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tscheme\tcalm misses\tchurned misses\tshootdowns\tremaps")
	i := 0
	for _, spec := range suite {
		for _, s := range schemes {
			c := cellIdx[i]
			i++
			churned := cells[c.churned][0]
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\n", spec.Name, s,
				cells[c.calm][0].Res.Stats.Misses(), churned.Res.Stats.Misses(),
				churned.Churn.EntryShootdowns, churned.Churn.Operations)
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

// Experiment names in presentation order.
var experimentOrder = []string{
	"fig1", "fig2", "tab1", "tab3", "tab4", "fig7", "fig8", "fig9",
	"tab5", "tab6", "fig10", "fig11", "sweep", "ext", "churn",
}

var experiments = map[string]func(io.Writer, Options) error{
	"fig1":  runFig1,
	"fig2":  runFig2,
	"tab1":  runTab1,
	"tab3":  runTab3,
	"tab4":  runTab4,
	"fig7":  runFig7,
	"fig8":  runFig8,
	"fig9":  runFig9,
	"tab5":  runTab5,
	"tab6":  runTab6,
	"fig10": runFig10,
	"fig11": runFig11,
	"sweep": runSweep,
	"ext":   runExt,
	"churn": runChurn,
}

// Names lists the available experiment identifiers in order.
func Names() []string { return append([]string(nil), experimentOrder...) }

// Run executes one experiment by name ("all" runs everything). The
// options are defaulted once up front so every experiment of an "all"
// run shares one sweep engine — and with it one result cache, so cells
// repeated across figures (each scenario's base column, the static-ideal
// probes reused by the miss and CPI figures) simulate once.
func Run(name string, w io.Writer, opts Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	opts = opts.withDefaults()
	if name == "all" {
		for _, n := range experimentOrder {
			if err := experiments[n](w, opts); err != nil {
				return fmt.Errorf("report: %s: %w", n, err)
			}
		}
		return nil
	}
	fn, ok := experiments[name]
	if !ok {
		return fmt.Errorf("report: unknown experiment %q (have %v)", name, Names())
	}
	return fn(w, opts)
}
