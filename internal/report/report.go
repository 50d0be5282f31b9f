// Package report regenerates every table and figure of the paper's
// evaluation section (Section 5) from the simulator: relative TLB-miss
// figures (2, 7, 8, 9), the chunk-size CDFs of Figure 1, the L2 hit
// breakdown of Table 5, the selected anchor distances of Table 6, the
// translation-CPI breakdowns of Figures 10 and 11, and the
// anchor-distance-change sweep costs of Section 3.3.
//
// Each experiment prints rows in the same orientation as the paper and is
// also exposed as structured data so tests and benchmarks can assert the
// reproduced *shape*: who wins, by roughly what factor, and where the
// crossovers fall.
//
// Every simulation-running generator routes its cells through one
// internal/sweep engine: the scheme × workload matrices execute on a
// bounded worker pool and repeated cells (the base scheme shared by every
// figure, static-ideal's sixteen distance probes) are simulated once per
// engine. Results are collected in spec order before printing, so the
// output is byte-identical to a serial run.
package report

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/sweep"
	"hybridtlb/internal/workload"
)

// Options tunes experiment scale.
type Options struct {
	// Accesses per simulation run (default 200,000 measured accesses
	// plus 10% warmup).
	Accesses uint64
	// Seed for mappings and workloads.
	Seed int64
	// Workloads restricts the benchmark set (nil: the full suite).
	Workloads []string
	// Pressure is the background fragmentation applied to the
	// buddy-backed scenarios (demand, eager). The default of 0.15
	// yields the paper's demand-paging profile — the authors captured
	// their traces on otherwise idle machines, so mappings are dominated
	// by very large contiguous chunks with a fine-grained remainder
	// (Table 6's demand column selects distances of 1K-64K pages). Set
	// negative for zero pressure.
	Pressure float64
	// SkipStaticIdeal drops the exhaustive static-ideal column (16
	// simulations per cell) from the miss figures.
	SkipStaticIdeal bool
	// Parallelism bounds concurrent simulations (0: GOMAXPROCS). Every
	// simulation is independent, so the matrices parallelize perfectly;
	// output stays deterministic because results are collected before
	// printing.
	Parallelism int
	// Engine, when set, runs every simulation: sharing one engine across
	// experiments shares its result cache, so cells repeated between
	// figures are simulated once per process. When nil, a fresh engine
	// (with Parallelism and Progress applied) is created per top-level
	// call.
	Engine *sweep.Engine
	// Progress observes sweep completion (ignored when Engine is set;
	// pass the hook to sweep.New instead).
	Progress sweep.ProgressFunc
	// Context cancels in-flight experiment sweeps (nil: background).
	Context context.Context
}

func (o Options) withDefaults() Options {
	if o.Accesses == 0 {
		o.Accesses = 200_000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	switch {
	case o.Pressure == 0:
		o.Pressure = 0.15
	case o.Pressure < 0:
		o.Pressure = 0
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Engine == nil {
		o.Engine = sweep.New(sweep.Options{Parallelism: o.Parallelism, Progress: o.Progress})
	}
	return o
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	// tlbvet:ignore ctxflow Options.Context is the caller's context; nil means "no cancellation", the documented API default.
	return context.Background()
}

// batch accumulates sweep jobs for one experiment while remembering cell
// boundaries, so a whole figure dispatches to the engine as one job list
// and the flat results slice back into logical cells.
type batch struct {
	jobs  []sweep.Job
	spans [][2]int
}

// add appends one cell of jobs and returns its cell index.
func (b *batch) add(js ...sweep.Job) int {
	start := len(b.jobs)
	b.jobs = append(b.jobs, js...)
	b.spans = append(b.spans, [2]int{start, len(b.jobs)})
	return len(b.spans) - 1
}

// addCfg appends a single-job cell.
func (b *batch) addCfg(cfg sim.Config) int {
	return b.add(sweep.Job{Config: cfg})
}

// inParallel calls fn(i) for every i in [0, n) on at most par
// goroutines, each taking the next index until none is left, and returns
// once every call has. Its error is that of the lowest failing index.
func inParallel(n, par int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(par, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run executes the batch on the options' engine and returns per-cell
// results in cell order.
func (b *batch) run(opts Options) ([][]sweep.Result, error) {
	results, err := opts.Engine.Run(opts.ctx(), b.jobs)
	if err != nil {
		return nil, err
	}
	out := make([][]sweep.Result, len(b.spans))
	for i, sp := range b.spans {
		out[i] = results[sp[0]:sp[1]]
	}
	return out, nil
}

func (o Options) suite() []workload.Spec {
	all := workload.Suite()
	if o.Workloads == nil {
		return all
	}
	var out []workload.Spec
	for _, name := range o.Workloads {
		spec, err := workload.ByName(name)
		if err != nil {
			// Surface the typo instead of silently dropping the row;
			// experiments validate via Validate() below before running.
			continue
		}
		out = append(out, spec)
	}
	return out
}

// Validate reports configuration errors (unknown workload names) before
// any simulation runs.
func (o Options) Validate() error {
	for _, name := range o.Workloads {
		if _, err := workload.ByName(name); err != nil {
			return err
		}
	}
	return nil
}

// Column is one scheme column of a miss/CPI figure. Dynamic and
// static-ideal are distinct columns over the same anchor hardware.
type Column struct {
	Name   string
	Scheme mmu.Scheme
	// StaticIdeal marks the exhaustive static-ideal column: its cell
	// expands to one probe per candidate anchor distance, reduced to the
	// best run.
	StaticIdeal bool
}

// Columns returns the figure columns in the paper's legend order:
// Base, THP, Cluster, Cluster-2MB, RMM, Dynamic, Static Ideal.
func Columns(skipStaticIdeal bool) []Column {
	cols := []Column{
		{Name: "base", Scheme: mmu.Base},
		{Name: "thp", Scheme: mmu.THP},
		{Name: "cluster", Scheme: mmu.Cluster},
		{Name: "cl.2mb", Scheme: mmu.Cluster2M},
		{Name: "rmm", Scheme: mmu.RMM},
		{Name: "dynamic", Scheme: mmu.Anchor},
	}
	if !skipStaticIdeal {
		cols = append(cols, Column{Name: "s.ideal", Scheme: mmu.Anchor, StaticIdeal: true})
	}
	return cols
}

// jobs expands the column's cell for one base config into its sweep
// jobs.
func (c Column) jobs(cfg sim.Config) ([]sweep.Job, error) {
	cfg.Scheme = c.Scheme
	if c.StaticIdeal {
		cfgs, err := sim.StaticIdealConfigs(cfg)
		if err != nil {
			return nil, err
		}
		js := make([]sweep.Job, len(cfgs))
		for i, pc := range cfgs {
			js[i] = sweep.Job{Config: pc}
		}
		return js, nil
	}
	return []sweep.Job{{Config: cfg}}, nil
}

// reduce folds a cell's results back into the column's single simulation
// result.
func (c Column) reduce(cell []sweep.Result) sim.Result {
	if c.StaticIdeal {
		return sim.BestStaticIdeal(sweep.Results(cell))
	}
	return cell[0].Res
}

// MissRow is one benchmark's relative TLB misses across scheme columns
// (percent of the base scheme's misses).
type MissRow struct {
	Workload string
	Relative map[string]float64 // column name -> percent
	Base     sim.Result
}

// MissFigure is the structured form of Figures 2, 7, 8 and 9.
type MissFigure struct {
	Scenario mapping.Scenario
	Columns  []string
	Rows     []MissRow
}

// Mean returns the arithmetic mean of a column over all rows.
func (f MissFigure) Mean(col string) float64 {
	if len(f.Rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range f.Rows {
		sum += r.Relative[col]
	}
	return sum / float64(len(f.Rows))
}

// baseConfig assembles the shared simulation config for one cell.
func (o Options) baseConfig(spec workload.Spec, sc mapping.Scenario) sim.Config {
	return sim.Config{
		Workload: spec,
		Scenario: sc,
		Accesses: o.Accesses,
		Seed:     o.Seed,
		Pressure: o.Pressure,
	}
}

// MissesByScenario runs the full scheme matrix for one mapping scenario —
// the computation behind Figures 7 (demand) and 8 (medium contiguity).
// The whole matrix dispatches as one engine batch: every cell runs
// concurrently and the per-row base cell is shared with the base column
// through the result cache.
func MissesByScenario(sc mapping.Scenario, opts Options) (MissFigure, error) {
	opts = opts.withDefaults()
	cols := Columns(opts.SkipStaticIdeal)
	fig := MissFigure{Scenario: sc}
	for _, c := range cols {
		fig.Columns = append(fig.Columns, c.Name)
	}
	suite := opts.suite()

	var b batch
	baseCells := make([]int, len(suite))
	colCells := make([][]int, len(suite))
	for i, spec := range suite {
		cfg := opts.baseConfig(spec, sc)
		baseCfg := cfg
		baseCfg.Scheme = mmu.Base
		baseCells[i] = b.addCfg(baseCfg)
		colCells[i] = make([]int, len(cols))
		for j, col := range cols {
			js, err := col.jobs(cfg)
			if err != nil {
				return fig, fmt.Errorf("report: %s/%v %s: %w", spec.Name, sc, col.Name, err)
			}
			colCells[i][j] = b.add(js...)
		}
	}
	cells, err := b.run(opts)
	if err != nil {
		return fig, fmt.Errorf("report: %v: %w", sc, err)
	}

	rows := make([]MissRow, len(suite))
	for i, spec := range suite {
		base := cells[baseCells[i]][0].Res
		row := MissRow{Workload: spec.Name, Relative: make(map[string]float64), Base: base}
		for j, col := range cols {
			row.Relative[col.Name] = col.reduce(cells[colCells[i][j]]).RelativeMisses(base)
		}
		rows[i] = row
	}
	fig.Rows = rows
	return fig, nil
}

// WriteMissFigure renders a miss figure like the paper's bar charts:
// one row per benchmark plus the mean row, values in percent.
func WriteMissFigure(w io.Writer, title string, fig MissFigure) {
	fmt.Fprintf(w, "%s (relative TLB misses, %% of base; lower is better)\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "benchmark")
	for _, c := range fig.Columns {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, r := range fig.Rows {
		fmt.Fprint(tw, r.Workload)
		for _, c := range fig.Columns {
			fmt.Fprintf(tw, "\t%.1f", r.Relative[c])
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "mean")
	for _, c := range fig.Columns {
		fmt.Fprintf(tw, "\t%.1f", fig.Mean(c))
	}
	fmt.Fprintln(tw)
	tw.Flush()
	fmt.Fprintln(w)
}

// sortedKeys returns map keys in sorted order (deterministic output).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
