package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hybridtlb"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/report"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/sweep"
	"hybridtlb/internal/trace"
	"hybridtlb/internal/workload"
)

// scale fixes each workload's run length. Changing it changes every
// output, so digests.json must be re-recorded with it.
type scale struct {
	// gridAccesses is the measured accesses per paper-grid cell.
	gridAccesses uint64
	// replayAccesses is the measured length of the trace-replay trace
	// (a further 10% is recorded and replayed as warmup).
	replayAccesses uint64
	// churnAccesses is the measured accesses per remap-churn simulation.
	churnAccesses uint64
}

// benchScale is the scale the benchmark runs and digests.json records.
var benchScale = scale{gridAccesses: 20_000, replayAccesses: 400_000, churnAccesses: 150_000}

// gridWorkloads is the paper-grid benchmark subset: gups's 8 GiB
// footprint dominates page-table install, omnetpp and canneal exercise
// Zipf generation, and mcf is the pattern trace-replay records.
var gridWorkloads = []string{"gups", "omnetpp", "canneal", "mcf"}

// The remap-churn settings: the -exp churn job shape (256-page remaps on
// the medium mapping) with a churn interval and re-selection epoch short
// enough that the update path carries a large share of host time.
const (
	churnInterval = 10_000
	churnPages    = 256
	churnEpoch    = 100_000
	// churnPressure is report's default background pressure, which the
	// -exp churn jobs carry in their configs.
	churnPressure = 0.15
)

var (
	churnWorkloads = []string{"canneal", "mcf"}
	churnSchemes   = []mmu.Scheme{mmu.THP, mmu.Cluster2M, mmu.RMM, mmu.Anchor}
)

// churnSeeds is how many input seeds each remap-churn job runs under.
// The update path's cost depends on the mapping the seed generates, so
// one mapping per job makes the cost swing with the seed; three average
// that out.
const churnSeeds = 3

// replayWorkload and replayScenario fix the trace-replay input.
const (
	replayWorkload = "mcf"
	replayScenario = mapping.Medium
)

// parallelism is the paper-grid sweep width: the two cores the benchmark
// is calibrated for, fewer where the host has fewer.
func parallelism() int { return min(2, runtime.NumCPU()) }

// inputs are one run's generated inputs.
type inputs struct {
	workload string
	seed     int64
	scale    scale
	// tracePath is the recorded trace trace-replay replays.
	tracePath string
}

// newInputs names a run's inputs; generate writes the ones kept in files.
func newInputs(name string, seed int64, sc scale, dir string) inputs {
	in := inputs{workload: name, seed: seed, scale: sc}
	if name == "trace-replay" {
		in.tracePath = filepath.Join(dir, fmt.Sprintf("%s-seed%d.trc", replayWorkload, seed))
	}
	return in
}

// generate writes trace-replay's trace, recorded from the seed in
// tracegen's default varint format. The other workloads build their
// configs from the seed directly.
func (in inputs) generate() error {
	if in.tracePath == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(in.tracePath), 0o755); err != nil {
		return err
	}
	return writeTrace(in.tracePath, in.scale.replayAccesses+in.scale.replayAccesses/10, in.seed)
}

// remove deletes the generated input files.
func (in inputs) remove() {
	if in.tracePath != "" {
		_ = os.Remove(in.tracePath) // a leftover input is harmless: every run regenerates it
	}
}

// traceWriter is the part of trace.Writer and trace.BinWriter that
// copyRecords uses.
type traceWriter interface {
	Write(trace.Record) error
}

// writeTrace records n accesses of the replay workload at the mapping
// base, as `tracegen -workload mcf -accesses n -seed seed` does.
func writeTrace(path string, n uint64, seed int64) error {
	spec, err := workload.ByName(replayWorkload)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		_ = f.Close() // the header write error is the failure reported
		return err
	}
	gen := spec.NewGenerator(mapping.DefaultBaseVPN, 0, n, seed)
	return copyRecords(f, w, gen, w.Flush)
}

// writeBinCopy re-encodes a trace file in the HTLBTRB2 binary format.
func writeBinCopy(src, dst string) error {
	in, closeIn, err := trace.OpenPath(src)
	if err != nil {
		return err
	}
	defer closeIn()
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	bw, err := trace.NewBinWriter(f)
	if err != nil {
		_ = f.Close() // the header write error is the failure reported
		return err
	}
	return copyRecords(f, bw, in, bw.Close)
}

// copyRecords writes every record of src through w, flushes w and closes
// f.
func copyRecords(f *os.File, w traceWriter, src trace.Source, flush func() error) error {
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(rec); err != nil {
			_ = f.Close() // the write error is the failure reported
			return err
		}
	}
	if err := flush(); err != nil {
		_ = f.Close() // the flush error is the failure reported
		return err
	}
	return f.Close()
}

// simJob is one simulation a workload runs: a sweep job (defaulted
// config, plus churn fields for remap-churn) and, for trace-replay, the
// trace the config replays.
type simJob struct {
	sweep.Job
	tracePath string
}

func (j simJob) churn() bool { return j.ChurnIntervalInstructions != 0 || j.ChurnPages != 0 }

// cell is one simulation a repetition ran, with its untraced host time.
type cell struct {
	job     simJob
	seconds float64
}

// repResult is one untraced repetition of a workload.
type repResult struct {
	wall time.Duration
	// cells are the simulations run, in completion order; cache hits
	// simulate nothing and are not cells.
	cells []cell
	// jobs counts jobs submitted, cache hits included.
	jobs        int
	parallelism int
	// attempted counts simulations started, failed ones included.
	attempted int
	// digests hash each checked output ("error: ..." for a failed one),
	// and outputSims counts the simulations each output covers.
	digests    map[string]string
	outputSims map[string]int
}

func newRepResult(par int) repResult {
	return repResult{parallelism: par, digests: make(map[string]string), outputSims: make(map[string]int)}
}

// output records one checked output covering one simulation.
func (r *repResult) output(name, digest string) {
	r.digests[name] = digest
	r.outputSims[name] = 1
}

// accesses is the simulated access count, warmup included.
func (r repResult) accesses() uint64 {
	var n uint64
	for _, c := range r.cells {
		n += c.job.Config.WarmupAccesses + c.job.Config.Accesses
	}
	return n
}

// schemeSeconds sums the host time of one scheme's cells.
func (r repResult) schemeSeconds(s mmu.Scheme) float64 {
	var sum float64
	for _, c := range r.cells {
		if c.job.Config.Scheme == s {
			sum += c.seconds
		}
	}
	return sum
}

// workloadDef binds a workload's name to its untraced repetition.
type workloadDef struct {
	name string
	// rep runs the workload once, untraced.
	rep func(in inputs) repResult
}

var workloadDefs = []workloadDef{
	{name: "paper-grid", rep: runPaperGrid},
	{name: "trace-replay", rep: runTraceReplay},
	{name: "remap-churn", rep: runRemapChurn},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have paper-grid, trace-replay, remap-churn)", name)
}

// cellTimer observes a sweep engine through its Probe and Progress hooks
// only: the Probe factory marks when a cell starts simulating (it
// returns a nil probe, so the drive is unchanged) and Progress when its
// first job position finishes. Cache hits never reach the factory.
type cellTimer struct {
	mu      sync.Mutex
	started map[string]startedCell
	cells   []cell
}

type startedCell struct {
	job sweep.Job
	at  time.Time
}

func newCellTimer() *cellTimer { return &cellTimer{started: make(map[string]startedCell)} }

func (c *cellTimer) start(j sweep.Job) sim.Probe {
	at := time.Now()
	key := j.Key()
	c.mu.Lock()
	c.started[key] = startedCell{job: j, at: at}
	c.mu.Unlock()
	return nil
}

func (c *cellTimer) done(_, _ int, j sweep.Job) {
	at := time.Now()
	key := j.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.started[key]
	if !ok {
		return // a cache hit or a coalesced duplicate
	}
	delete(c.started, key)
	c.cells = append(c.cells, cell{job: simJob{Job: s.job}, seconds: at.Sub(s.at).Seconds()})
}

func (c *cellTimer) engine(par int) *sweep.Engine {
	return sweep.New(sweep.Options{Parallelism: par, Progress: c.done, Probe: c.start})
}

// gridOptions are the report options of paper-grid: everything
// `make experiments` prints, over the benchmark subset.
func gridOptions(in inputs, accesses uint64, eng *sweep.Engine) report.Options {
	return report.Options{
		Accesses:    accesses,
		Seed:        in.seed,
		Workloads:   gridWorkloads,
		Parallelism: parallelism(),
		Engine:      eng,
	}
}

// runPaperGrid renders report.Run("all") through one shared sweep
// engine. The rendered text is the checked output; it covers every
// simulation of the grid.
func runPaperGrid(in inputs) repResult {
	timer := newCellTimer()
	eng := timer.engine(parallelism())
	var text bytes.Buffer
	start := time.Now()
	err := report.Run("all", &text, gridOptions(in, in.scale.gridAccesses, eng))
	res := newRepResult(parallelism())
	res.wall = time.Since(start)
	res.jobs = eng.Stats().Jobs
	res.cells = timer.cells
	res.attempted = len(res.cells)
	res.digests["text"] = digestBytes(text.Bytes())
	if err != nil {
		res.digests["text"] = "error: " + err.Error()
	}
	res.outputSims["text"] = len(res.cells)
	return res
}

// replayConfig is the public config trace-replay passes to
// hybridtlb.Simulate for one scheme.
func replayConfig(in inputs, s mmu.Scheme, accesses uint64) hybridtlb.SimulationConfig {
	return hybridtlb.SimulationConfig{
		Scheme:    s.String(),
		Workload:  replayWorkload,
		Scenario:  replayScenario.String(),
		Accesses:  accesses,
		Seed:      in.seed,
		TracePath: in.tracePath,
	}
}

// replayJob is the simulator config hybridtlb.Simulate builds from
// replayConfig; the traced run re-drives it.
func replayJob(in inputs, s mmu.Scheme) (simJob, error) {
	spec, err := workload.ByName(replayWorkload)
	if err != nil {
		return simJob{}, err
	}
	cfg := sim.Config{
		Scheme:   s,
		Workload: spec,
		Scenario: replayScenario,
		HW:       mmu.DefaultConfig(),
		Accesses: in.scale.replayAccesses,
		Seed:     in.seed,
	}
	return simJob{Job: sweep.Job{Config: cfg.WithDefaults()}, tracePath: in.tracePath}, nil
}

// runTraceReplay replays the recorded trace once per scheme, one
// simulation at a time, through the public Simulate (the tlbsim -trace
// path). Each scheme's result is a checked output.
func runTraceReplay(in inputs) repResult {
	res := newRepResult(1)
	start := time.Now()
	for _, s := range mmu.All() {
		res.jobs++
		res.attempted++
		job, err := replayJob(in, s)
		if err != nil {
			res.output(s.String(), "error: "+err.Error())
			continue
		}
		t0 := time.Now()
		r, err := hybridtlb.Simulate(replayConfig(in, s, in.scale.replayAccesses))
		sec := time.Since(t0).Seconds()
		if err != nil {
			res.output(s.String(), "error: "+err.Error())
			continue
		}
		res.cells = append(res.cells, cell{job: job, seconds: sec})
		res.output(s.String(), digestOf(r))
	}
	res.wall = time.Since(start)
	return res
}

// churnJobs are the -exp churn sweep jobs remap-churn runs, in the order
// that experiment builds them (workload-major), once per derived seed:
// the run's seed itself, then seeds offset in the high bits so that runs
// at nearby seeds share no input.
func churnJobs(in inputs, accesses uint64) ([]sweep.Job, error) {
	var jobs []sweep.Job
	for k := int64(0); k < churnSeeds; k++ {
		for _, name := range churnWorkloads {
			spec, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			for _, s := range churnSchemes {
				jobs = append(jobs, sweep.Job{
					Config: sim.Config{
						Scheme:            s,
						Workload:          spec,
						Scenario:          mapping.Medium,
						Accesses:          accesses,
						Seed:              in.seed + k<<32,
						Pressure:          churnPressure,
						EpochInstructions: churnEpoch,
					}.WithDefaults(),
					ChurnIntervalInstructions: churnInterval,
					ChurnPages:                churnPages,
				})
			}
		}
	}
	return jobs, nil
}

// churnOutput is the checked output of one remap-churn simulation.
type churnOutput struct {
	Result sim.Result
	Churn  sim.ChurnStats
}

func churnOutputName(j sweep.Job) string {
	return fmt.Sprintf("%v/%s/seed=%d", j.Config.Scheme, j.Config.Workload.Name, j.Config.Seed)
}

// runRemapChurn runs the churn jobs through one sweep engine, one
// simulation at a time. Each job's result and churn stats are a checked
// output.
func runRemapChurn(in inputs) repResult {
	res := newRepResult(1)
	jobs, err := churnJobs(in, in.scale.churnAccesses)
	if err != nil {
		res.attempted = 1
		res.output("jobs", "error: "+err.Error())
		return res
	}
	eng := sweep.New(sweep.Options{Parallelism: 1})
	start := time.Now()
	for _, j := range jobs {
		res.attempted++
		t0 := time.Now()
		out, err := eng.Run(context.Background(), []sweep.Job{j})
		sec := time.Since(t0).Seconds()
		if err != nil {
			res.output(churnOutputName(j), "error: "+err.Error())
			continue
		}
		res.cells = append(res.cells, cell{job: simJob{Job: out[0].Job}, seconds: sec})
		res.output(churnOutputName(j), digestOf(churnOutput{Result: out[0].Res, Churn: out[0].Churn}))
	}
	res.wall = time.Since(start)
	res.jobs = eng.Stats().Jobs
	return res
}

// setupScale runs every simulation at one access.
var setupScale = scale{gridAccesses: 1, replayAccesses: 1, churnAccesses: 1}

// setupSeconds is one set-up pass: it re-runs the workload with every
// simulation at one access and sums the simulations' host time, the time
// before each simulation's first access. Cache hits and the grid's
// non-simulating experiments are not cells, so they do not count.
// trace-replay still opens the full-length trace generated before timing.
func setupSeconds(w workloadDef, in inputs) (float64, error) {
	in.scale = setupScale
	r := w.rep(in)
	if bad := badOutputs(nil, r.digests); len(bad) != 0 {
		return 0, fmt.Errorf("%s: %s", bad[0], r.digests[bad[0]])
	}
	var sum float64
	for _, c := range r.cells {
		sum += c.seconds
	}
	return sum, nil
}
