package sweep

import (
	"context"
	"sync"
	"testing"
	"time"

	"hybridtlb/internal/core"
	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/pagetable"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/workload"
)

// shareJobs is a batch mixing every kind of run a worker's kept table
// meets, on three mappings: the demand one, whose heads hold 2 MiB pages
// from distance 1024 on, the medium one, whose heads hold none, and the
// low one, where the dynamic run selects a distance below 8. Each
// mapping gets every non-anchor scheme, dynamic runs under both cost
// models and a detailed-walk run; demand and medium also get the
// static-ideal probes. Medium's churn job comes first, so were churn runs
// grouped with the runs that share tables, a worker that kept the table
// it churned would serve the dynamic runs after it from that table;
// demand gets a multi-region run.
func shareJobs(t testing.TB) []Job {
	t.Helper()
	wl, err := workload.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, sc := range []mapping.Scenario{mapping.Medium, mapping.Demand, mapping.Low} {
		base := sim.Config{Workload: wl, Scenario: sc, FootprintPages: 1 << 14, Accesses: 3_000, Seed: 3, Pressure: 0.15}
		anchor := base
		anchor.Scheme = mmu.Anchor
		if sc == mapping.Medium {
			jobs = append(jobs, Job{Config: anchor, ChurnIntervalInstructions: 2_000, ChurnPages: 64})
		}
		for _, s := range []mmu.Scheme{mmu.Base, mmu.THP, mmu.Cluster, mmu.Cluster2M, mmu.RMM, mmu.CoLT} {
			c := base
			c.Scheme = s
			jobs = append(jobs, Job{Config: c})
		}
		capacity, detailed, regions := anchor, anchor, anchor
		capacity.CostModel = core.CostCapacityAware
		detailed.DetailedWalk, detailed.FixedDistance = true, 64
		regions.MultiRegionAnchors = true
		jobs = append(jobs, Job{Config: anchor}, Job{Config: capacity}, Job{Config: detailed})
		if sc == mapping.Low {
			continue
		}
		probes, err := sim.StaticIdealConfigs(anchor)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range probes {
			jobs = append(jobs, Job{Config: c})
		}
		if sc == mapping.Demand {
			jobs = append(jobs, Job{Config: regions})
		}
	}
	return jobs
}

// tableInputs wraps the inputs the engine hands a run, recording every
// page table Install returns.
type tableInputs struct {
	sim.Inputs
	mu     *sync.Mutex
	tables map[*pagetable.Table]bool
}

func (in tableInputs) Install(s sim.InstallSpec, cl mem.ChunkList) (*osmem.Process, error) {
	p, err := in.Inputs.Install(s, cl)
	if err == nil {
		in.mu.Lock()
		in.tables[p.PageTable()] = true
		in.mu.Unlock()
	}
	return p, err
}

// countTables makes e's runs record the page tables they read, and
// returns how many distinct ones they have read so far.
func countTables(e *Engine) func() int {
	in := tableInputs{mu: new(sync.Mutex), tables: make(map[*pagetable.Table]bool)}
	e.runJob = func(j Job, w sim.Inputs) (sim.Result, sim.ChurnStats, error) {
		in := in
		in.Inputs = w
		return execute(j, in)
	}
	return func() int {
		in.mu.Lock()
		defer in.mu.Unlock()
		return len(in.tables)
	}
}

// buildDistances returns each job's table key and the distance a shared
// table for it is built at.
func buildDistances(t *testing.T, jobs []Job) (keys []tableKey, builds []uint64) {
	t.Helper()
	for _, j := range jobs {
		s := sim.InstallOf(j.Config, j.churn())
		cl, err := s.Mapping.Generate()
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.InstallOn(nil, cl)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tableKey{s.Mapping, s.Policy.THP, s.Policy.Anchors, !shareable(s)})
		builds = append(builds, osmem.BuildDistance(p.Chunks(), s.Policy, p.AnchorDistance()))
	}
	return keys, builds
}

// TestTableReuseMatchesDirectRuns: at parallelism 2, every job of a batch
// in which workers serve runs from kept tables — probes built at 2, at 8
// and at their own distance, dynamic runs under both cost models, detailed
// walks — next to churn and multi-region runs returns exactly what the
// job returns run alone through sim.Generated.
func TestTableReuseMatchesDirectRuns(t *testing.T) {
	jobs := shareJobs(t)
	_, builds := buildDistances(t, jobs)
	seen := make(map[uint64]bool)
	for _, b := range builds {
		seen[b] = true
	}
	if !seen[2] || !seen[8] || !seen[1024] {
		t.Fatalf("build distances %v: the batch needs tables built at 2, at 8 and for a 2 MiB head", seen)
	}
	e := New(Options{Parallelism: 2, DisableCache: true})
	tables := countTables(e)
	rs, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := tables(); n >= len(jobs) {
		t.Fatalf("%d tables for %d jobs: no table was shared", n, len(jobs))
	}
	for _, r := range rs {
		res, churn, err := execute(r.Job, sim.Generated)
		if err != nil {
			t.Fatal(err)
		}
		if canonical(t, r.Res, r.Churn) != canonical(t, res, churn) {
			t.Errorf("job %v differs from its direct run", r.Job)
		}
	}
}

// TestTableReuseInstallsOncePerBuildDistance: one worker builds one table
// per table group and build distance for the batch's runs at pinned
// distances and without anchors, plus one for every churn and
// multi-region run; two workers build each such table at most once each.
// Each dynamic run, whose build distance is known only once its mapping
// is, adds at most one table.
func TestTableReuseInstallsOncePerBuildDistance(t *testing.T) {
	all := shareJobs(t)
	keys, builds := buildDistances(t, all)
	type table struct {
		key   tableKey
		build uint64
	}
	var pinned []Job
	tables := make(map[table]bool)
	own, dynamic := 0, 0
	for i, j := range all {
		switch {
		case keys[i].own:
			own++
		case keys[i].anchors && j.Config.FixedDistance == 0:
			dynamic++
			continue
		default:
			tables[table{keys[i], builds[i]}] = true
		}
		pinned = append(pinned, j)
	}
	count := func(p int, jobs []Job) int {
		e := New(Options{Parallelism: p, DisableCache: true})
		n := countTables(e)
		if _, err := e.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		return n()
	}
	want := len(tables) + own
	if got := count(1, pinned); got != want {
		t.Errorf("one worker: %d tables for %d pinned jobs, want %d: %d shared and %d of their own",
			got, len(pinned), want, len(tables), own)
	}
	if got := count(2, pinned); got < want || got > 2*len(tables)+own {
		t.Errorf("two workers: %d tables for %d pinned jobs, want %d to %d", got, len(pinned), want, 2*len(tables)+own)
	}
	if got := count(1, all); got < want || got > want+dynamic {
		t.Errorf("one worker: %d tables with %d dynamic runs added, want %d to %d", got, dynamic, want, want+dynamic)
	}
}

// TestOneGroupRunsOnEveryWorker: a batch whose tasks all share one table
// group, a row's static-ideal probes, still runs on every worker.
func TestOneGroupRunsOnEveryWorker(t *testing.T) {
	probes, err := sim.StaticIdealConfigs(sim.Config{Scheme: mmu.Anchor})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, len(probes))
	for i, c := range probes {
		jobs[i].Config = c
	}
	const workers = 4
	e := New(Options{Parallelism: workers, DisableCache: true})
	started := make(chan struct{}, len(jobs))
	release := make(chan struct{})
	e.runJob = func(Job, sim.Inputs) (sim.Result, sim.ChurnStats, error) {
		started <- struct{}{}
		<-release
		return sim.Result{}, sim.ChurnStats{}, nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(context.Background(), jobs)
		done <- err
	}()
	waitStart := func() bool {
		select {
		case <-started:
			return true
		case <-time.After(10 * time.Second):
			return false
		}
	}
	for i := 0; i < workers; i++ {
		if !waitStart() {
			t.Errorf("%d of %d workers run a task of the batch's one group", i, workers)
			break
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
