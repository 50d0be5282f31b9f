package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/workload"
)

// smallSpec is a cheap but real scheme×workload grid.
func smallSpec(t testing.TB) Spec {
	t.Helper()
	var wls []workload.Spec
	for _, name := range []string{"gups", "omnetpp"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, spec)
	}
	return Spec{
		Base: sim.Config{
			FootprintPages: 1 << 12,
			Accesses:       10_000,
			Seed:           7,
			Pressure:       0.15,
		},
		Schemes:   []mmu.Scheme{mmu.Base, mmu.Anchor},
		Workloads: wls,
		Scenarios: []mapping.Scenario{mapping.Low, mapping.Medium},
	}
}

func TestSpecExpansion(t *testing.T) {
	spec := smallSpec(t)
	spec.Seeds = []int64{1, 2}
	jobs := spec.Jobs()
	if want := 2 * 2 * 2 * 2; len(jobs) != want || spec.Size() != want {
		t.Fatalf("jobs = %d, Size = %d, want %d", len(jobs), spec.Size(), want)
	}
	// Deterministic order: workloads outermost, seeds inside schemes.
	if jobs[0].Config.Workload.Name != "gups" || jobs[0].Config.Seed != 1 {
		t.Errorf("job 0 = %v seed=%d", jobs[0], jobs[0].Config.Seed)
	}
	if jobs[1].Config.Seed != 2 {
		t.Errorf("job 1 should vary the seed first, got seed=%d", jobs[1].Config.Seed)
	}
	if last := jobs[len(jobs)-1].Config; last.Workload.Name != "omnetpp" ||
		last.Scenario != mapping.Medium || last.Scheme != mmu.Anchor || last.Seed != 2 {
		t.Errorf("last job = %v seed=%d", jobs[len(jobs)-1], last.Seed)
	}
	// The zero spec over a base config is exactly one job.
	one := Spec{Base: spec.Base}
	if got := len(one.Jobs()); got != 1 {
		t.Errorf("zero-axis spec expanded to %d jobs", got)
	}
}

func TestKeyDistinguishesConfigs(t *testing.T) {
	base := smallSpec(t).Jobs()[0]
	same := base
	if base.Key() != same.Key() {
		t.Error("identical jobs hash differently")
	}
	// The defaulted form shares the explicit form's cell.
	defaulted := base
	defaulted.Config = defaulted.Config.WithDefaults()
	if base.Key() != defaulted.Key() {
		t.Error("defaulted config hashes differently from its zero form")
	}
	// Persisted result stores are keyed by these strings: they must not
	// change for an unchanged job. Both were recorded before the
	// workload identity moved into workload.Spec.Identity.
	if got, want := base.Key(), "04ac1c8313c5e7973bc518156fe703d8d39e58592c0ac834056b4904f5dc9348"; got != want {
		t.Errorf("key of %v = %s, want %s", base, got, want)
	}
	jobs := smallSpec(t).Jobs()
	churn := jobs[len(jobs)-1]
	churn.ChurnIntervalInstructions, churn.ChurnPages = 5000, 64
	if got, want := churn.Key(), "004851c52feaab430b8e28da1a31a01c9c03f017025532c703f3512c79811c53"; got != want {
		t.Errorf("key of %v = %s, want %s", churn, got, want)
	}
	for name, mutate := range map[string]func(*Job){
		"seed":     func(j *Job) { j.Config.Seed++ },
		"scheme":   func(j *Job) { j.Config.Scheme = mmu.RMM },
		"scenario": func(j *Job) { j.Config.Scenario = mapping.High },
		"distance": func(j *Job) { j.Config.FixedDistance = 64 },
		"pressure": func(j *Job) { j.Config.Pressure = 0.4 },
		"churn":    func(j *Job) { j.ChurnIntervalInstructions = 1000; j.ChurnPages = 16 },
		"hardware": func(j *Job) { j.Config.HW = mmu.DefaultConfig(); j.Config.HW.L2Entries = 2048 },
	} {
		j := base
		mutate(&j)
		if j.Key() == base.Key() {
			t.Errorf("%s change did not change the key", name)
		}
	}
}

// TestEngineProbe pins the Options.Probe factory contract: called once
// per simulated cell (never for coalesced duplicates), never overriding
// a job's own Config.Probe, and free — attaching probes leaves every
// result byte-identical.
func TestEngineProbe(t *testing.T) {
	spec := smallSpec(t)
	spec.Base.EpochInstructions = 10_000 // several epochs per 10k-access job
	jobs := spec.Jobs()
	jobs = append(jobs, jobs[0]) // coalesced duplicate: no factory call

	plain, err := New(Options{Parallelism: 4}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	factory := map[string]int{}
	samples := map[string]int{}
	var own atomic.Int64
	eng := New(Options{Parallelism: 4, Probe: func(j Job) sim.Probe {
		key := j.Key()
		mu.Lock()
		factory[key]++
		mu.Unlock()
		return func(sim.ProbeSample) {
			mu.Lock()
			samples[key]++
			mu.Unlock()
		}
	}})
	// One job carries its own probe; the factory must not replace it.
	// A fresh seed makes it a distinct cell (a duplicate key would be
	// coalesced and fire nothing).
	ownJob := jobs[1]
	ownJob.Config.Seed += 100
	ownJob.Config.Probe = func(sim.ProbeSample) { own.Add(1) }
	probed := append(append([]Job{}, jobs...), ownJob)

	res, err := eng.Run(context.Background(), probed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if !reflect.DeepEqual(plain[i].Res, res[i].Res) {
			t.Errorf("job %d: probe changed the result", i)
		}
	}
	for i, j := range jobs[:len(jobs)-1] {
		key := j.Key()
		if factory[key] != 1 {
			t.Errorf("job %d: factory called %d times, want 1", i, factory[key])
		}
		if samples[key] == 0 {
			t.Errorf("job %d: probe never fired", i)
		}
	}
	if own.Load() == 0 {
		t.Error("job-supplied probe never fired")
	}
	if n := factory[ownJob.Key()]; n != 0 {
		t.Errorf("factory called %d times for a job with its own probe", n)
	}
}

// TestDeterministicOrder inverts completion order (early jobs finish
// last) and checks results still come back in spec order.
func TestDeterministicOrder(t *testing.T) {
	const n = 16
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i].Config.Seed = int64(i + 1)
	}
	e := New(Options{Parallelism: n, DisableCache: true})
	started := make(chan struct{}, n)
	release := make(chan struct{})
	e.runJob = func(j Job, _ sim.Inputs) (sim.Result, sim.ChurnStats, error) {
		started <- struct{}{}
		<-release
		// Later seeds return sooner.
		time.Sleep(time.Duration(n-j.Config.Seed) * time.Millisecond)
		return sim.Result{Instructions: uint64(j.Config.Seed)}, sim.ChurnStats{}, nil
	}
	go func() {
		for i := 0; i < n; i++ {
			<-started
		}
		close(release)
	}()
	results, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Res.Instructions != uint64(i+1) {
			t.Fatalf("result %d carries job %d's payload", i, r.Res.Instructions)
		}
	}
}

// TestSerialParallelIdentical is the determinism contract: a real grid
// swept at parallelism 1 and at high parallelism produces bit-identical
// results.
func TestSerialParallelIdentical(t *testing.T) {
	jobs := smallSpec(t).Jobs()
	serialEng := New(Options{Parallelism: 1})
	serial, err := serialEng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallelEng := New(Options{Parallelism: 8})
	parallel, err := parallelEng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Res, parallel[i].Res) {
			t.Fatalf("job %d (%v) differs between serial and parallel sweep:\n%+v\nvs\n%+v",
				i, jobs[i], serial[i].Res, parallel[i].Res)
		}
	}
}

func TestCacheHitCounting(t *testing.T) {
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i].Config.Seed = int64(i % 2) // three copies of two unique jobs
	}
	var executed atomic.Int64
	e := New(Options{Parallelism: 4})
	e.runJob = func(j Job, _ sim.Inputs) (sim.Result, sim.ChurnStats, error) {
		executed.Add(1)
		return sim.Result{Instructions: uint64(j.Config.Seed)}, sim.ChurnStats{}, nil
	}
	results, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 2 {
		t.Errorf("executed %d simulations, want 2 (duplicates coalesced)", got)
	}
	for i, r := range results {
		if r.Res.Instructions != uint64(i%2) {
			t.Errorf("result %d fanned out wrong payload %d", i, r.Res.Instructions)
		}
		if wantCached := i >= 2; r.Cached != wantCached {
			t.Errorf("result %d Cached = %t, want %t", i, r.Cached, wantCached)
		}
	}
	if s := e.Stats(); s.Jobs != 6 || s.Misses != 2 || s.Hits != 4 {
		t.Errorf("first batch stats = %+v", s)
	}

	// A second identical batch is served entirely from the cache.
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 2 {
		t.Errorf("second batch re-executed: %d total runs", got)
	}
	if s := e.Stats(); s.Jobs != 12 || s.Misses != 2 || s.Hits != 10 {
		t.Errorf("cumulative stats = %+v", s)
	}

	// DisableCache runs every duplicate.
	raw := New(Options{Parallelism: 2, DisableCache: true})
	var rawRuns atomic.Int64
	raw.runJob = func(Job, sim.Inputs) (sim.Result, sim.ChurnStats, error) {
		rawRuns.Add(1)
		return sim.Result{}, sim.ChurnStats{}, nil
	}
	if _, err := raw.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := rawRuns.Load(); got != 6 {
		t.Errorf("DisableCache executed %d, want 6", got)
	}
}

// TestParallelWallClockSpeedup demonstrates the engine genuinely
// overlaps jobs: 8 blocking jobs at parallelism 4 must finish at least
// 2x faster than at parallelism 1. Blocking (rather than CPU-bound)
// jobs keep the check meaningful on single-core CI hosts; the
// BenchmarkSweepEngine numbers in EXPERIMENTS.md cover the CPU-bound
// case on real simulations.
func TestParallelWallClockSpeedup(t *testing.T) {
	const n, delay = 8, 30 * time.Millisecond
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i].Config.Seed = int64(i)
	}
	elapsed := func(parallelism int) time.Duration {
		e := New(Options{Parallelism: parallelism, DisableCache: true})
		e.runJob = func(Job, sim.Inputs) (sim.Result, sim.ChurnStats, error) {
			time.Sleep(delay)
			return sim.Result{}, sim.ChurnStats{}, nil
		}
		start := time.Now()
		if _, err := e.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := elapsed(1)   // ~ n * delay
	parallel := elapsed(4) // ~ n/4 * delay
	if parallel*2 > serial {
		t.Errorf("parallelism 4 took %v vs %v serial; want at least 2x speedup", parallel, serial)
	}
}

func TestContextCancellation(t *testing.T) {
	const n = 8
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i].Config.Seed = int64(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := New(Options{Parallelism: 1, DisableCache: true})
	blocked := make(chan struct{})
	e.runJob = func(j Job, _ sim.Inputs) (sim.Result, sim.ChurnStats, error) {
		if j.Config.Seed == 0 {
			close(blocked)
			<-ctx.Done() // first job straddles the cancellation
		}
		return sim.Result{Instructions: 1}, sim.ChurnStats{}, nil
	}
	go func() {
		<-blocked
		cancel()
	}()
	results, err := e.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	// The in-flight job completed; everything queued behind it was
	// cancelled without running.
	if results[0].Err != nil {
		t.Errorf("in-flight job reported %v", results[0].Err)
	}
	for i := 1; i < n; i++ {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Errorf("job %d error = %v, want context.Canceled", i, results[i].Err)
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i].Config.Seed = int64(i)
		jobs[i].Config.Scheme = mmu.Anchor
	}
	e := New(Options{Parallelism: 2, DisableCache: true})
	e.runJob = func(j Job, _ sim.Inputs) (sim.Result, sim.ChurnStats, error) {
		if j.Config.Seed == 2 {
			panic("boom")
		}
		return sim.Result{Instructions: 9}, sim.ChurnStats{}, nil
	}
	results, err := e.Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("sweep with a panicking job returned nil error")
	}
	for _, needle := range []string{"panic", "boom", "seed=2", "anchor"} {
		if !strings.Contains(err.Error(), needle) {
			t.Errorf("aggregate error %q does not identify the job (%q missing)", err, needle)
		}
	}
	for i, r := range results {
		if i == 2 {
			if r.Err == nil {
				t.Error("panicking job has nil Err")
			}
			continue
		}
		if r.Err != nil || r.Res.Instructions != 9 {
			t.Errorf("job %d did not survive the neighbour's panic: %+v", i, r)
		}
	}
	// A panic is not cached: a retry re-executes it.
	recovered := false
	e.runJob = func(j Job, _ sim.Inputs) (sim.Result, sim.ChurnStats, error) {
		if j.Config.Seed == 2 {
			recovered = true
		}
		return sim.Result{Instructions: 9}, sim.ChurnStats{}, nil
	}
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Error("failed job was not retried on the next batch")
	}
}

func TestErrorAggregation(t *testing.T) {
	jobs := make([]Job, 3)
	for i := range jobs {
		jobs[i].Config.Seed = int64(i)
	}
	e := New(Options{Parallelism: 2, DisableCache: true})
	e.runJob = func(j Job, _ sim.Inputs) (sim.Result, sim.ChurnStats, error) {
		if j.Config.Seed > 0 {
			return sim.Result{}, sim.ChurnStats{}, fmt.Errorf("cell broke")
		}
		return sim.Result{}, sim.ChurnStats{}, nil
	}
	_, err := e.Run(context.Background(), jobs)
	if err == nil || !strings.Contains(err.Error(), "2 of 3 jobs failed") {
		t.Errorf("aggregate error = %v", err)
	}
}

func TestProgressReporting(t *testing.T) {
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i].Config.Seed = int64(i % 3) // includes in-batch duplicates
	}
	var calls []int
	e := New(Options{
		Parallelism: 1,
		Progress: func(done, total int, _ Job) {
			if total != 5 {
				t.Errorf("total = %d, want 5", total)
			}
			calls = append(calls, done)
		},
	})
	e.runJob = func(Job, sim.Inputs) (sim.Result, sim.ChurnStats, error) {
		return sim.Result{}, sim.ChurnStats{}, nil
	}
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 5 || calls[len(calls)-1] != 5 {
		t.Errorf("progress calls = %v, want 5 calls ending at 5", calls)
	}
}

// TestStaticIdealMatchesSerial checks the engine-routed static ideal
// against sim.RunStaticIdeal, and that a repeat is fully cache-served.
func TestStaticIdealMatchesSerial(t *testing.T) {
	spec, err := workload.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Scheme:         mmu.Anchor,
		Workload:       spec,
		Scenario:       mapping.Medium,
		FootprintPages: 1 << 12,
		Accesses:       10_000,
		Seed:           7,
	}
	wantBest, wantAll, err := sim.RunStaticIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Parallelism: 8})
	gotBest, gotAll, err := StaticIdeal(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantBest, gotBest) {
		t.Errorf("best run differs:\n%+v\nvs\n%+v", wantBest, gotBest)
	}
	if !reflect.DeepEqual(wantAll, gotAll) {
		t.Error("per-distance results differ from the serial path")
	}
	before := e.Stats()
	if _, _, err := StaticIdeal(context.Background(), e, cfg); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Misses != before.Misses || after.Hits != before.Hits+len(wantAll) {
		t.Errorf("repeat probes not cache-served: before %+v after %+v", before, after)
	}
	if _, _, err := StaticIdeal(context.Background(), e, sim.Config{Scheme: mmu.Base}); err == nil {
		t.Error("static ideal accepted a non-anchor scheme")
	}
}
