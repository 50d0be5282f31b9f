package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/trace"
)

// memoJobs is a batch in which many jobs share each mapping: every scheme
// on each workload × scenario, plus a fixed distance, a multi-region
// install and a churn job on the first mapping.
func memoJobs(t testing.TB) []Job {
	spec := smallSpec(t)
	spec.Schemes = mmu.All()
	jobs := spec.Jobs()
	anchor := jobs[0].Config
	anchor.Scheme = mmu.Anchor
	fixed, regions := anchor, anchor
	fixed.FixedDistance = 16
	regions.MultiRegionAnchors = true
	return append(jobs,
		Job{Config: fixed},
		Job{Config: regions},
		Job{Config: anchor, ChurnIntervalInstructions: 5_000, ChurnPages: 64},
	)
}

// mappingsOf is the set of distinct mappings a batch installs.
func mappingsOf(jobs []Job) map[sim.MappingSpec]bool {
	specs := make(map[sim.MappingSpec]bool)
	for _, j := range jobs {
		specs[sim.MappingOf(j.Config)] = true
	}
	return specs
}

// mappingInputs is a sim.Inputs drawing mappings from a function,
// generating traces and allocating page tables.
type mappingInputs func(sim.MappingSpec) (mem.ChunkList, error)

func (f mappingInputs) Mapping(s sim.MappingSpec) (mem.ChunkList, error) { return f(s) }
func (mappingInputs) Trace(s sim.TraceSpec) trace.Source                 { return s.Generate() }
func (mappingInputs) Install(s sim.InstallSpec, cl mem.ChunkList) (*osmem.Process, error) {
	return sim.Generated.Install(s, cl)
}
func (mappingInputs) Release(p *osmem.Process) { sim.Generated.Release(p) }

// countingGenerator wraps the real generator, counting mapping calls per
// spec and trace calls per key. onTrace, when set, runs before each
// trace is generated.
type countingGenerator struct {
	mu      sync.Mutex
	calls   map[sim.MappingSpec]int
	traces  map[sim.TraceKey]int
	onTrace func(sim.TraceSpec)
}

func (g *countingGenerator) Mapping(s sim.MappingSpec) (mem.ChunkList, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[sim.MappingSpec]int)
	}
	g.calls[s]++
	g.mu.Unlock()
	return s.Generate()
}

func (g *countingGenerator) Trace(s sim.TraceSpec) trace.Source {
	g.mu.Lock()
	if g.traces == nil {
		g.traces = make(map[sim.TraceKey]int)
	}
	g.traces[s.Key()]++
	g.mu.Unlock()
	if g.onTrace != nil {
		g.onTrace(s)
	}
	return s.Generate()
}

func TestMappingMemoGeneratesOncePerBatch(t *testing.T) {
	jobs := memoJobs(t)
	specs := mappingsOf(jobs)
	if len(specs) >= len(jobs)/4 {
		t.Fatalf("%d mappings for %d jobs: the batch shares too little to test", len(specs), len(jobs))
	}
	e := New(Options{Parallelism: 2, DisableCache: true})
	var g countingGenerator
	e.inputs = &g
	for batch := 1; batch <= 2; batch++ {
		if _, err := e.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		if len(g.calls) != len(specs) {
			t.Fatalf("batch %d: generated %d distinct mappings, want %d", batch, len(g.calls), len(specs))
		}
		// Each batch generates each mapping once; the memo is dropped
		// between batches.
		for s, n := range g.calls {
			if n != batch {
				t.Errorf("batch %d: mapping %+v generated %d times in total, want %d", batch, s, n, batch)
			}
		}
	}
}

// canonical is the byte form results are compared in.
func canonical(t *testing.T, res sim.Result, churn sim.ChurnStats) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Res   sim.Result
		Churn sim.ChurnStats
	}{res, churn})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestMappingMemoMatchesDirectRuns(t *testing.T) {
	jobs := memoJobs(t)
	want := make([]string, len(jobs))
	for i, j := range jobs {
		res, churn, err := execute(j, sim.Generated)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = canonical(t, res, churn)
	}
	for _, p := range []int{1, 2} {
		rs, err := New(Options{Parallelism: p, DisableCache: true}).Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if got := canonical(t, r.Res, r.Churn); got != want[i] {
				t.Errorf("parallelism %d: job %v differs from its direct run", p, r.Job)
			}
		}
	}
}

func TestMappingMemoLeavesChunkListUnchanged(t *testing.T) {
	jobs := memoJobs(t)
	var mu sync.Mutex
	var shared, copies []mem.ChunkList
	e := New(Options{Parallelism: 2, DisableCache: true})
	e.inputs = mappingInputs(func(s sim.MappingSpec) (mem.ChunkList, error) {
		cl, err := s.Generate()
		mu.Lock()
		shared = append(shared, cl)
		copies = append(copies, slices.Clone(cl))
		mu.Unlock()
		return cl, err
	})
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(shared) == 0 {
		t.Fatal("no mapping generated")
	}
	for i := range shared {
		if !slices.Equal(shared[i], copies[i]) {
			t.Errorf("shared chunk list %d was modified by the batch", i)
		}
	}
}

// TestMappingMemoKeepsExactCapacity: the memo keeps an exact-length copy
// of a list the generator grew by appending, with the same chunks.
func TestMappingMemoKeepsExactCapacity(t *testing.T) {
	spec := sim.MappingOf(memoJobs(t)[0].Config)
	want, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	memo := &batchMemo{gen: mappingInputs(func(s sim.MappingSpec) (mem.ChunkList, error) {
		cl, err := s.Generate()
		return append(cl, make(mem.ChunkList, len(cl))...)[:len(cl)], err
	}), maps: make(map[sim.MappingSpec]*mappingEntry)}
	got, err := memo.Mapping(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cap(got) != len(got) || !slices.Equal(got, want) {
		t.Errorf("memo keeps %d chunks in a list of capacity %d (equal to the generator's: %t)", len(got), cap(got), slices.Equal(got, want))
	}
}

func TestMappingMemoFailureReachesEverySharingJob(t *testing.T) {
	jobs := memoJobs(t)
	bad := sim.MappingOf(jobs[0].Config)
	errDown := errors.New("generator down")
	for _, tc := range []struct {
		name string
		fail func()
		want string
	}{
		{"error", nil, "sim: generating mapping: generator down"},
		{"panic", func() { panic("generator crashed") }, "panic: generator crashed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			e := New(Options{Parallelism: 2, DisableCache: true, Retry: RetryPolicy{MaxAttempts: 2}})
			e.inputs = mappingInputs(func(s sim.MappingSpec) (mem.ChunkList, error) {
				if s != bad {
					return s.Generate()
				}
				calls.Add(1)
				if tc.fail != nil {
					tc.fail()
				}
				return nil, errDown
			})
			rs, err := e.Run(context.Background(), jobs)
			if err == nil {
				t.Fatal("batch with a failing mapping reported success")
			}
			sharing := 0
			for _, r := range rs {
				if sim.MappingOf(r.Job.Config) != bad {
					if r.Err != nil {
						t.Errorf("job %v on a good mapping failed: %v", r.Job, r.Err)
					}
					continue
				}
				sharing++
				if r.Err == nil || !strings.Contains(r.Err.Error(), tc.want) {
					t.Errorf("job %v: err = %v, want one containing %q", r.Job, r.Err, tc.want)
				}
				if tc.fail == nil && !errors.Is(r.Err, errDown) {
					t.Errorf("job %v: err %v does not wrap the generator's error", r.Job, r.Err)
				}
			}
			if sharing < 2 {
				t.Fatalf("only %d jobs share the failing mapping", sharing)
			}
			if n := calls.Load(); n != 1 {
				t.Errorf("failing mapping generated %d times, want 1", n)
			}
		})
	}
}

func TestMappingMemoNotRetained(t *testing.T) {
	var freed atomic.Bool
	e := New(Options{Parallelism: 2, DisableCache: true})
	e.inputs = mappingInputs(func(s sim.MappingSpec) (mem.ChunkList, error) {
		cl, err := s.Generate()
		if err != nil {
			return nil, err
		}
		own := slices.Clone(cl)
		runtime.SetFinalizer(&own[0], func(*mem.Chunk) { freed.Store(true) })
		return own, nil
	})
	spec := smallSpec(t)
	spec.Workloads = spec.Workloads[:1]
	spec.Scenarios = spec.Scenarios[:1]
	rs, err := e.Run(context.Background(), spec.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !freed.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("the batch's chunk list is still reachable after Run returned")
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(rs)
	runtime.KeepAlive(e)
}

// traceJobs is memoJobs plus two jobs whose traces no other job draws: a
// shorter run and another seed.
func traceJobs(t testing.TB) []Job {
	jobs := memoJobs(t)
	short, seeded := jobs[0].Config, jobs[0].Config
	short.Accesses = 4_000
	seeded.Seed++
	return append(jobs, Job{Config: short}, Job{Config: seeded})
}

// traceUses counts the jobs of a batch drawing each trace.
func traceUses(jobs []Job) map[sim.TraceKey]int {
	uses := make(map[sim.TraceKey]int)
	for _, j := range jobs {
		uses[sim.TraceOf(j.Config, 0).Key()]++
	}
	return uses
}

// tasksOf is a batch's tasks as planMemo sees them.
func tasksOf(jobs []Job) []*task {
	tasks := make([]*task, len(jobs))
	for i, j := range jobs {
		tasks[i] = &task{job: j}
	}
	return tasks
}

func TestTraceMemoGeneratesSharedTracesOnce(t *testing.T) {
	jobs := traceJobs(t)
	uses := traceUses(jobs)
	shared := 0
	for _, n := range uses {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 || shared == len(uses) {
		t.Fatalf("%d of %d traces shared: the batch must mix shared and single-use traces", shared, len(uses))
	}

	// The plan gives an entry, and a reservation, to exactly the shared
	// traces: a single-use trace streams and is never collected.
	e := New(Options{Parallelism: 2, DisableCache: true})
	m := e.planMemo(tasksOf(jobs))
	var want int64
	for k, n := range uses {
		if (m.traces[k] != nil) != (n > 1) {
			t.Errorf("trace %+v drawn by %d jobs: memoized = %t", k, n, m.traces[k] != nil)
		}
		if n > 1 {
			want += int64(k.Records)
		}
	}
	if m.reserved != want || e.traceLive.Load() != want {
		t.Errorf("plan reserved %d records (engine holds %d), want %d", m.reserved, e.traceLive.Load(), want)
	}
	e.traceLive.Add(-m.reserved)

	var g countingGenerator
	e.inputs = &g
	for batch := 1; batch <= 2; batch++ {
		if _, err := e.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		// Each batch generates each trace once; the memo is dropped
		// between batches, and with it the reservation.
		for k, n := range uses {
			if got := g.traces[k]; got != batch {
				t.Errorf("batch %d: trace %+v drawn by %d jobs generated %d times in total, want %d", batch, k, n, got, batch)
			}
		}
		if live := e.traceLive.Load(); live != 0 {
			t.Errorf("batch %d: %d records still reserved after Run returned", batch, live)
		}
	}
}

func TestTraceMemoMatchesDirectRuns(t *testing.T) {
	jobs := traceJobs(t)
	want := make([]string, len(jobs))
	for i, j := range jobs {
		var res sim.Result
		var churn sim.ChurnStats
		var err error
		if j.ChurnPages != 0 {
			res, churn, err = sim.RunWithChurn(sim.ChurnConfig{
				Config:                    j.Config,
				ChurnIntervalInstructions: j.ChurnIntervalInstructions,
				ChurnPages:                j.ChurnPages,
			})
		} else {
			res, err = sim.Run(j.Config)
		}
		if err != nil {
			t.Fatal(err)
		}
		want[i] = canonical(t, res, churn)
	}
	// A zero limit streams every trace, shared or not.
	for _, limit := range []int64{traceMemoBytes / recordBytes, 0} {
		for _, p := range []int{1, 2} {
			e := New(Options{Parallelism: p, DisableCache: true})
			e.traceLimit = limit
			var g countingGenerator
			e.inputs = &g
			rs, err := e.Run(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rs {
				if got := canonical(t, r.Res, r.Churn); got != want[i] {
					t.Errorf("limit %d, parallelism %d: job %v differs from its direct run", limit, p, r.Job)
				}
			}
			if limit == 0 && !maps.Equal(g.traces, traceUses(jobs)) {
				t.Errorf("limit 0: traces generated %v times, want once per job: %v", g.traces, traceUses(jobs))
			}
		}
	}
}

func TestTraceMemoPanicReachesEverySharingJob(t *testing.T) {
	jobs := traceJobs(t)
	bad := sim.TraceOf(jobs[0].Config, 0).Key()
	g := countingGenerator{onTrace: func(s sim.TraceSpec) {
		if s.Key() == bad {
			panic("generator crashed")
		}
	}}
	e := New(Options{Parallelism: 2, DisableCache: true, Retry: RetryPolicy{MaxAttempts: 2}})
	e.inputs = &g
	rs, err := e.Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("batch with a crashing trace generator reported success")
	}
	sharing := 0
	for _, r := range rs {
		if sim.TraceOf(r.Job.Config, 0).Key() != bad {
			if r.Err != nil {
				t.Errorf("job %v on a good trace failed: %v", r.Job, r.Err)
			}
			continue
		}
		sharing++
		if r.Err == nil || !strings.Contains(r.Err.Error(), "panic: generator crashed") {
			t.Errorf("job %v: err = %v, want the generator's panic", r.Job, r.Err)
		}
	}
	if sharing < 2 {
		t.Fatalf("only %d jobs share the crashing trace", sharing)
	}
	if n := g.traces[bad]; n != 1 {
		t.Errorf("crashing trace generated %d times, want 1", n)
	}
}

func TestTraceMemoRetryReplaysRecords(t *testing.T) {
	jobs := traceJobs(t)
	direct, err := New(Options{Parallelism: 2, DisableCache: true}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Every job's first attempt runs to the end, drawing its trace, and
	// then fails.
	var mu sync.Mutex
	failed := make(map[string]bool)
	e := New(Options{Parallelism: 2, DisableCache: true, Retry: RetryPolicy{MaxAttempts: 2},
		Sleep: func(context.Context, time.Duration) bool { return true }})
	e.runJob = func(j Job, in sim.Inputs) (sim.Result, sim.ChurnStats, error) {
		res, churn, err := execute(j, in)
		mu.Lock()
		first := !failed[j.Key()]
		failed[j.Key()] = true
		mu.Unlock()
		if first {
			return sim.Result{}, sim.ChurnStats{}, errors.New("transient")
		}
		return res, churn, err
	}
	var g countingGenerator
	e.inputs = &g
	rs, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().Retries; n != len(jobs) {
		t.Fatalf("%d retries, want one per job (%d)", n, len(jobs))
	}
	for i, r := range rs {
		if canonical(t, r.Res, r.Churn) != canonical(t, direct[i].Res, direct[i].Churn) {
			t.Errorf("retried job %v differs from its run without a retry", r.Job)
		}
	}
	for k, n := range traceUses(jobs) {
		want := 1
		if n == 1 {
			want = 2 // a streamed trace is generated again for the retry
		}
		if got := g.traces[k]; got != want {
			t.Errorf("trace %+v drawn by %d jobs generated %d times, want %d", k, n, got, want)
		}
	}
}

func TestTraceMemoBudgetIsEngineWide(t *testing.T) {
	// Two batches on one engine, each sharing one trace of its own seed,
	// with room for one trace only. Every job waits until both batches
	// are running, so both plans are made while neither batch has
	// returned its reservation.
	spec := smallSpec(t)
	spec.Workloads = spec.Workloads[:1]
	batches := make([][]Job, 2)
	for b := range batches {
		spec.Base.Seed = int64(7 + b)
		batches[b] = spec.Jobs()
	}
	records := sim.TraceOf(batches[0][0].Config, 0).Records
	e := New(Options{Parallelism: 2, DisableCache: true})
	e.traceLimit = int64(records)

	var arrived [2]sync.Once
	var both sync.WaitGroup
	both.Add(2)
	ready := make(chan struct{})
	go func() { both.Wait(); close(ready) }()
	e.runJob = func(j Job, in sim.Inputs) (sim.Result, sim.ChurnStats, error) {
		arrived[j.Config.Seed-7].Do(both.Done)
		select {
		case <-ready:
		case <-time.After(10 * time.Second):
			return sim.Result{}, sim.ChurnStats{}, errors.New("the other batch never started")
		}
		return execute(j, in)
	}
	var maxLive atomic.Int64
	g := countingGenerator{onTrace: func(sim.TraceSpec) {
		live := e.traceLive.Load()
		for m := maxLive.Load(); live > m && !maxLive.CompareAndSwap(m, live); m = maxLive.Load() {
		}
	}}
	e.inputs = &g

	var wg sync.WaitGroup
	errs := make([]error, len(batches))
	for b, jobs := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[b] = e.RunWithProgress(context.Background(), jobs, nil)
		}()
	}
	wg.Wait()
	for b, err := range errs {
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	if m := maxLive.Load(); m != int64(records) {
		t.Errorf("the batches held at most %d records, want exactly the limit %d", m, records)
	}
	if live := e.traceLive.Load(); live != 0 {
		t.Errorf("%d records still reserved after both batches returned", live)
	}
	// One batch memoized its trace; the other found the budget spent
	// and streamed once per job.
	var counts []int
	for _, jobs := range batches {
		counts = append(counts, g.traces[sim.TraceOf(jobs[0].Config, 0).Key()])
	}
	slices.Sort(counts)
	if n := len(batches[0]); !slices.Equal(counts, []int{1, n}) {
		t.Errorf("the two shared traces were generated %v times, want once and %d times", counts, n)
	}
}

// TestTraceMemoStreamsOtherBase shifts one scenario's mappings up by
// 2 MiB of virtual pages, so jobs sharing a trace key draw it over two
// bases. The memo's entry serves the base it was generated over, and
// draws over the other base stream: every result matches a direct run
// over the same mappings.
func TestTraceMemoStreamsOtherBase(t *testing.T) {
	jobs := memoJobs(t)
	shifted := jobs[0].Config.Scenario
	in := mappingInputs(func(s sim.MappingSpec) (mem.ChunkList, error) {
		cl, err := s.Generate()
		if err != nil || s.Scenario != shifted {
			return cl, err
		}
		cl = slices.Clone(cl)
		for i := range cl {
			cl[i].StartVPN += mem.VPN(mem.PagesPer2M)
		}
		return cl, nil
	})
	bases := make(map[sim.TraceKey]map[mem.VPN]bool)
	for _, j := range jobs {
		cl, err := in.Mapping(sim.MappingOf(j.Config))
		if err != nil {
			t.Fatal(err)
		}
		k := sim.TraceOf(j.Config, 0).Key()
		if bases[k] == nil {
			bases[k] = make(map[mem.VPN]bool)
		}
		bases[k][cl[0].StartVPN] = true
	}
	for k, b := range bases {
		if len(b) != 2 {
			t.Fatalf("trace %+v is drawn over %d bases, want 2", k, len(b))
		}
	}
	e := New(Options{Parallelism: 2, DisableCache: true})
	e.inputs = in
	rs, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		res, churn, err := execute(r.Job, in)
		if err != nil {
			t.Fatal(err)
		}
		if canonical(t, r.Res, r.Churn) != canonical(t, res, churn) {
			t.Errorf("job %v differs from its direct run", r.Job)
		}
	}
}
