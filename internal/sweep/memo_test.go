package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/sim"
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

// countingGenerator wraps the real generator, counting calls per spec.
type countingGenerator struct {
	mu    sync.Mutex
	calls map[sim.MappingSpec]int
}

func (g *countingGenerator) generate(s sim.MappingSpec) (mem.ChunkList, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[sim.MappingSpec]int)
	}
	g.calls[s]++
	g.mu.Unlock()
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
	e.generate = g.generate
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
		res, churn, err := execute(j, sim.MappingSpec.Generate)
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
	e.generate = func(s sim.MappingSpec) (mem.ChunkList, error) {
		cl, err := s.Generate()
		mu.Lock()
		shared = append(shared, cl)
		copies = append(copies, slices.Clone(cl))
		mu.Unlock()
		return cl, err
	}
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
			e.generate = func(s sim.MappingSpec) (mem.ChunkList, error) {
				if s != bad {
					return s.Generate()
				}
				calls.Add(1)
				if tc.fail != nil {
					tc.fail()
				}
				return nil, errDown
			}
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
	e.generate = func(s sim.MappingSpec) (mem.ChunkList, error) {
		cl, err := s.Generate()
		if err != nil {
			return nil, err
		}
		own := slices.Clone(cl)
		runtime.SetFinalizer(&own[0], func(*mem.Chunk) { freed.Store(true) })
		return own, nil
	}
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
