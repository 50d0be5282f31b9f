package sweep

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/trace"
)

// crashingTraces generates every mapping and trace, except that the trace
// of the seed crash panics in ReadBatch once after records have been
// read.
type crashingTraces struct {
	crash int64
	after int
}

func (c crashingTraces) Mapping(s sim.MappingSpec) (mem.ChunkList, error) { return s.Generate() }

func (c crashingTraces) Trace(s sim.TraceSpec) trace.Source {
	if s.Seed != c.crash {
		return s.Generate()
	}
	return &crashingSource{BatchSource: s.Generate(), left: c.after}
}

type crashingSource struct {
	trace.BatchSource
	left int
}

func (c *crashingSource) ReadBatch(dst []trace.Record) int {
	if c.left == 0 {
		panic("trace source crashed")
	}
	n := c.BatchSource.ReadBatch(dst[:min(len(dst), c.left)])
	c.left -= n
	return n
}

// TestReadAheadPanicIsJobError: a trace source that panics mid-stream on
// the read-ahead goroutine fails only its own job, with the panic's
// value in the error, while its siblings succeed; no goroutine outlives
// the batch.
func TestReadAheadPanicIsJobError(t *testing.T) {
	cfg := smallSpec(t).Jobs()[0].Config
	cfg.Scheme = mmu.Anchor
	cfg.Accesses = 20_000 // six batches: the trace is read ahead
	var jobs []Job
	for seed := int64(1); seed <= 4; seed++ {
		c := cfg
		c.Seed = seed
		jobs = append(jobs, Job{Config: c})
	}
	baseline := runtime.NumGoroutine()
	e := New(Options{Parallelism: 2})
	e.inputs = crashingTraces{crash: 3, after: 9_000}
	rs, err := e.Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("batch with a crashing trace source reported success")
	}
	for _, r := range rs {
		switch {
		case r.Job.Config.Seed != 3 && r.Err != nil:
			t.Errorf("job %v failed: %v", r.Job, r.Err)
		case r.Job.Config.Seed == 3 && (r.Err == nil || !strings.Contains(r.Err.Error(), "panic: trace source crashed")):
			t.Errorf("job %v: err = %v, want the source's panic", r.Job, r.Err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after the batch, want at most %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}
