package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"hybridtlb/internal/mapping"
	"hybridtlb/internal/mem"
	"hybridtlb/internal/mmu"
	"hybridtlb/internal/osmem"
	"hybridtlb/internal/trace"
)

// producers counts the goroutines running a read-ahead producer.
func producers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "trace.(*ReadAhead).produce(")
}

// waitGoroutines waits until no read-ahead producer runs and no more than
// baseline goroutines do, and fails the test if that takes longer than a
// few seconds.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for producers() > 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d of them read-ahead producers, want at most %d and none",
				runtime.NumGoroutine(), producers(), baseline)
		}
		runtime.Gosched()
	}
}

// panickingMMU panics in TranslateBatch once left calls have run,
// counting the read-ahead producers alive when it does.
type panickingMMU struct {
	mmu.MMU
	left      int
	producers int
}

func (p *panickingMMU) TranslateBatch(vpns []mem.VPN) {
	if p.left == 0 {
		p.producers = producers()
		panic("mmu exploded")
	}
	p.left--
	p.MMU.TranslateBatch(vpns)
}

// TestReadAheadGoroutines: a run whose generated trace is read ahead has
// the producer goroutine running while it translates, and leaves the
// goroutine count at its baseline when it ends, normally or by a panic
// in the MMU. The trace is six batches long, and the producer runs at
// most one batch ahead, so it is alive during the first batch.
func TestReadAheadGoroutines(t *testing.T) {
	cfg := equivCfg(t, mmu.Anchor, mapping.Medium, "mcf")
	cfg.Accesses = 20_000
	baseline := runtime.NumGoroutine()

	during := 0
	cfg.Probe = func(ProbeSample) { during = max(during, producers()) }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if during != 1 {
		t.Errorf("%d read-ahead producers ran during the run, want 1", during)
	}
	waitGoroutines(t, baseline)

	cfg.Probe = nil
	var pm *panickingMMU
	exploding := func(m mmu.MMU, proc *osmem.Process, src trace.Source, cfg Config, churn *churner, res *Result) error {
		pm = &panickingMMU{MMU: m, left: 1}
		return drive(pm, proc, src, cfg, churn, res)
	}
	func() {
		defer func() {
			if p := recover(); p != "mmu exploded" || pm.producers != 1 {
				t.Errorf("recovered %v with %d producers running, want the MMU's panic with 1", p, pm.producers)
			}
		}()
		_, _, _ = run(cfg, Generated, nil, exploding)
		t.Error("the run returned despite the MMU's panic")
	}()
	waitGoroutines(t, baseline)
}

// countingSource streams n records over 100 pages from the default
// mapping base, through Next only.
type countingSource struct{ i, n int }

func (c *countingSource) Next() (trace.Record, bool) {
	if c.i == c.n {
		return trace.Record{}, false
	}
	c.i++
	return trace.Record{VPN: mapping.DefaultBaseVPN + mem.VPN(c.i%100), Instrs: 4}, true
}

// TestRunTraceAccessesDefault pins RunTrace's bound when Accesses is 0:
// the default 1,000,000 measured accesses after warmup, however long the
// trace.
func TestRunTraceAccessesDefault(t *testing.T) {
	cfg := smallCfg(mmu.Base, "gups", mapping.Low)
	cfg.Accesses, cfg.WarmupAccesses = 0, 1_000
	src := &countingSource{n: 1_200_000}
	res, err := RunTrace(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Accesses != 1_000_000 || src.i != 1_001_000 {
		t.Errorf("measured %d accesses of %d replayed, want 1000000 of 1001000", res.Stats.Accesses, src.i)
	}
}
