// Command tlbbench is the simulator's benchmark. One invocation runs one
// workload and prints, as the last line of standard output, a JSON
// object with the correctness verdict and the metrics:
//
//	bash cmd/tlbbench/run.sh --workload paper-grid --seed 42 --seconds 30 --trace 0
//
// The workloads are paper-grid (report.Run("all") over gups, omnetpp,
// canneal and mcf through one two-wide sweep engine), trace-replay (one
// recorded mcf trace replayed through hybridtlb.Simulate once per scheme)
// and remap-churn (the -exp churn jobs with a short churn interval and
// re-selection epoch). RATIONALE.md records why each exists and which
// layers each loads.
//
// With --trace 0 the run repeats the workload for five sixths of
// --seconds, then spends the rest on set-up passes that re-run every
// distinct config at one access, and reports the end-to-end metrics as
// medians. With --trace 1 it runs the workload once, re-drives every
// simulation through the layers' public functions under spans, requires
// the re-driven counters to equal the untraced results, and reports the
// per-layer ledger; the spans are written to the work directory.
//
// Every output is hashed. At the default seed the digests must match
// digests.json; at any seed they are printed ("digest ..." lines) so two
// builds can be compared, and every repetition must reproduce the first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"hybridtlb/internal/mmu"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tlbbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: paper-grid, trace-replay or remap-churn")
		seed    = flag.Int64("seed", defaultSeed, "input seed; digests.json records the outputs at the default")
		seconds = flag.Int("seconds", 30, "how long the timed repetitions run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced per-layer ledger")
		workDir = flag.String("work-dir", filepath.Join(".bench_build", "work"), "directory for generated inputs and the span file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1, got %d and %d", *seconds, *traced)
	}
	want, err := expectedDigests(*name, *seed)
	if err != nil {
		return err
	}
	in := newInputs(*name, *seed, benchScale, *workDir)
	if err := in.generate(); err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	defer in.remove()
	var v verdict
	if *traced == 1 {
		v, err = tracedRun(w, in, want, *workDir)
	} else {
		v, err = measure(w, in, want, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// verdict is the result line: whether every checked output was right,
// how many simulations ran and how many failed, and the metrics.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The set-up passes get the last setupShare-th of the budget and at least
// minSetupPasses passes: a paper-grid pass (560 set-ups) takes seconds, a
// trace-replay pass a tenth of one, and the median needs many of the
// cheap ones to hold still.
const (
	setupShare     = 6
	minSetupPasses = 2
)

// measure repeats the workload until its share of the budget is spent
// (at least once), then runs set-up passes until the rest is, and
// reports the end-to-end metrics as medians over repetitions and passes.
func measure(w workloadDef, in inputs, want map[string]string, budget time.Duration) (verdict, error) {
	var v verdict
	var walls, rates, peaks, anchorS, setups []float64
	setupBudget := budget / setupShare
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < budget-setupBudget; rep++ {
		// Returning the previous repetition's memory to the OS makes each
		// repetition start from the same state, so its peak is its own.
		debug.FreeOSMemory()
		stop := watchMemory()
		r := w.rep(in)
		peaks = append(peaks, stop())
		if rep == 0 {
			printDigests(in, r.digests)
		}
		fmt.Fprintf(os.Stderr, "tlbbench: %s repetition %d: %.3f s, peak %.1f MiB\n", in.workload, rep+1, r.wall.Seconds(), peaks[rep])
		v.Attempted += r.attempted
		v.Failed += failedSims(want, r)
		if want == nil {
			// No committed digests at this seed: later repetitions must
			// reproduce this one.
			want = r.digests
		}
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(r.accesses())/r.wall.Seconds())
		anchorS = append(anchorS, r.schemeSeconds(mmu.Anchor))
	}
	setupStart := time.Now()
	for p := 0; p < minSetupPasses || time.Since(setupStart) < setupBudget; p++ {
		runtime.GC()
		sec, err := setupSeconds(w, in)
		if err != nil {
			return v, fmt.Errorf("set-up pass: %w", err)
		}
		setups = append(setups, sec)
	}
	fmt.Fprintf(os.Stderr, "tlbbench: %s set-up: %d passes, median %.4f s\n", in.workload, len(setups), median(setups))
	vals := map[string]float64{
		"wall_s":         median(walls),
		"accesses_per_s": median(rates),
		"setup_s":        median(setups),
		"peak_rss_mib":   median(peaks),
		"run_s.anchor":   median(anchorS),
	}
	v.Correct = v.Failed == 0
	v.Metrics = collect(endToEndDefs(), vals)
	return v, nil
}

// watchMemory samples the process's resident memory as the Go runtime
// accounts it — everything it has mapped minus what it has returned to
// the OS — every millisecond until the returned stop is called, which
// reports the peak in MiB. Unlike the kernel's lifetime peak RSS, it
// gives each repetition its own sample.
func watchMemory() (stop func() float64) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	resident := func() uint64 {
		metrics.Read(samples)
		return samples[0].Value.Uint64() - samples[1].Value.Uint64()
	}
	var peak uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, resident())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(max(peak, resident())) / mib
	}
}
