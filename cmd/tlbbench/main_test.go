package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hybridtlb/internal/mmu"
	"hybridtlb/internal/sim"
	"hybridtlb/internal/sweep"
)

// tinyScale keeps the self-tests fast; remap-churn still crosses churn
// intervals and a re-selection epoch.
var tinyScale = scale{gridAccesses: 100, replayAccesses: 2000, churnAccesses: 30_000}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		xs      []float64
		p, want float64
	}{
		{xs, 50, 3},
		{xs, 0, 1},
		{xs, 100, 5},
		{xs, 25, 2},
		{xs, 98, 4.92},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{7}, 98, 7},
		{nil, 50, 0},
	} {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestSpanTotals(t *testing.T) {
	tr := newTracer()
	root := tr.begin("sim")
	inner := tr.begin("mmu.translate")
	tr.end(inner)
	tr.end(root)
	if tr.spans[0].Parent != -1 || tr.spans[1].Parent != root || tr.spans[1].End < tr.spans[1].Start {
		t.Fatalf("nesting recorded as %+v", tr.spans)
	}

	spans := []span{
		{Name: "sim", Parent: -1, Start: 0, End: 100},
		{Name: "mapping.generate", Parent: 0, Start: 0, End: 30},
		{Name: "mmu.translate", Parent: 0, Start: 40, End: 90},
		{Name: "osmem.reselect", Parent: 2, Start: 50, End: 60},
	}
	childNS, self := spanTotals(spans)
	if childNS[0] != 80 || childNS[2] != 10 {
		t.Errorf("child time = %v, want 80 under sim and 10 under mmu.translate", childNS)
	}
	for name, want := range map[string]float64{"sim": 20e-9, "mapping.generate": 30e-9, "mmu.translate": 40e-9, "osmem.reselect": 10e-9} {
		if math.Abs(self[name]-want) > 1e-15 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
}

func TestSpanCoverage(t *testing.T) {
	spans := []span{
		{Name: "sim", Parent: -1, Start: 0, End: 100},
		{Name: "mmu.translate", Parent: 0, Start: 0, End: 95},
		{Name: "report", Parent: -1, Start: 100, End: 120},
		{Name: "report.fig1", Parent: 2, Start: 100, End: 120},
	}
	childNS, _ := spanTotals(spans)
	for _, c := range []struct {
		why      string
		untraced float64
		want     float64
	}{
		{"the re-drive copies the simulation", 100e-9, 115.0 / 120},
		{"the simulation does work the re-drive does not copy", 200e-9, 115.0 / 220},
		{"the re-drive is slower than the simulation", 50e-9, 1},
	} {
		if got := spanCoverage(spans, childNS, []float64{c.untraced}); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: coverage %v, want %v", c.why, got, c.want)
		}
	}
	if got := spanCoverage(spans, childNS, []float64{200e-9}); got >= 0.9 {
		t.Errorf("untraced time well above the spans gave coverage %v, want below 0.9", got)
	}
}

// TestSetupPass runs a set-up pass of the two cheap workloads (a
// paper-grid pass makes 560 set-ups): it times every simulation at one
// access and fails on none.
func TestSetupPass(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadDefs[1:] {
		in := newInputs(w.name, defaultSeed, tinyScale, dir)
		if err := in.generate(); err != nil {
			t.Fatal(err)
		}
		sec, err := setupSeconds(w, in)
		if err != nil || sec <= 0 {
			t.Errorf("%s: set-up pass gave %v s, error %v", w.name, sec, err)
		}
	}
}

func TestPerturbedResultFailsDigestCheck(t *testing.T) {
	in := newInputs("remap-churn", defaultSeed, tinyScale, t.TempDir())
	want := runRemapChurn(in)
	if bad := badOutputs(nil, want.digests); len(bad) != 0 {
		t.Fatalf("outputs recorded errors: %v", bad)
	}
	got := runRemapChurn(in)
	if bad := badOutputs(want.digests, got.digests); len(bad) != 0 {
		t.Fatalf("a repeated run changed outputs %v", bad)
	}

	jobs, err := churnJobs(in, tinyScale.churnAccesses)
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	r, c, err := sim.RunWithChurn(sim.ChurnConfig{Config: j.Config, ChurnIntervalInstructions: j.ChurnIntervalInstructions, ChurnPages: j.ChurnPages})
	if err != nil {
		t.Fatal(err)
	}
	name := churnOutputName(j)
	if d := digestOf(churnOutput{Result: r, Churn: c}); d != want.digests[name] {
		t.Fatalf("digest of a direct RunWithChurn differs from the workload's %s output", name)
	}
	r.Stats.Walks++
	got.digests[name] = digestOf(churnOutput{Result: r, Churn: c})
	if bad := badOutputs(want.digests, got.digests); len(bad) != 1 || bad[0] != name {
		t.Fatalf("bad outputs = %v, want [%s]", bad, name)
	}
	if n := failedSims(want.digests, got); n != 1 {
		t.Fatalf("failed simulations = %d, want 1", n)
	}
}

func TestPerturbedReplicaCounterFailsGuard(t *testing.T) {
	dir := t.TempDir()
	replay := newInputs("trace-replay", defaultSeed, tinyScale, dir)
	if err := replay.generate(); err != nil {
		t.Fatal(err)
	}
	replayAnchor, err := replayJob(replay, mmu.Anchor)
	if err != nil {
		t.Fatal(err)
	}
	churn := newInputs("remap-churn", defaultSeed, tinyScale, dir)
	jobs, err := churnJobs(churn, tinyScale.churnAccesses)
	if err != nil {
		t.Fatal(err)
	}
	anchorChurn := jobs[3]
	for _, tc := range []struct {
		name string
		in   inputs
		job  simJob
		key  string
	}{
		{"trace", replay, replayAnchor, "stats.misses"},
		{"churn", churn, simJob{Job: anchorChurn}, "churn.entry_shootdowns"},
		{"run", churn, simJob{Job: sweep.Job{Config: anchorChurn.Config}}, "stats.walks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := untraced(tc.job, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := redrive(newTracer(), tc.job)
			if err != nil {
				t.Fatal(err)
			}
			if tc.job.tracePath == "" && rp.reselects == 0 {
				t.Fatalf("the re-drive crossed no re-selection epoch")
			}
			if tc.job.churn() && rp.churn.Operations == 0 {
				t.Fatalf("the re-drive made no churn operation")
			}
			got := rp.counters(tc.job)
			if err := guard(want, got); err != nil {
				t.Fatalf("re-drive differs from the untraced run: %v", err)
			}
			got[tc.key]++
			if err := guard(want, got); err == nil {
				t.Fatalf("guard accepted a perturbed %s", tc.key)
			}
		})
	}
}

func TestSeedChangesTraceAndDigests(t *testing.T) {
	dir := t.TempDir()
	a := newInputs("trace-replay", 1, tinyScale, dir)
	b := newInputs("trace-replay", 2, tinyScale, dir)
	for _, in := range []inputs{a, b} {
		if err := in.generate(); err != nil {
			t.Fatal(err)
		}
	}
	ta, err := os.ReadFile(a.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := os.ReadFile(b.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ta, tb) {
		t.Fatal("seeds 1 and 2 recorded the same trace")
	}
	pairs := [][2]repResult{
		{runTraceReplay(a), runTraceReplay(b)},
		{runRemapChurn(newInputs("remap-churn", 1, tinyScale, dir)), runRemapChurn(newInputs("remap-churn", 2, tinyScale, dir))},
	}
	for _, p := range pairs {
		if bad := append(badOutputs(nil, p[0].digests), badOutputs(nil, p[1].digests)...); len(bad) != 0 {
			t.Fatalf("outputs recorded errors: %v", bad)
		}
		for name, d := range p[0].digests {
			if p[1].digests[name] == d {
				t.Errorf("output %s has the same digest under seeds 1 and 2", name)
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON holds the workloads and metrics the
// binary reports to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		kind string
		json []def
		code []metricDef
	}{
		{"end_to_end", spec.EndToEnd, endToEndDefs()},
		{"per_layer", spec.PerLayer, perLayerDefs()},
	} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the binary %d", c.kind, len(c.json), len(c.code))
		}
		for i, d := range c.code {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), binary %s (%s)", c.kind, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
