package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"hybridtlb/internal/mapping"
)

// fastOpts keeps matrix tests tractable: two contrasting benchmarks and
// short traces.
func fastOpts() Options {
	return Options{
		Accesses:  60_000,
		Seed:      7,
		Workloads: []string{"gups", "omnetpp"},
	}
}

func TestColumnsOrder(t *testing.T) {
	cols := Columns(false)
	want := []string{"base", "thp", "cluster", "cl.2mb", "rmm", "dynamic", "s.ideal"}
	if len(cols) != len(want) {
		t.Fatalf("got %d columns", len(cols))
	}
	for i, c := range cols {
		if c.Name != want[i] {
			t.Errorf("column %d = %s, want %s", i, c.Name, want[i])
		}
	}
	if got := Columns(true); len(got) != len(want)-1 {
		t.Error("SkipStaticIdeal did not drop a column")
	}
}

func TestMissesByScenarioShapes(t *testing.T) {
	opts := fastOpts()
	low, err := MissesByScenario(mapping.Low, opts)
	if err != nil {
		t.Fatal(err)
	}
	max, err := MissesByScenario(mapping.Max, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(low.Rows))
	}
	// Base column is 100% by construction.
	for _, r := range low.Rows {
		if r.Relative["base"] < 99.9 || r.Relative["base"] > 100.1 {
			t.Errorf("%s base relative = %.1f", r.Workload, r.Relative["base"])
		}
	}
	// Low contiguity: THP and RMM nearly ineffective, cluster helps,
	// dynamic at least matches cluster closely.
	if m := low.Mean("thp"); m < 85 {
		t.Errorf("low: THP mean %.1f, expected near 100", m)
	}
	if m := low.Mean("rmm"); m < 80 {
		t.Errorf("low: RMM mean %.1f, expected near 100", m)
	}
	// Per-benchmark: cluster clearly helps the SPEC-class workload at
	// low contiguity; gups (8 GiB uniform random) is beyond any scheme's
	// reach, as the paper's Table 5 shows.
	for _, r := range low.Rows {
		switch r.Workload {
		case "omnetpp":
			if r.Relative["cluster"] > 90 {
				t.Errorf("low/omnetpp: cluster %.1f, expected clear wins", r.Relative["cluster"])
			}
			if r.Relative["dynamic"] > r.Relative["cluster"]+10 {
				t.Errorf("low/omnetpp: dynamic (%.1f) much worse than cluster (%.1f)", r.Relative["dynamic"], r.Relative["cluster"])
			}
		case "gups":
			if r.Relative["thp"] < 90 {
				t.Errorf("low/gups: THP %.1f, expected ineffective", r.Relative["thp"])
			}
		}
	}
	// Max contiguity: RMM and dynamic nearly eliminate misses.
	if m := max.Mean("rmm"); m > 5 {
		t.Errorf("max: RMM mean %.1f, want < 5", m)
	}
	if m := max.Mean("dynamic"); m > 10 {
		t.Errorf("max: dynamic mean %.1f, want < 10", m)
	}
	// Static ideal never loses to dynamic beyond noise.
	for _, fig := range []MissFigure{low, max} {
		for _, r := range fig.Rows {
			if r.Relative["s.ideal"] > r.Relative["dynamic"]+5 {
				t.Errorf("%v/%s: static-ideal (%.1f) worse than dynamic (%.1f)",
					fig.Scenario, r.Workload, r.Relative["s.ideal"], r.Relative["dynamic"])
			}
		}
	}
}

// TestHeadlineResult is the paper's summary claim: across scenarios, the
// anchor scheme is better than or comparable to the best prior scheme.
func TestHeadlineResult(t *testing.T) {
	opts := fastOpts()
	// omnetpp's footprint-to-TLB-reach ratio is representative of the
	// paper's SPEC-class benchmarks at our simulation scale; gups is the
	// acknowledged worst case in the paper too (Table 5: 88% L2 misses
	// at medium contiguity) and is exercised elsewhere.
	opts.Workloads = []string{"omnetpp"}
	for _, sc := range []mapping.Scenario{mapping.Low, mapping.Medium, mapping.High, mapping.Max} {
		fig, err := MissesByScenario(sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		bestPrior := 1e18
		for _, col := range []string{"thp", "cluster", "cl.2mb", "rmm"} {
			if m := fig.Mean(col); m < bestPrior {
				bestPrior = m
			}
		}
		dyn := fig.Mean("dynamic")
		if dyn > bestPrior*1.25+5 {
			t.Errorf("%v: dynamic (%.1f%%) clearly loses to best prior (%.1f%%)", sc, dyn, bestPrior)
		}
	}
}

func TestWriteMissFigure(t *testing.T) {
	fig := MissFigure{
		Columns: []string{"base", "dynamic"},
		Rows: []MissRow{
			{Workload: "gups", Relative: map[string]float64{"base": 100, "dynamic": 25}},
		},
	}
	var buf bytes.Buffer
	WriteMissFigure(&buf, "test figure", fig)
	out := buf.String()
	for _, want := range []string{"test figure", "gups", "100.0", "25.0", "mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Data(t *testing.T) {
	series, err := Fig1Data(1<<15, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	// Pressure shifts the CDF left: the small-chunk mass at high
	// pressure exceeds the alone run's.
	alone, high := series[0], series[3]
	if cdfAt(high.CDF, 16) <= cdfAt(alone.CDF, 16) {
		t.Errorf("pressure did not shift CDF: alone %.3f vs high %.3f", cdfAt(alone.CDF, 16), cdfAt(high.CDF, 16))
	}
}

// TestInParallel: every index runs exactly once whatever the worker
// count, and the error is the lowest failing index's, as in a serial
// loop, not the first to fail in time.
func TestInParallel(t *testing.T) {
	for _, par := range []int{1, 3, 16} {
		var calls [10]atomic.Int32
		err := inParallel(len(calls), par, func(i int) error {
			calls[i].Add(1)
			if i == 3 || i == 7 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3" {
			t.Errorf("par %d: error %v, want index 3", par, err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Errorf("par %d: index %d ran %d times", par, i, n)
			}
		}
	}
	if err := inParallel(0, 2, func(int) error { return fmt.Errorf("called") }); err != nil {
		t.Errorf("no indices: %v", err)
	}
}

func TestTab5DataRowsSum(t *testing.T) {
	rows, err := Tab5Data(mapping.Medium, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		sum := r.RegularHit + r.AnchorHit + r.Miss
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: breakdown sums to %.4f", r.Workload, sum)
		}
		if r.AnchorHit == 0 {
			t.Errorf("%s: zero anchor hits at medium contiguity", r.Workload)
		}
	}
}

func TestTab6Data(t *testing.T) {
	opts := fastOpts()
	data, err := Tab6Data(opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, per := range data {
		// Table 6: the low-contiguity mapping selects distance 4 for
		// every application.
		if per[mapping.Low] != 4 {
			t.Errorf("%s low distance = %d, want 4", name, per[mapping.Low])
		}
		// Max contiguity selects a much larger distance: exactly the
		// largest power of two dividing the (single-chunk) footprint
		// cleanly, 256 or more for every suite footprint.
		if per[mapping.Max] < 256 {
			t.Errorf("%s max distance = %d, want >= 256", name, per[mapping.Max])
		}
		if per[mapping.Max] <= per[mapping.Low] || per[mapping.Medium] < per[mapping.Low] {
			t.Errorf("%s distances not ordered with contiguity: %v", name, per)
		}
	}
}

func TestSweepData(t *testing.T) {
	rows, err := SweepData(1 << 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Cost decreases sharply with distance (the paper's 452/71.7/1.7 ms
	// shape), and anchor counts are footprint/distance.
	for i, d := range []uint64{8, 64, 512} {
		if rows[i].Distance != d {
			t.Errorf("row %d distance = %d", i, rows[i].Distance)
		}
		if want := uint64(1<<17) / d; rows[i].Anchors != want {
			t.Errorf("d=%d anchors = %d, want %d", d, rows[i].Anchors, want)
		}
	}
	if !(rows[0].Millis > rows[1].Millis && rows[1].Millis > rows[2].Millis) {
		t.Errorf("sweep cost not decreasing: %+v", rows)
	}
	if ratio := rows[0].Millis / rows[1].Millis; ratio < 4 || ratio > 12 {
		t.Errorf("d8/d64 cost ratio = %.1f, want near 8 (paper: 6.3)", ratio)
	}
}

func TestRunRegistry(t *testing.T) {
	if len(Names()) != 15 {
		t.Errorf("experiments = %d", len(Names()))
	}
	var buf bytes.Buffer
	// The cheap experiments run end to end.
	for _, n := range []string{"tab3", "tab4", "sweep"} {
		if err := Run(n, &buf, fastOpts()); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	for _, want := range []string{"Table 3", "Table 4", "Section 3.3"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
	if err := Run("nonesuch", &buf, Options{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunFig2Small(t *testing.T) {
	var buf bytes.Buffer
	opts := fastOpts()
	opts.Workloads = []string{"gups"}
	opts.Accesses = 40_000
	if err := Run("fig2", &buf, opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("fig2 output malformed")
	}
}

// TestAllExperimentPrintersSmoke runs every registered experiment's
// printer end to end at tiny scale, asserting each emits its header.
func TestAllExperimentPrintersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("printer smoke matrix skipped in -short")
	}
	opts := Options{
		Accesses:        15_000,
		Seed:            7,
		Workloads:       []string{"omnetpp"},
		SkipStaticIdeal: true,
	}
	headers := map[string]string{
		"fig1":  "Figure 1",
		"fig2":  "Figure 2",
		"tab1":  "Table 1",
		"tab3":  "Table 3",
		"tab4":  "Table 4",
		"fig7":  "Figure 7",
		"fig8":  "Figure 8",
		"fig9":  "Figure 9",
		"tab5":  "Table 5",
		"tab6":  "Table 6",
		"fig10": "Figure 10",
		"fig11": "Figure 11",
		"sweep": "Section 3.3",
		"ext":   "Extensions",
		"churn": "Mapping churn",
	}
	for _, name := range Names() {
		var buf bytes.Buffer
		if err := Run(name, &buf, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), headers[name]) {
			t.Errorf("%s output missing header %q", name, headers[name])
		}
	}
}

func TestCPIFigureShape(t *testing.T) {
	data, cols, err := CPIFigure(mapping.Medium, Options{
		Accesses:        20_000,
		Seed:            3,
		Workloads:       []string{"omnetpp", "gups"},
		SkipStaticIdeal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 6 {
		t.Fatalf("columns = %v", cols)
	}
	if len(data) != 2 {
		t.Fatalf("rows = %d", len(data))
	}
	for wl, per := range data {
		base := per["base"]
		dyn := per["dynamic"]
		if base.Total() <= 0 {
			t.Errorf("%s: zero base CPI", wl)
		}
		if dyn.Total() > base.Total()*1.01 {
			t.Errorf("%s: dynamic CPI %.3f above base %.3f", wl, dyn.Total(), base.Total())
		}
	}
}

func TestBuildJSON(t *testing.T) {
	opts := fastOpts()
	opts.Accesses = 20_000
	rep, err := BuildJSON(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MissFigures) != 6 {
		t.Fatalf("scenarios = %d", len(rep.MissFigures))
	}
	med, ok := rep.MissFigures["medium"]
	if !ok {
		t.Fatal("medium figure missing")
	}
	if med.Rows["gups"]["base"] < 99 {
		t.Errorf("base column not normalized: %v", med.Rows["gups"])
	}
	if len(rep.Distances["gups"]) != 6 {
		t.Errorf("distance scenarios = %d", len(rep.Distances["gups"]))
	}
	if rep.Distances["gups"]["low"] != 4 {
		t.Errorf("gups low distance = %d", rep.Distances["gups"]["low"])
	}
	b := rep.L2Breakdown["omnetpp"]
	if sum := b[0] + b[1] + b[2]; sum < 0.999 || sum > 1.001 {
		t.Errorf("breakdown sums to %v", sum)
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, opts); err != nil {
		t.Fatal(err)
	}
	var parsed JSONReport
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if parsed.Options.Accesses != 20_000 {
		t.Errorf("round-tripped accesses = %d", parsed.Options.Accesses)
	}
}

// TestGoldenConfigTables pins the exact Table 3 / Table 4 output: these
// are pure configuration, so any drift is an unintended change to the
// reproduced setup.
func TestGoldenConfigTables(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("tab3", &buf, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Run("tab4", &buf, Options{}); err != nil {
		t.Fatal(err)
	}
	golden := `Table 3: TLB configuration
L1 4KB                64 entries, 4-way
L1 2MB                32 entries, 4-way
L2 shared             1024 entries, 8-way
cluster regular       768 entries, 6-way
cluster-8             320 entries, 5-way
range TLB             32 entries, fully associative
L2 hit                7 cycles
clust./RMM/anch. hit  8 cycles
page table walk       50 cycles

Table 4: synthetic mapping scenarios
low contiguity     1 - 16 pages (4KiB - 64KiB)
medium contiguity  1 - 512 pages (4KiB - 2MiB)
high contiguity    512 - 65536 pages (2MiB - 256MiB)
max contiguity     maximum

`
	if got := buf.String(); got != golden {
		t.Errorf("config tables drifted:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}
