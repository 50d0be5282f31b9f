// Command benchjson converts `go test -bench` output on stdin into the
// repo's machine-readable benchmark artifact. It is the back half of
// `make bench-json`:
//
//	go test -run xxx -bench BenchmarkTranslateHotPath -benchmem . \
//	    | benchjson -out BENCH_pipeline.json
//
// The artifact records ns/access and allocs/access for every scheme's
// hot-path variants (today only batched); a run without -benchmem (or
// with no hot-path rows at all) fails instead of writing a hollow file. By
// default (-require-zero-allocs) the run also fails if any scheme's
// batched variant reports a nonzero allocs- or bytes-per-access figure,
// turning the bench artifact into a CI proof that the //tlbvet:hotpath
// regions stay allocation-free at runtime.
//
// With -pairs it instead summarizes a `make bench-pair` log of
// alternating tlbbench runs of two builds: for each workload and seed,
// each end-to-end metric BENCHMARK.json (read from the working
// directory) declares, with each side's median and quartiles, the
// change's win count, and whether the change gains, stays within the
// metric's bound, is worse than it, or is unresolved (a side's spread
// exceeds the bound):
//
//	benchjson -pairs .bench_pair/pairs.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"hybridtlb/internal/benchparse"
)

func main() {
	out := flag.String("out", "BENCH_pipeline.json", "output artifact path (empty: compare/check only, write nothing)")
	requireZeroAllocs := flag.Bool("require-zero-allocs", true,
		"fail if any scheme's batched hot-path variant reports allocs or bytes per access")
	baseline := flag.String("baseline", "",
		"committed artifact to compare against; fail on ns/access regressions beyond -baseline-tolerance")
	tolerance := flag.Float64("baseline-tolerance", 0.10,
		"fractional ns/access slack over the baseline before a cell counts as regressed")
	pairs := flag.String("pairs", "", "summarize this bench-pair log instead of reading bench output")
	flag.Parse()

	if *pairs != "" {
		if err := summarizePairs(*pairs); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	entries, err := benchparse.Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep, err := benchparse.Pipeline(entries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *requireZeroAllocs {
		if err := benchparse.RequireZeroAllocs(rep, "batched"); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var base benchparse.PipelineReport
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing baseline %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		if err := benchparse.CompareBaseline(rep, base, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: within %.0f%% of baseline %s\n", 100**tolerance, *baseline)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	schemes := make([]string, 0, len(rep.Schemes))
	for s := range rep.Schemes {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	for _, s := range schemes {
		batched := rep.Schemes[s]["batched"]
		fmt.Fprintf(os.Stderr, "benchjson: %-12s batched %8.1f ns  (%d allocs/access)\n",
			s, batched.NsPerAccess, batched.AllocsPerAccess)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d schemes)\n", *out, len(schemes))
	}
}

// summarizePairs prints the comparison of every workload and seed in the
// bench-pair log at path.
func summarizePairs(path string) error {
	spec, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bench struct {
		EndToEnd []benchparse.MetricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(spec, &bench); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	pairs, err := benchparse.ReadPairs(f)
	if err != nil {
		return err
	}
	for _, g := range benchparse.SummarizePairs(pairs, bench.EndToEnd) {
		fmt.Printf("%s seed %d: %d pairs, failed simulations base %d, change %d\n",
			g.Workload, g.Seed, g.Pairs, g.BaseFailed, g.ChangeFailed)
		for _, st := range g.Stats {
			verdict := "within bound"
			switch {
			case st.Gain(g.Pairs):
				verdict = "gain"
			case st.Unresolved():
				verdict = "unresolved"
			case st.Worse() > st.Metric.Bound:
				verdict = "worse than bound"
			}
			fmt.Printf("  %-15s base %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  %+.1f%%  wins %d/%d  %s\n",
				st.Metric.Name, st.Base.Median, st.Base.Q1, st.Base.Q3,
				st.Change.Median, st.Change.Q1, st.Change.Q3,
				100*(st.Change.Median-st.Base.Median)/st.Base.Median, st.Wins, g.Pairs, verdict)
		}
	}
	return nil
}
