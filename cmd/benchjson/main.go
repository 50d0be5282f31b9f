// Command benchjson converts `go test -bench` output on stdin into the
// repo's machine-readable benchmark artifact. It is the back half of
// `make bench-json`:
//
//	go test -run xxx -bench BenchmarkTranslateHotPath -benchmem . \
//	    | benchjson -out BENCH_pipeline.json
//
// The artifact records ns/access and allocs/access for every scheme's
// serial and batched hot-path variant; a run without -benchmem (or with
// no hot-path rows at all) fails instead of writing a hollow file. By
// default (-require-zero-allocs) the run also fails if any scheme's
// batched variant reports a nonzero allocs- or bytes-per-access figure,
// turning the bench artifact into a CI proof that the //tlbvet:hotpath
// regions stay allocation-free at runtime.
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
	flag.Parse()

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
		serial, batched := rep.Schemes[s]["serial"], rep.Schemes[s]["batched"]
		speedup := 0.0
		if batched.NsPerAccess > 0 {
			speedup = serial.NsPerAccess / batched.NsPerAccess
		}
		fmt.Fprintf(os.Stderr, "benchjson: %-12s serial %8.1f ns  batched %8.1f ns  (%.2fx, %d allocs/access)\n",
			s, serial.NsPerAccess, batched.NsPerAccess, speedup, batched.AllocsPerAccess)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d schemes)\n", *out, len(schemes))
	}
}
