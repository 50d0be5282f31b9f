// Package benchparse turns `go test -bench` text output into the
// machine-readable benchmark artifacts the repo publishes
// (BENCH_pipeline.json via `make bench-json`). It is a plain parser —
// no clocks, no RNG — so it sits inside tlbvet's determinism scope:
// the same bench output always renders the same artifact bytes.
package benchparse

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one parsed benchmark result line. Name is the full
// slash-separated sub-benchmark path with the Benchmark prefix and the
// -GOMAXPROCS suffix stripped (e.g. "TranslateHotPath/anchor/batched").
type Entry struct {
	Name        string
	Iterations  uint64
	NsPerOp     float64
	BytesPerOp  uint64
	AllocsPerOp uint64
	// HasMem reports that the line carried -benchmem columns; without
	// them BytesPerOp/AllocsPerOp are zero by absence, not measurement.
	HasMem bool
}

// benchLine matches one result row of `go test -bench` output:
//
//	BenchmarkName/sub-8   123456   78.9 ns/op   0 B/op   0 allocs/op
//
// The ns/op column is mandatory; the -benchmem columns are optional.
var benchLine = regexp.MustCompile(
	`^Benchmark(\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:.*?\s(\d+) B/op\s+(\d+) allocs/op)?`)

// Parse reads `go test -bench` output and returns every benchmark
// result line in input order. Non-benchmark lines (the goos/goarch
// header, PASS, ok, sub-test logs) are skipped. An input with no
// benchmark lines at all is an error — it almost always means the bench
// run itself failed upstream of the pipe.
func Parse(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		e := Entry{Name: m[1]}
		var err error
		if e.Iterations, err = strconv.ParseUint(m[2], 10, 64); err != nil {
			return nil, fmt.Errorf("benchparse: iterations in %q: %w", sc.Text(), err)
		}
		if e.NsPerOp, err = strconv.ParseFloat(m[3], 64); err != nil {
			return nil, fmt.Errorf("benchparse: ns/op in %q: %w", sc.Text(), err)
		}
		if m[4] != "" {
			e.HasMem = true
			if e.BytesPerOp, err = strconv.ParseUint(m[4], 10, 64); err != nil {
				return nil, fmt.Errorf("benchparse: B/op in %q: %w", sc.Text(), err)
			}
			if e.AllocsPerOp, err = strconv.ParseUint(m[5], 10, 64); err != nil {
				return nil, fmt.Errorf("benchparse: allocs/op in %q: %w", sc.Text(), err)
			}
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchparse: reading bench output: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchparse: no benchmark result lines in input")
	}
	return out, nil
}

// Variant is one (scheme, drive-path) cell of the pipeline report. The
// hot-path benchmark's op is one translated access, so ns/op and
// allocs/op are per-access figures directly.
type Variant struct {
	NsPerAccess     float64 `json:"ns_per_access"`
	BytesPerAccess  uint64  `json:"bytes_per_access"`
	AllocsPerAccess uint64  `json:"allocs_per_access"`
	Iterations      uint64  `json:"iterations"`
}

// PipelineReport is the BENCH_pipeline.json document: per-scheme
// hot-path numbers by variant. encoding/json renders map keys
// sorted, so the artifact bytes are deterministic for a given input.
type PipelineReport struct {
	Benchmark string                        `json:"benchmark"`
	Unit      string                        `json:"unit"`
	Schemes   map[string]map[string]Variant `json:"schemes"`
}

// pipelineBench is the benchmark Pipeline extracts, matching
// BenchmarkTranslateHotPath's sub-benchmark tree: scheme/variant.
const pipelineBench = "TranslateHotPath"

// Pipeline distills parsed entries into the pipeline report. Every
// entry must carry -benchmem columns (the artifact's allocs/access
// claim is meaningless without them), and at least one
// TranslateHotPath row must be present.
func Pipeline(entries []Entry) (PipelineReport, error) {
	rep := PipelineReport{
		Benchmark: pipelineBench,
		Unit:      "access",
		Schemes:   make(map[string]map[string]Variant),
	}
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name, pipelineBench+"/")
		if !ok {
			continue
		}
		scheme, variant, ok := strings.Cut(rest, "/")
		if !ok {
			return rep, fmt.Errorf("benchparse: %s row %q is not scheme/variant shaped", pipelineBench, e.Name)
		}
		if !e.HasMem {
			return rep, fmt.Errorf("benchparse: %q has no allocation columns; run the bench with -benchmem", e.Name)
		}
		if rep.Schemes[scheme] == nil {
			rep.Schemes[scheme] = make(map[string]Variant)
		}
		rep.Schemes[scheme][variant] = Variant{
			NsPerAccess:     e.NsPerOp,
			BytesPerAccess:  e.BytesPerOp,
			AllocsPerAccess: e.AllocsPerOp,
			Iterations:      e.Iterations,
		}
	}
	if len(rep.Schemes) == 0 {
		return rep, fmt.Errorf("benchparse: no %s rows in input", pipelineBench)
	}
	return rep, nil
}

// CompareBaseline holds a fresh pipeline report against a committed
// baseline artifact: any (scheme, variant) cell present in both whose
// fresh ns/access exceeds the baseline's by more than tolerance
// (fractional — 0.10 means +10%) is a regression. Cells present on only
// one side are ignored (schemes and variants come and go across PRs),
// but zero overlapping cells is an error: it means the comparison
// checked nothing. All regressions are reported at once, in sorted
// order, so a run that slows several schemes names them all.
func CompareBaseline(fresh, baseline PipelineReport, tolerance float64) error {
	type cell struct{ scheme, variant string }
	var cells []cell
	for scheme, variants := range baseline.Schemes {
		for variant := range variants {
			if _, ok := fresh.Schemes[scheme][variant]; ok {
				cells = append(cells, cell{scheme, variant})
			}
		}
	}
	if len(cells) == 0 {
		return fmt.Errorf("benchparse: baseline and fresh report share no (scheme, variant) cells; nothing was compared")
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].scheme != cells[j].scheme {
			return cells[i].scheme < cells[j].scheme
		}
		return cells[i].variant < cells[j].variant
	})
	var regressions []string
	for _, c := range cells {
		base := baseline.Schemes[c.scheme][c.variant]
		got := fresh.Schemes[c.scheme][c.variant]
		if base.NsPerAccess <= 0 {
			continue
		}
		if got.NsPerAccess > base.NsPerAccess*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf("%s/%s: %.1f ns/access vs baseline %.1f (+%.1f%%, tolerance %.0f%%)",
				c.scheme, c.variant, got.NsPerAccess, base.NsPerAccess,
				100*(got.NsPerAccess/base.NsPerAccess-1), 100*tolerance))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchparse: ns/access regressions over baseline:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}

// RequireZeroAllocs fails if any scheme's named variant reports heap
// allocations. It is the runtime half of the hot-path allocation proof:
// tlbvet's allocfree pass and cmd/allocgate show the //tlbvet:hotpath
// regions cannot allocate, and this check shows the measured batched
// drive indeed did not. Schemes are checked in sorted order so the
// error always names the same offender for a given report.
func RequireZeroAllocs(rep PipelineReport, variant string) error {
	schemes := make([]string, 0, len(rep.Schemes))
	for s := range rep.Schemes {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	for _, s := range schemes {
		v, ok := rep.Schemes[s][variant]
		if !ok {
			return fmt.Errorf("benchparse: scheme %q has no %q variant to prove alloc-free", s, variant)
		}
		if v.AllocsPerAccess > 0 || v.BytesPerAccess > 0 {
			return fmt.Errorf("benchparse: %s/%s allocates (%d allocs, %d B per access); the hot path must be allocation-free",
				s, variant, v.AllocsPerAccess, v.BytesPerAccess)
		}
	}
	return nil
}
