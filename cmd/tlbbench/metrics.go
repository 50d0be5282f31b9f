package main

import (
	"math"
	"sort"

	"hybridtlb/internal/mmu"
)

// metricDef names one reported metric and its unit; BENCHMARK.json lists
// the same names in the same order.
type metricDef struct{ name, unit string }

// endToEndDefs lists the end-to-end metrics. Every workload reports each
// of them, so the only per-scheme time among them is anchor's: the one
// scheme all three workloads run whose time stays steady on paper-grid,
// where thp, cluster-2mb and rmm are sums of short cells that each
// overlap a different partner on the other worker.
func endToEndDefs() []metricDef {
	return []metricDef{
		{"wall_s", "s"},
		{"accesses_per_s", "accesses/s"},
		{"setup_s", "s"},
		{"peak_rss_mib", "MiB"},
		{"run_s.anchor", "s"},
	}
}

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"mapping.generate_s", "s"},
		{"mapping.chunks", "count"},
		{"osmem.install_s", "s"},
		{"osmem.install_alloc_mib", "MiB"},
		{"osmem.unmap_s", "s"},
		{"osmem.remap_s", "s"},
		{"osmem.reselect_s", "s"},
		{"osmem.reselects", "count"},
		{"osmem.distance_changes", "count"},
		{"osmem.entry_shootdowns", "count"},
		{"osmem.full_flushes", "count"},
		{"pagetable.nodes", "count"},
		{"pagetable.walk_ns", "ns"},
		{"pagetable.anchor_read_ns", "ns"},
		{"pagetable.walks_per_miss", "ratio"},
		{"tlb.l1_lookup_ns", "ns"},
		{"tlb.l2_lookup_ns", "ns"},
		{"tlb.range_lookup_ns", "ns"},
		{"core.select_distance_ns", "ns"},
		{"mmu.translate_s", "s"},
	}
	for _, s := range mmu.All() {
		defs = append(defs, metricDef{"mmu.ns_per_access." + s.String(), "ns"})
	}
	defs = append(defs, []metricDef{
		{"mmu.accesses", "count"},
		{"mmu.l1_hits", "count"},
		{"mmu.l2_regular_hits", "count"},
		{"mmu.coalesced_hits", "count"},
		{"mmu.walks", "count"},
		{"mmu.faults", "count"},
		{"mmu.l1_hit_ratio", "ratio"},
		{"mmu.coalesced_ratio", "ratio"},
		{"mmu.walk_ratio", "ratio"},
		{"workload.generate_s", "s"},
		{"workload.ns_per_record", "ns"},
		{"trace.decode_s", "s"},
		{"trace.ns_per_record", "ns"},
		{"trace.bin_ns_per_record", "ns"},
		{"sim.self_s", "s"},
	}...)
	for _, s := range mmu.All() {
		defs = append(defs, metricDef{"sim.run_s." + s.String(), "s"})
	}
	return append(defs, []metricDef{
		{"sweep.jobs", "count"},
		{"sweep.simulated", "count"},
		{"sweep.cache_hit_ratio", "ratio"},
		{"sweep.cell_ms_p50", "ms"},
		{"sweep.cell_ms_p98", "ms"},
		{"sweep.busy_ratio", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_s", "s"},
		{"runtime.alloc_mib", "MiB"},
		{"bench.trace_overhead_ratio", "ratio"},
		{"bench.span_coverage", "ratio"},
	}...)
}

// collect gives every declared metric its value: 0 where the workload
// does none of that work.
func collect(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between the closest ranks of the sorted values; 0 for no
// values. xs is left unchanged.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(r)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
