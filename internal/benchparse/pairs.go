package benchparse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// PairRun is one line of a `make bench-pair` log: one side's tlbbench
// run of one workload at one seed. Verdict is tlbbench's result line.
type PairRun struct {
	// Side is "base" or "change".
	Side     string  `json:"side"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Verdict  Verdict `json:"verdict"`
}

// Verdict is the part of tlbbench's result line a comparison reads: the
// failed simulations and the metrics.
type Verdict struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// MetricSpec is one end-to-end metric as BENCHMARK.json declares it:
// which direction is better and by what fraction it may worsen.
type MetricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// Quartiles are a side's first quartile, median and third quartile.
type Quartiles struct{ Q1, Median, Q3 float64 }

func quartiles(v []float64) Quartiles {
	return Quartiles{Quantile(v, 0.25), Quantile(v, 0.5), Quantile(v, 0.75)}
}

// PairStat compares one metric between the two sides over one
// workload's pairs at one seed.
type PairStat struct {
	Metric       MetricSpec
	Base, Change Quartiles
	// Wins counts the pairs whose change run reads better than its base
	// run; ties count for neither side.
	Wins int
}

// Gain reports whether the change's median beats the base's by more
// than the base's interquartile range and the change won at least nine
// in ten of pairs.
func (s PairStat) Gain(pairs int) bool {
	gap := s.Base.Median - s.Change.Median
	if s.Metric.Better == "higher" {
		gap = -gap
	}
	return 10*s.Wins >= 9*pairs && gap > s.Base.Q3-s.Base.Q1
}

// Worse is how far the change's median is worse than the base's, as a
// fraction of the base's median (negative when it is better).
func (s PairStat) Worse() float64 {
	if s.Base.Median == 0 {
		return 0
	}
	d := (s.Change.Median - s.Base.Median) / s.Base.Median
	if s.Metric.Better == "higher" {
		d = -d
	}
	return d
}

// Unresolved reports whether either side's spread, its interquartile
// range over its median, exceeds the metric's bound.
func (s PairStat) Unresolved() bool {
	spread := func(q Quartiles) float64 {
		if q.Median == 0 {
			return 0
		}
		return (q.Q3 - q.Q1) / q.Median
	}
	return spread(s.Base) > s.Metric.Bound || spread(s.Change) > s.Metric.Bound
}

// PairGroup is every pair of one workload at one seed.
type PairGroup struct {
	Workload string
	Seed     int64
	Pairs    int
	// Failed counts failed simulations on each side, over all pairs.
	BaseFailed, ChangeFailed int
	Stats                    []PairStat
}

// ReadPairs reads a bench-pair log. Each pair is two consecutive lines,
// one per side in either order, of the same workload and seed.
func ReadPairs(r io.Reader) ([][2]PairRun, error) {
	var runs []PairRun
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var run PairRun
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return nil, fmt.Errorf("benchparse: pair log line %d: %w", len(runs)+1, err)
		}
		runs = append(runs, run)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs)%2 != 0 {
		return nil, fmt.Errorf("benchparse: pair log has %d lines, not whole pairs", len(runs))
	}
	pairs := make([][2]PairRun, 0, len(runs)/2)
	for i := 0; i < len(runs); i += 2 {
		a, b := runs[i], runs[i+1]
		if a.Side == "change" {
			a, b = b, a
		}
		if a.Side != "base" || b.Side != "change" || a.Workload != b.Workload || a.Seed != b.Seed {
			return nil, fmt.Errorf("benchparse: pair log lines %d-%d are not one base and one change run of one workload and seed", i+1, i+2)
		}
		pairs = append(pairs, [2]PairRun{a, b})
	}
	return pairs, nil
}

// SummarizePairs groups pairs by workload and seed, in order of first
// appearance, and compares each metric between the sides.
func SummarizePairs(pairs [][2]PairRun, metrics []MetricSpec) []PairGroup {
	type key struct {
		workload string
		seed     int64
	}
	var order []key
	byKey := make(map[key][][2]PairRun)
	for _, p := range pairs {
		k := key{p[0].Workload, p[0].Seed}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], p)
	}
	groups := make([]PairGroup, 0, len(order))
	for _, k := range order {
		ps := byKey[k]
		g := PairGroup{Workload: k.workload, Seed: k.seed, Pairs: len(ps)}
		for _, p := range ps {
			g.BaseFailed += p[0].Verdict.Failed
			g.ChangeFailed += p[1].Verdict.Failed
		}
		for _, m := range metrics {
			st := PairStat{Metric: m}
			var base, change []float64
			for _, p := range ps {
				b, c := p[0].Verdict.Metrics[m.Name].Value, p[1].Verdict.Metrics[m.Name].Value
				base, change = append(base, b), append(change, c)
				if (m.Better == "higher" && c > b) || (m.Better != "higher" && c < b) {
					st.Wins++
				}
			}
			st.Base, st.Change = quartiles(base), quartiles(change)
			g.Stats = append(g.Stats, st)
		}
		groups = append(groups, g)
	}
	return groups
}
