package benchparse

import (
	"fmt"
	"strings"
	"testing"
)

// pairLine is one bench-pair log line with a wall_s and an
// accesses_per_s value.
func pairLine(side, workload string, wall, rate float64) string {
	return fmt.Sprintf(`{"side":%q,"workload":%q,"seed":7,"verdict":{"correct":true,"attempted":24,"failed":0,`+
		`"metrics":{"wall_s":{"value":%g,"unit":"s"},"accesses_per_s":{"value":%g,"unit":"accesses/s"}}}}`,
		side, workload, wall, rate)
}

var pairMetrics = []MetricSpec{
	{Name: "wall_s", Better: "lower", Bound: 0.25},
	{Name: "accesses_per_s", Better: "higher", Bound: 0.25},
}

func TestSummarizePairs(t *testing.T) {
	var lines []string
	// Ten remap-churn pairs, alternating which side comes first: the
	// change is faster in nine and ties in one. Two trace-replay pairs
	// whose base runs spread by more than the bound.
	for i := 0; i < 10; i++ {
		base := pairLine("base", "remap-churn", 1.5+0.01*float64(i), 1e6)
		change := pairLine("change", "remap-churn", 1.0+0.01*float64(i), 1.5e6)
		if i == 9 {
			change = pairLine("change", "remap-churn", 1.59, 1e6)
		}
		if i%2 == 1 {
			base, change = change, base
		}
		lines = append(lines, base, change)
	}
	lines = append(lines,
		pairLine("base", "trace-replay", 0.5, 1e6), pairLine("change", "trace-replay", 0.9, 1e6),
		pairLine("change", "trace-replay", 1.0, 1e6), pairLine("base", "trace-replay", 1.5, 1e6))
	pairs, err := ReadPairs(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	groups := SummarizePairs(pairs, pairMetrics)
	if len(groups) != 2 || groups[0].Workload != "remap-churn" || groups[0].Pairs != 10 || groups[1].Pairs != 2 {
		t.Fatalf("groups = %+v", groups)
	}
	wall, rate := groups[0].Stats[0], groups[0].Stats[1]
	if wall.Wins != 9 || wall.Base.Median != 1.54 || wall.Change.Median != 1.04 || !wall.Gain(10) || wall.Unresolved() {
		t.Errorf("remap-churn wall_s = %+v, want 9 wins, medians 1.54 and 1.04, a gain", wall)
	}
	if rate.Wins != 9 || !rate.Gain(10) || rate.Worse() > -0.49 {
		t.Errorf("remap-churn accesses_per_s = %+v, want 9 wins and a 50%% gain", rate)
	}
	replay := groups[1].Stats[0]
	if replay.Gain(2) || !replay.Unresolved() || replay.Worse() <= 0 {
		t.Errorf("trace-replay wall_s = %+v, want no gain and unresolved", replay)
	}
}

func TestReadPairsRejectsBrokenLogs(t *testing.T) {
	for name, log := range map[string]string{
		"odd":       pairLine("base", "w", 1, 1),
		"two bases": pairLine("base", "w", 1, 1) + "\n" + pairLine("base", "w", 1, 1),
		"workloads": pairLine("base", "w", 1, 1) + "\n" + pairLine("change", "v", 1, 1),
		"not json":  "tlbbench: remap-churn repetition 1\n" + pairLine("base", "w", 1, 1),
	} {
		if _, err := ReadPairs(strings.NewReader(log)); err == nil {
			t.Errorf("%s: broken log accepted", name)
		}
	}
}
