// Package sweep is the concurrent experiment-orchestration engine: it
// expands declarative sweep specifications (schemes × workloads ×
// scenarios × seeds × pressures × anchor distances) into job lists,
// executes the jobs on a bounded worker pool, memoizes results in a
// content-addressed cache so repeated cells (the same baseline across
// figures, static-ideal's sixteen distance probes) are simulated once per
// process, and returns results in deterministic spec order regardless of
// completion order. Every figure and table generator in internal/report
// and the public hybridtlb.SimulateSweep API route through it.
//
// Jobs are pure: each simulation owns its RNG, seeded from the spec, so a
// parallel sweep is bit-identical to the serial one.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"hybridtlb/internal/sim"
)

// Job is one unit of sweep work: a full simulation configuration, plus
// optional churn parameters that switch execution from sim.Run to
// sim.RunWithChurn. The zero churn fields mean a plain run.
type Job struct {
	Config sim.Config

	// ChurnIntervalInstructions and ChurnPages, when both non-zero, run
	// the job under mapping churn (sim.RunWithChurn).
	ChurnIntervalInstructions uint64
	ChurnPages                uint64
}

// String identifies the job in errors and progress lines.
func (j Job) String() string {
	c := j.Config
	s := fmt.Sprintf("%v/%s/%v seed=%d", c.Scheme, c.Workload.Name, c.Scenario, c.Seed)
	if c.FixedDistance != 0 {
		s += fmt.Sprintf(" d=%d", c.FixedDistance)
	}
	if j.churn() {
		s += " churn"
	}
	return s
}

// churn reports whether the job runs under mapping churn.
func (j Job) churn() bool { return j.ChurnIntervalInstructions != 0 || j.ChurnPages != 0 }

// Key returns the job's content-addressed cache key: a SHA-256 over a
// canonical serialization of the defaulted configuration. Two jobs with
// the same key compute the same result, so the engine runs only one of
// them.
//
// The workload is identified by workload.Spec.Identity: its Name, which
// uniquely names a generator in the registered suite, and its public
// parameters. Callers substituting a custom workload.Spec must give it a
// distinct Name.
func (j Job) Key() string {
	c := j.Config.WithDefaults()
	h := sha256.New()
	fmt.Fprintf(h, "scheme=%d|wl=%s|sc=%d|", c.Scheme, c.Workload.Identity(), c.Scenario)
	hw := c.HW
	detailed := hw.Walk != nil
	hw.Walk = nil
	fmt.Fprintf(h, "hw=%+v|hwwalk=%t|", hw, detailed)
	fmt.Fprintf(h, "fp=%d|acc=%d|warm=%d|seed=%d|press=%g|dist=%d|epoch=%d|sweep=%+v|cost=%d|multi=%t|det=%t|",
		c.FootprintPages, c.Accesses, c.WarmupAccesses, c.Seed, c.Pressure,
		c.FixedDistance, c.EpochInstructions, c.SweepCost, c.CostModel,
		c.MultiRegionAnchors, c.DetailedWalk)
	fmt.Fprintf(h, "churn=%d/%d", j.ChurnIntervalInstructions, j.ChurnPages)
	return hex.EncodeToString(h.Sum(nil))
}

// Result pairs one job with its outcome. Exactly one of Res/Err is
// meaningful; Churn is populated only for churn jobs.
type Result struct {
	Job   Job
	Res   sim.Result
	Churn sim.ChurnStats
	// Err is the job's failure: a simulation error, a recovered panic,
	// or the sweep context's cancellation error.
	Err error
	// Cached reports that the result was served from the engine's cache
	// (or coalesced with an identical job in the same batch) instead of
	// being simulated again.
	Cached bool
}
