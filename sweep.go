package hybridtlb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hybridtlb/internal/mmu"
	"hybridtlb/internal/sweep"
)

// SweepOptions tunes SimulateSweep.
type SweepOptions struct {
	// Parallelism bounds concurrently running simulations
	// (0: runtime.GOMAXPROCS(0)).
	Parallelism int
	// Progress, when non-nil, observes completion: done jobs out of
	// total. Calls are serialized by the engine.
	Progress func(done, total int)
	// DisableCache turns off result memoization; by default identical
	// configs in the sweep are simulated once and shared.
	DisableCache bool
	// Stats, when non-nil, receives the sweep's cache statistics after
	// the run: how many jobs were submitted, how many were served from
	// the result cache and how many actually simulated.
	Stats *CacheStats
	// Store, when non-nil, adds a durable second cache level under the
	// in-memory one: memory misses probe it before simulating, and
	// fresh results are written through. Corrupt or missing entries
	// degrade to re-simulation, never to errors.
	Store ResultStore
	// Retry re-runs failed cells with capped exponential backoff and
	// deterministic seeded jitter (zero value: a single attempt).
	// Retries only re-run failed cells, so successful results stay
	// byte-identical.
	Retry RetryPolicy
	// Faults, when non-nil, injects seeded probabilistic faults into
	// every cell attempt — the chaos-testing hook.
	Faults *FaultInjector
	// Probe, when non-nil, observes epoch boundaries of every config in
	// the sweep that does not carry its own SimulationConfig.Probe; the
	// first argument is the config's index in the submitted slice.
	// Samples fire only for configs actually simulated: a config served
	// from the result cache — including one coalesced with an identical
	// earlier config in the same sweep — replays no epochs. Calls arrive
	// concurrently from the worker pool; the observer must be
	// goroutine-safe.
	Probe func(config int, s EpochSample)
}

// ResultStore is a durable byte store keyed by the sweep's SHA-256
// content address. Load reports absent (or damaged) entries as
// (nil, false); Save persists one entry. Implementations must be safe
// for concurrent use. The tlbserver wires its -state-dir store in
// through this seam.
type ResultStore interface {
	Load(key string) ([]byte, bool)
	Save(key string, data []byte) error
}

// RetryPolicy controls per-cell retries. Backoff doubles from
// BaseDelay (default 50ms) up to MaxDelay (default 5s), scaled by a
// jitter factor in [0.5, 1.5) derived deterministically from
// (Seed, cell key, attempt) — no shared RNG, so sweeps stay
// reproducible under any parallelism.
type RetryPolicy struct {
	// MaxAttempts bounds total tries per cell (0 or 1: no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff.
	BaseDelay time.Duration
	// MaxDelay caps any single backoff.
	MaxDelay time.Duration
	// Seed varies the jitter sequence.
	Seed int64
}

// FaultInjector perturbs sweep cells with seeded, per-attempt
// probabilistic faults: transient errors (retryable), permanent errors
// and panics (neither is retried), and deterministic per-attempt
// delays. Decisions hash (Seed, cell key, attempt), so a seed fully
// determines the fault pattern.
type FaultInjector struct {
	Seed          int64
	TransientRate float64
	PermanentRate float64
	PanicRate     float64
	Delay         time.Duration
}

// CacheStats reports a sweep's result-cache traffic (the engine's
// cumulative counters for a Sweeper, one call's counters for
// SimulateSweep).
type CacheStats struct {
	// Jobs is the total number of jobs submitted.
	Jobs int
	// Hits counts jobs served without a new simulation: from the cache
	// of an earlier run or coalesced with an identical job in the same
	// sweep.
	Hits int
	// Misses counts jobs that missed the in-memory cache (a miss may
	// still be served from the durable Store).
	Misses int
	// StoreHits counts memory misses resolved from the durable Store
	// instead of simulating.
	StoreHits int
	// StoreErrors counts failed write-throughs to the Store (the sweep
	// still succeeds; the result stays memory-only).
	StoreErrors int
	// Retries counts re-run attempts after per-cell failures.
	Retries int
}

// HitRate returns the fraction of jobs served from the cache in [0,1].
func (s CacheStats) HitRate() float64 {
	if s.Jobs == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Jobs)
}

// SweepResult pairs one sweep config's metrics with its per-job outcome.
type SweepResult struct {
	SimulationResult
	// Cached reports that the result was served from the sweep's result
	// cache (an identical config appeared earlier in the sweep).
	Cached bool
	// Err is this config's failure: an invalid name, a simulation error
	// or a recovered panic. The rest of the sweep still runs.
	Err error
}

// SimulateSweep runs a batch of simulations concurrently on a bounded
// worker pool and returns their results in input order, regardless of
// completion order. Identical configs — the same cell appearing several
// times in a figure cross-product — are simulated once and served from a
// content-addressed result cache. Each simulation owns its RNG, seeded
// from its config, so the sweep's results are bit-identical to calling
// Simulate serially.
//
// One failing cell does not kill the sweep: its error is reported in its
// SweepResult (and summarized in the returned error) while every other
// cell completes. Cancelling ctx stops dispatching new simulations; jobs
// not yet started report the context's error.
//
// TracePath replay is not supported in sweeps; such configs fail
// per-job.
//
// The result cache lives for this one call; a service running many
// sweeps should share one Sweeper instead.
func SimulateSweep(ctx context.Context, cfgs []SimulationConfig, opts SweepOptions) ([]SweepResult, error) {
	sw := NewSweeper(opts)
	results, err := sw.Run(ctx, cfgs, opts.Progress)
	if opts.Stats != nil {
		*opts.Stats = sw.Stats()
	}
	return results, err
}

// Sweeper is a long-lived sweep runner: a bounded worker pool plus a
// content-addressed result cache that persists across Run calls, so a
// config repeated by later sweeps — a baseline column shared by many
// requests, a re-submitted grid — is simulated once per Sweeper.
// A Sweeper is safe for concurrent use.
type Sweeper struct {
	eng   *sweep.Engine
	probe func(config int, s EpochSample)
}

// NewSweeper creates a Sweeper. The options' Parallelism, DisableCache
// and Probe apply to every Run; Progress and Stats are ignored here
// (progress is per-Run, stats come from Stats).
func NewSweeper(opts SweepOptions) *Sweeper {
	var faults *sweep.FaultInjector
	if opts.Faults != nil {
		faults = &sweep.FaultInjector{
			Seed:          opts.Faults.Seed,
			TransientRate: opts.Faults.TransientRate,
			PermanentRate: opts.Faults.PermanentRate,
			PanicRate:     opts.Faults.PanicRate,
			Delay:         opts.Faults.Delay,
		}
	}
	return &Sweeper{probe: opts.Probe, eng: sweep.New(sweep.Options{
		Parallelism:  opts.Parallelism,
		DisableCache: opts.DisableCache,
		Store:        opts.Store,
		Retry: sweep.RetryPolicy{
			MaxAttempts: opts.Retry.MaxAttempts,
			BaseDelay:   opts.Retry.BaseDelay,
			MaxDelay:    opts.Retry.MaxDelay,
			Seed:        opts.Retry.Seed,
		},
		Faults: faults,
	})}
}

// Stats returns the Sweeper's cumulative cache statistics across every
// Run so far.
func (s *Sweeper) Stats() CacheStats {
	st := s.eng.Stats()
	return CacheStats{
		Jobs: st.Jobs, Hits: st.Hits, Misses: st.Misses,
		StoreHits: st.StoreHits, StoreErrors: st.StoreErrors, Retries: st.Retries,
	}
}

// Run executes one batch of configs with SimulateSweep semantics —
// results in input order, per-job errors, cancellation at job
// boundaries — against the Sweeper's shared pool and cache. The
// progress callback, when non-nil, observes completion for this call
// only.
func (s *Sweeper) Run(ctx context.Context, cfgs []SimulationConfig, progress func(done, total int)) ([]SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]SweepResult, len(cfgs))

	// Validate and convert up front; invalid configs fail per-job
	// without occupying the pool.
	jobs := make([]sweep.Job, 0, len(cfgs))
	positions := make([]int, 0, len(cfgs)) // job index -> result index
	hws := make([]mmu.Config, 0, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.TracePath != "" {
			results[i].Err = fmt.Errorf("hybridtlb: sweep job %d: TracePath replay is not supported in SimulateSweep", i)
			continue
		}
		if s.probe != nil && cfg.Probe == nil {
			idx, probe := i, s.probe
			cfg.Probe = func(es EpochSample) { probe(idx, es) }
		}
		simCfg, hw, err := cfg.toSimConfig()
		if err != nil {
			results[i].Err = fmt.Errorf("hybridtlb: sweep job %d: %w", i, err)
			continue
		}
		jobs = append(jobs, sweep.Job{Config: simCfg})
		positions = append(positions, i)
		hws = append(hws, hw)
	}

	var progressFn sweep.ProgressFunc
	if progress != nil {
		// The engine's total counts only the valid jobs; report against
		// the caller's config count so done reaches len(cfgs).
		skipped := len(cfgs) - len(jobs)
		progressFn = func(done, total int, _ sweep.Job) {
			progress(skipped+done, skipped+total)
		}
	}
	swept, _ := s.eng.RunWithProgress(ctx, jobs, progressFn)
	for j, r := range swept {
		i := positions[j]
		if r.Err != nil {
			results[i].Err = fmt.Errorf("hybridtlb: sweep job %d: %w", i, r.Err)
			continue
		}
		results[i].SimulationResult = toSimulationResult(r.Res, hws[j])
		results[i].Cached = r.Cached
	}

	return results, sweepFailures(ctx, results)
}

// sweepFailures summarizes per-job errors (nil when every job
// succeeded); after cancellation it returns the context's error. Every
// distinct failure message is included via errors.Join so a multi-cell
// failure is diagnosable from the returned error alone.
func sweepFailures(ctx context.Context, results []SweepResult) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var errs []error
	seen := make(map[string]bool)
	n := 0
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		n++
		if msg := r.Err.Error(); !seen[msg] {
			seen[msg] = true
			errs = append(errs, r.Err)
		}
	}
	switch {
	case n == 0:
		return nil
	case n == 1:
		return errs[0]
	default:
		return fmt.Errorf("%d of %d sweep jobs failed: %w", n, len(results), errors.Join(errs...))
	}
}
