package sweep

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hybridtlb/internal/pagetable"
	"hybridtlb/internal/sim"
)

// ProgressFunc observes sweep completion: done jobs out of total in the
// current batch, and the job that just finished. Calls are serialized by
// the engine, so implementations need no locking of their own; they must
// not block for long, since they run on the worker hot path.
type ProgressFunc func(done, total int, job Job)

// Options configures an Engine.
type Options struct {
	// Parallelism bounds concurrently running simulations
	// (0: runtime.GOMAXPROCS(0)).
	Parallelism int
	// Progress, when non-nil, is invoked as jobs complete.
	Progress ProgressFunc
	// DisableCache turns off result memoization; every job is simulated,
	// including duplicates within one batch.
	DisableCache bool
	// Store, when non-nil, is a durable second cache level: memory
	// misses probe it before simulating, and fresh results are written
	// through to it. A Store miss or damaged entry falls back to
	// simulation.
	Store Store
	// Retry re-runs failed cells per its policy (zero value: one
	// attempt, no retries).
	Retry RetryPolicy
	// Faults, when non-nil, injects seeded chaos into every attempt.
	Faults *FaultInjector
	// Sleep replaces the backoff sleeper (nil: a real timer). Tests
	// inject one to make retry delays instantaneous.
	Sleep Sleeper
	// Probe, when non-nil, builds a per-cell epoch observer: each job
	// whose Config.Probe is nil gets Probe(job) attached before it is
	// simulated. Probes fire only for cells actually simulated — results
	// served from the in-memory cache or the durable Store replay no
	// epochs — and a retried cell re-fires its epochs on every attempt.
	// Probe funcs never affect results or cache keys.
	Probe func(Job) sim.Probe
}

// CacheStats counts the engine's cache traffic across its lifetime.
type CacheStats struct {
	// Jobs is the total number of jobs submitted.
	Jobs int
	// Hits counts jobs served without a new simulation: either from the
	// cache of an earlier batch or coalesced with an identical job in
	// the same batch.
	Hits int
	// Misses counts jobs that missed the in-memory cache. A miss may
	// still be served from the durable Store (counted in StoreHits)
	// instead of simulating.
	Misses int
	// StoreHits counts memory misses resolved from the durable Store.
	StoreHits int
	// StoreErrors counts failed write-throughs to the Store; the result
	// is still returned and cached in memory.
	StoreErrors int
	// Retries counts re-run attempts after per-cell failures.
	Retries int
}

// cached is one memoized job outcome. Failed jobs are never cached.
type cached struct {
	res   sim.Result
	churn sim.ChurnStats
}

// Engine executes sweep jobs on a bounded worker pool with a
// content-addressed result cache. An Engine is safe for concurrent use
// and is typically shared across experiments so common cells (the base
// scheme, static-ideal probes) are computed once per process.
//
// Cached sim.Result values are shared between the jobs they serve;
// callers must treat results (including the AnchorActions map) as
// read-only.
type Engine struct {
	parallelism  int
	progress     ProgressFunc
	disableCache bool
	store        Store
	retry        RetryPolicy
	faults       *FaultInjector
	sleep        Sleeper
	probe        func(Job) sim.Probe

	// runJob is the execution function; tests substitute it to inject
	// blocking and completion-order inversions (probabilistic faults
	// belong in Options.Faults).
	runJob func(Job, sim.Inputs) (sim.Result, sim.ChurnStats, error)
	// inputs generates the mappings and traces a batch's memo shares;
	// tests substitute it to count generations and inject failures.
	inputs generator
	// traceLimit caps the trace records the memos of all running
	// batches hold (traceMemoBytes worth; tests lower it), and traceLive
	// counts the records they have reserved.
	traceLimit int64
	traceLive  atomic.Int64

	mu    sync.Mutex
	cache map[string]cached
	stats CacheStats
}

// New creates an engine.
func New(opts Options) *Engine {
	p := opts.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	sleep := opts.Sleep
	if sleep == nil {
		sleep = waitSleep
	}
	return &Engine{
		parallelism:  p,
		progress:     opts.Progress,
		disableCache: opts.DisableCache,
		store:        opts.Store,
		retry:        opts.Retry.withDefaults(),
		faults:       opts.Faults,
		sleep:        sleep,
		probe:        opts.Probe,
		runJob:       execute,
		inputs:       sim.Generated,
		traceLimit:   traceMemoBytes / recordBytes,
		cache:        make(map[string]cached),
	}
}

// Stats returns the engine's cumulative cache statistics.
func (e *Engine) Stats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// execute runs one job, drawing its mapping and trace from in.
func execute(j Job, in sim.Inputs) (res sim.Result, churn sim.ChurnStats, err error) {
	if j.churn() {
		return sim.RunWithChurnFrom(sim.ChurnConfig{
			Config:                    j.Config,
			ChurnIntervalInstructions: j.ChurnIntervalInstructions,
			ChurnPages:                j.ChurnPages,
		}, in)
	}
	res, err = sim.RunFrom(j.Config, in)
	return res, sim.ChurnStats{}, err
}

// safeRun executes one attempt of one job, converting a panic anywhere
// in the simulator (or injected by the fault hook) into a per-job error
// naming the job, so one failing cell cannot kill the sweep. Panics are
// marked Permanent: re-running a crashing cell cannot help.
func (e *Engine) safeRun(ctx context.Context, j Job, key string, attempt int, in sim.Inputs) (res sim.Result, churn sim.ChurnStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = Permanent(fmt.Errorf("job %s: panic: %v", j, p))
		}
	}()
	if f := e.faults.plan(key, attempt); f.delay > 0 || f.err != nil || f.panicMsg != "" {
		if f.delay > 0 {
			e.sleep(ctx, f.delay)
		}
		if f.panicMsg != "" {
			panic(f.panicMsg)
		}
		if f.err != nil {
			return res, churn, fmt.Errorf("job %s: %w", j, f.err)
		}
	}
	res, churn, err = e.runJob(j, in)
	if err != nil {
		err = fmt.Errorf("job %s: %w", j, err)
	}
	return res, churn, err
}

// runTask resolves one unique cell: durable-store probe first, then
// simulation with the retry policy, drawing the mapping and the trace
// from in. fromStore reports that the result was loaded rather than
// computed (so it must not be written back).
func (e *Engine) runTask(ctx context.Context, t *task, in sim.Inputs) (res sim.Result, churn sim.ChurnStats, fromStore bool, err error) {
	if e.store != nil && !e.disableCache {
		if data, ok := e.store.Load(t.key); ok {
			if c, ok := decodeEntry(data); ok {
				e.mu.Lock()
				e.stats.StoreHits++
				e.mu.Unlock()
				return c.res, c.churn, true, nil
			}
		}
	}
	job := t.job
	if e.probe != nil && job.Config.Probe == nil {
		job.Config.Probe = e.probe(job)
	}
	for attempt := 1; ; attempt++ {
		res, churn, err = e.safeRun(ctx, job, t.key, attempt, in)
		if err == nil || attempt >= e.retry.MaxAttempts || IsPermanent(err) {
			return res, churn, false, err
		}
		e.mu.Lock()
		e.stats.Retries++
		e.mu.Unlock()
		if !e.sleep(ctx, e.retry.delay(t.key, attempt)) {
			return res, churn, false, ctx.Err()
		}
	}
}

// task is one unique simulation of a batch, fanned out to every job
// position that shares its key.
type task struct {
	job       Job
	key       string
	positions []int
}

// tableKey is what decides whether two runs may share a page table: the
// mapping they install, the policy's THP and anchor settings, and whether
// the run installs a table of its own (see workerInputs.Install).
type tableKey struct {
	mapping      sim.MappingSpec
	thp, anchors bool
	own          bool
}

// groupTasks groups tasks by table key, larger groups first and groups
// of one size in the order of their first task: a figure row's dynamic
// run and static-ideal probes form one group, its base and cluster runs
// another, and its thp, cl.2mb and rmm runs a third. A group's tasks are
// in rank order, so the pinned distances one build distance serves
// follow each other.
func groupTasks(tasks []*task) [][]*task {
	var groups [][]*task
	index := make(map[tableKey]int)
	for _, t := range tasks {
		s := sim.InstallOf(t.job.Config, t.job.churn())
		k := tableKey{s.Mapping, s.Policy.THP, s.Policy.Anchors, !shareable(s)}
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], t)
	}
	for _, g := range groups {
		slices.SortStableFunc(g, func(a, b *task) int { return cmp.Compare(a.rank(), b.rank()) })
	}
	slices.SortStableFunc(groups, func(a, b []*task) int { return len(b) - len(a) })
	return groups
}

// rank orders a group's tasks: by pinned distance, and a dynamic run
// just below 8, where the build distance of pinned distances turns from
// 2 to 8 (osmem.BuildDistance). When its selected distance needs one of
// the two, the run shares a neighbour's table.
func (t *task) rank() uint64 {
	if d := t.job.Config.FixedDistance; d != 0 {
		return d
	}
	return pagetable.EntriesPerCacheBlock - 1
}

// queue hands a batch's tasks to its workers a group at a time. A worker
// takes its group's tasks from the front, so its consecutive runs share
// its kept page table, and starts the next group once its own is done.
// When every group has started, a worker without one joins the group
// with most tasks left and takes them from the back, away from the build
// distances the group's other worker is on: no worker idles while a task
// is left, however few groups the batch has.
type queue struct {
	mu     sync.Mutex
	groups [][]*task // per group, the tasks no worker has taken
	next   int       // groups[next:] have not started
}

// cursor is a worker's place in the queue: the group it takes from (-1:
// none yet), and whether from the back.
type cursor struct {
	group int
	back  bool
}

// take returns the next task for the worker at c, moving c to another
// group when its own has no task left, or nil when no task is left.
func (q *queue) take(c *cursor) *task {
	q.mu.Lock()
	defer q.mu.Unlock()
	if c.group < 0 || len(q.groups[c.group]) == 0 {
		if q.next < len(q.groups) {
			*c = cursor{group: q.next}
			q.next++
		} else {
			*c = cursor{group: -1, back: true}
			for i, g := range q.groups {
				if len(g) > 0 && (c.group < 0 || len(g) > len(q.groups[c.group])) {
					c.group = i
				}
			}
			if c.group < 0 {
				return nil
			}
		}
	}
	g := q.groups[c.group]
	if c.back {
		q.groups[c.group] = g[:len(g)-1]
		return g[len(g)-1]
	}
	q.groups[c.group] = g[1:]
	return g[0]
}

// Run executes the jobs and returns their results in input order,
// regardless of completion order. Jobs whose key is already cached (or
// duplicated within the batch) are served without re-simulation.
//
// The returned error is nil only if every job succeeded: it is the
// context's error after cancellation, or an aggregate naming the failed
// jobs otherwise. Per-job outcomes — including per-job errors — are
// always available in the result slice.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	return e.RunWithProgress(ctx, jobs, e.progress)
}

// RunWithProgress is Run with a per-call progress observer replacing the
// engine-wide one — the hook a server needs when one long-lived engine
// executes many independently tracked sweeps. A nil progress disables
// reporting for this call only.
func (e *Engine) RunWithProgress(ctx context.Context, jobs []Job, progress ProgressFunc) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(jobs))
	total := len(jobs)
	if total == 0 {
		return results, nil
	}

	// Progress calls are serialized; done counts job positions, so it
	// reaches total even when many positions share one simulation.
	var progressMu sync.Mutex
	var done int
	report := func(positions ...int) {
		if progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		for _, i := range positions {
			done++
			progress(done, total, results[i].Job)
		}
	}

	// Plan sequentially: resolve cache hits, coalesce duplicate keys.
	// Planning under the lock keeps hit/miss counting deterministic.
	var tasks []*task
	var hits []int
	e.mu.Lock()
	e.stats.Jobs += total
	byKey := make(map[string]*task)
	for i, j := range jobs {
		j.Config = j.Config.WithDefaults()
		results[i].Job = j
		// The key is computed even with caching disabled: retry jitter
		// and fault injection are both keyed by it.
		key := j.Key()
		if e.disableCache {
			e.stats.Misses++
			tasks = append(tasks, &task{job: j, key: key, positions: []int{i}})
			continue
		}
		if c, ok := e.cache[key]; ok {
			e.stats.Hits++
			results[i].Res, results[i].Churn, results[i].Cached = c.res, c.churn, true
			hits = append(hits, i)
			continue
		}
		if t, ok := byKey[key]; ok {
			e.stats.Hits++
			results[i].Cached = true
			t.positions = append(t.positions, i)
			continue
		}
		e.stats.Misses++
		t := &task{job: j, key: key, positions: []int{i}}
		byKey[key] = t
		tasks = append(tasks, t)
	}
	e.mu.Unlock()
	report(hits...)

	workers := e.parallelism
	if workers > len(tasks) {
		workers = len(tasks)
	}
	memo := e.planMemo(tasks)
	defer e.traceLive.Add(-memo.reserved)
	q := &queue{groups: groupTasks(tasks)}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := &workerInputs{batchMemo: memo, leaves: new(pagetable.Leaves)}
			defer in.drop()
			c := cursor{group: -1}
			for {
				t := q.take(&c)
				if t == nil {
					return
				}
				if err := ctx.Err(); err != nil {
					// Drain the queue, marking unstarted jobs cancelled.
					for _, i := range t.positions {
						results[i].Err = err
					}
					report(t.positions...)
					continue
				}
				res, churn, fromStore, err := e.runTask(ctx, t, in)
				if err == nil && !e.disableCache {
					e.mu.Lock()
					e.cache[t.key] = cached{res: res, churn: churn}
					e.mu.Unlock()
					if !fromStore && e.store != nil {
						e.writeThrough(t.key, cached{res: res, churn: churn})
					}
				}
				for _, i := range t.positions {
					results[i].Res, results[i].Churn, results[i].Err = res, churn, err
					if fromStore {
						results[i].Cached = true
					}
				}
				report(t.positions...)
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, failures(results)
}

// writeThrough persists one fresh result to the durable store,
// degrading to memory-only (with the error counted) on failure — a
// full disk must not fail the sweep.
func (e *Engine) writeThrough(key string, c cached) {
	data, err := encodeEntry(c)
	if err == nil {
		err = e.store.Save(key, data)
	}
	if err != nil {
		e.mu.Lock()
		e.stats.StoreErrors++
		e.mu.Unlock()
	}
}

// failures aggregates per-job errors into one error naming the failed
// jobs (nil when everything succeeded). Every distinct error message is
// included via errors.Join — coalesced duplicates (positions sharing a
// failed cell) are reported once — so a multi-cell failure is fully
// diagnosable from the returned error alone.
func failures(results []Result) error {
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
	if n == 0 {
		return nil
	}
	if n == 1 {
		return fmt.Errorf("sweep: %w", errs[0])
	}
	return fmt.Errorf("sweep: %d of %d jobs failed: %w", n, len(results), errors.Join(errs...))
}

// Results unwraps a result slice into the bare simulation results,
// dropping per-job metadata. It must only be called on an error-free
// sweep.
func Results(rs []Result) []sim.Result {
	out := make([]sim.Result, len(rs))
	for i, r := range rs {
		out[i] = r.Res
	}
	return out
}
