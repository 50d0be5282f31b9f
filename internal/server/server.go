// Package server is the simulation-as-a-service layer: an HTTP API over
// the public hybridtlb simulation entry points and the internal/sweep
// engine. Small synchronous runs go through POST /v1/simulate; grids go
// through POST /v1/sweeps, which enqueues an asynchronous job on a
// bounded worker pool and immediately returns 202 with a job ID that
// clients poll (GET /v1/sweeps/{id}) or stream (SSE at
// /v1/sweeps/{id}/events). Every simulation — sync or async — runs
// against one server-lifetime Sweeper, so its content-addressed result
// cache deduplicates repeated cells across requests and clients.
//
// Production behaviors are first-class: strict request validation with
// structured field-level errors, bounded queues that shed load with
// 429 + Retry-After instead of growing without bound, per-request and
// per-job timeouts, /healthz + /readyz, Prometheus-text /metrics, slog
// access and job logging, and a graceful drain that finishes in-flight
// jobs before the process exits.
//
// The server is multi-tenant: with a tenant keyfile configured
// (Config.Tenants), every /v1 request authenticates with a bearer key
// and runs under that tenant's admission limits — token-bucket request
// rate, in-flight quota, bounded queue share — and the worker pool
// drains tenant queues by weighted fair share (see sched.go), so one
// hostile or buggy client degrades its own service, not everyone's.
// Without a keyfile every caller shares one implicit unlimited tenant
// and the behavior is the old single-tenant server's.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"hybridtlb"
	"hybridtlb/internal/persist"
	"hybridtlb/internal/tenant"
)

// Runner executes simulation batches. *hybridtlb.Sweeper implements it;
// tests substitute controllable fakes.
type Runner interface {
	Run(ctx context.Context, cfgs []hybridtlb.SimulationConfig, progress func(done, total int)) ([]hybridtlb.SweepResult, error)
	Stats() hybridtlb.CacheStats
}

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Workers sizes the sweep worker pool (default 2).
	Workers int
	// QueueDepth bounds sweeps waiting for a worker, per tenant; a
	// tenant with a full queue is shed with 429 without consuming any
	// other tenant's room (default 8).
	QueueDepth int
	// SweepParallelism bounds concurrent simulations within one sweep
	// (default GOMAXPROCS). Total simulation concurrency is
	// Workers × SweepParallelism plus synchronous simulate requests.
	SweepParallelism int
	// SimulateTimeout budgets one synchronous POST /v1/simulate
	// (default 60s).
	SimulateTimeout time.Duration
	// JobTimeout budgets one queued sweep job (default 15m).
	JobTimeout time.Duration
	// RetryAfter floors the hint sent with 429 responses (default 2s).
	// The live hint scales up with queue depth over the observed drain
	// rate; see retryAfterHint.
	RetryAfter time.Duration
	// RetryAfterMax caps the adaptive Retry-After hint (default 5m).
	RetryAfterMax time.Duration
	// Tenants, when non-nil, switches on multi-tenant admission:
	// every /v1 request must carry "Authorization: Bearer <key>" naming
	// a keyfile tenant, whose rate limit, in-flight quota and
	// fair-share weight then govern it. Nil: one implicit unlimited
	// tenant, no authentication (the pre-tenancy behavior).
	Tenants *tenant.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ for live
	// profiling during overload investigations. Off by default: the
	// endpoints reveal internals and cost CPU, so they are opt-in.
	EnablePprof bool
	// MaxAccesses caps per-simulation measured accesses. Zero means the
	// default, 5,000,000: the cap is always on.
	MaxAccesses uint64
	// MaxSweepJobs caps one request's expanded grid size
	// (default 4096; negative disables the cap).
	MaxSweepJobs int
	// MaxJobs caps how many jobs the store retains; beyond it the
	// oldest terminal jobs are evicted and their IDs answer 410 Gone
	// (default 0: unlimited).
	MaxJobs int
	// StateDir, when set, makes sweeps crash-safe: completed cells are
	// persisted to a content-addressed store under it and every job
	// transition is journaled, so a restarted server restores terminal
	// jobs and resumes interrupted ones (re-simulating only cells not
	// yet in the store). Empty: memory-only, the previous behavior.
	StateDir string
	// StoreMaxBytes, when positive, caps the result store's on-disk
	// size: after every finished job the oldest envelopes are pruned
	// until the store fits (see persist.ResultStore.Prune). Zero:
	// unbounded, the previous behavior.
	StoreMaxBytes int64
	// SSEKeepAlive is the idle interval between ": keepalive" comment
	// lines on event streams, so proxies don't reap quiet connections
	// (default 15s; negative disables).
	SSEKeepAlive time.Duration
	// Retry is the per-cell retry policy handed to the default runner.
	Retry hybridtlb.RetryPolicy
	// Faults, when non-nil, injects seeded chaos into the default
	// runner — the -chaos soak mode.
	Faults *hybridtlb.FaultInjector
	// Logger receives access and job logs (default slog.Default()).
	Logger *slog.Logger
	// Runner substitutes the sweep executor (default: a fresh
	// hybridtlb.Sweeper with SweepParallelism, wired to the StateDir
	// store when one is configured).
	Runner Runner
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.SweepParallelism <= 0 {
		c.SweepParallelism = runtime.GOMAXPROCS(0)
	}
	if c.SimulateTimeout <= 0 {
		c.SimulateTimeout = 60 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 15 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.RetryAfterMax <= 0 {
		c.RetryAfterMax = 5 * time.Minute
	}
	if c.MaxAccesses == 0 {
		c.MaxAccesses = 5_000_000
	}
	if c.MaxSweepJobs == 0 {
		c.MaxSweepJobs = 4096
	}
	if c.SSEKeepAlive == 0 {
		c.SSEKeepAlive = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	// The default Runner is built in New, after the StateDir store is
	// opened, so it can be wired through the sweeper.
	return c
}

func (c Config) limits() Limits {
	lim := Limits{MaxAccesses: c.MaxAccesses, MaxSweepJobs: c.MaxSweepJobs}
	return lim
}

// Server is the HTTP subsystem: handlers, the bounded job queue, the
// job store and the metrics registry. Create with New, mount Handler,
// and on shutdown call BeginShutdown then Drain.
type Server struct {
	cfg     Config
	log     *slog.Logger
	runner  Runner
	store   *jobStore
	queue   *queue
	metrics *metrics
	mux     *http.ServeMux

	// simSem bounds synchronous simulate requests the way the queue
	// bounds sweeps; a full semaphore is backpressure, not a wait.
	simSem chan struct{}

	// tenants indexes admission state by tenant name; tenantKeys by
	// bearer key. multiTenant is true iff a keyfile was configured (the
	// maps then exclude the implicit default tenant).
	tenants     map[string]*tenantState
	tenantKeys  map[string]*tenantState
	multiTenant bool
	// drainEst feeds the adaptive Retry-After hint.
	drainEst drainEstimator

	// persistStore and journal are non-nil iff Config.StateDir is set.
	persistStore *persist.ResultStore
	journal      *persist.Journal

	draining atomic.Bool
	closing  chan struct{} // closed by BeginShutdown; ends SSE streams
}

// New assembles a server. The worker pool starts immediately; when
// Config.StateDir is set, the journal is replayed first so restored
// jobs are visible (and interrupted ones re-enqueued) before the
// server takes traffic. Only opening the state dir can fail — a
// damaged journal tail or corrupt store entries degrade instead.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		runner:  cfg.Runner,
		store:   newJobStore(cfg.MaxJobs),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
		simSem:  make(chan struct{}, cfg.Workers),
		closing: make(chan struct{}),

		tenants:    make(map[string]*tenantState),
		tenantKeys: make(map[string]*tenantState),
	}
	if cfg.Tenants != nil {
		s.multiTenant = true
		for _, name := range cfg.Tenants.Names() {
			t, _ := cfg.Tenants.Get(name)
			st := newTenantState(*t)
			s.tenants[t.Name] = st
			s.tenantKeys[t.Key] = st
		}
	} else {
		// Registry-less: one implicit tenant with no limits, so the
		// single-tenant server behaves exactly as before tenancy.
		s.tenants[tenant.DefaultName] = &tenantState{name: tenant.DefaultName, weight: 1}
	}

	var replayed []persist.Record
	if cfg.StateDir != "" {
		store, err := persist.OpenStore(filepath.Join(cfg.StateDir, "store"))
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.persistStore = store
		journal, recs, err := persist.OpenJournal(filepath.Join(cfg.StateDir, "journal.jsonl"))
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.journal = journal
		replayed = recs
		if n := journal.Dropped(); n > 0 {
			s.log.Warn("journal tail damaged; truncated to last intact record",
				"dropped_bytes", n, "replayed", journal.Replayed())
		}
	}
	if s.runner == nil {
		opts := hybridtlb.SweepOptions{
			Parallelism: cfg.SweepParallelism,
			Retry:       cfg.Retry,
			Faults:      cfg.Faults,
		}
		if s.persistStore != nil {
			opts.Store = s.persistStore
		}
		s.runner = hybridtlb.NewSweeper(opts)
	}
	s.queue = newQueue(cfg.Workers, cfg.QueueDepth, s.runJob)
	// Seed the scheduler with every known tenant's fair-share weight;
	// tenants appearing only in the journal are added lazily at weight 1.
	for name, st := range s.tenants {
		s.queue.addTenant(name, st.weight)
	}
	if len(replayed) > 0 {
		s.recover(replayed)
	}

	s.route("POST /v1/simulate", s.handleSimulate)
	s.route("POST /v1/sweeps", s.handleCreateSweep)
	s.route("GET /v1/sweeps", s.handleListSweeps)
	s.route("GET /v1/sweeps/{id}", s.handleGetSweep)
	s.route("DELETE /v1/sweeps/{id}", s.handleCancelSweep)
	s.route("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	s.route("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		// Registered through route() so profile fetches appear in the
		// access log and request metrics; each fixed pattern is one
		// bounded label (pprof.Index serves the named sub-profiles
		// under the trailing-slash pattern itself).
		s.route("GET /debug/pprof/", pprof.Index)
		s.route("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.route("GET /debug/pprof/profile", pprof.Profile)
		s.route("GET /debug/pprof/symbol", pprof.Symbol)
		s.route("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginShutdown flips the server to draining: /readyz turns 503 (so load
// balancers stop routing here), new sweep submissions are refused, and
// open SSE streams are told to finish. Call it before http.Server.
// Shutdown so in-flight polls still complete.
func (s *Server) BeginShutdown() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.closing)
		s.log.Info("server draining: refusing new jobs")
	}
}

// Drain stops queue intake and waits for queued and running jobs to
// finish; when ctx expires first, running jobs are canceled and Drain
// returns the context's error after the workers stop. Always preceded
// by BeginShutdown (Drain calls it defensively).
func (s *Server) Drain(ctx context.Context) error {
	s.BeginShutdown()
	err := s.queue.drain(ctx)
	if err != nil {
		s.log.Warn("drain deadline expired; in-flight jobs canceled", "err", err)
	} else {
		s.log.Info("drain complete: all jobs finished")
	}
	return err
}

// route registers a handler wrapped with panic recovery, metrics and
// slog access logging, labeled by the route pattern (bounded
// cardinality).
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.log.Error("handler panic", "route", pattern, "panic", fmt.Sprint(p))
				if !sw.wrote {
					writeError(w, &apiError{Status: http.StatusInternalServerError,
						Code: codeInternal, Message: "internal error"})
				}
			}
			d := time.Since(start)
			s.metrics.observeRequest(pattern, sw.status(), d)
			s.log.Info("http",
				"method", r.Method,
				"path", r.URL.Path,
				"route", pattern,
				"code", sw.status(),
				"bytes", sw.bytes,
				"dur", d.Round(time.Microsecond),
				"remote", r.RemoteAddr,
			)
		}()
		h(sw, r)
	})
}

// statusWriter captures the response code and size for logs and
// metrics, forwarding Flush so SSE streaming keeps working.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}

// handleSimulate runs one (or one static-ideal family of) simulation
// synchronously, bounded by the worker count and the request timeout.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	ts, ok := s.authorize(w, r)
	if !ok {
		return
	}
	// Rate-limit before reading the body: shedding should cost the
	// server as close to nothing as possible.
	if !s.admitRate(w, ts) {
		return
	}
	var req SimulateRequest
	if apiErr := decodeJSON(w, r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if apiErr := req.validate(s.cfg.limits()); apiErr != nil {
		writeError(w, apiErr)
		return
	}

	// The tenant's in-flight quota spans sync and async work alike: a
	// tenant at quota cannot sidestep it by switching endpoints.
	if !ts.tryAcquire() {
		s.shed(w, ts, shedQuota, s.retryAfterHint(s.queue.tenantDepth(ts.name)),
			fmt.Sprintf("tenant %q is at its in-flight quota (%d)", ts.name, ts.maxInFlight))
		return
	}
	defer ts.release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SimulateTimeout)
	defer cancel()

	// Admission control: at most Workers synchronous simulations at
	// once; an overloaded server answers 429 instead of piling up
	// goroutines.
	select {
	case s.simSem <- struct{}{}:
		defer func() { <-s.simSem }()
	default:
		s.shed(w, ts, shedCapacity, s.retryAfterHint(s.queue.depth()), "all workers busy")
		return
	}

	var res hybridtlb.SimulationResult
	var err error
	if req.StaticIdeal {
		res, err = hybridtlb.SimulateStaticIdealContext(ctx, req.toConfig())
	} else {
		// Route through the shared sweeper: repeated configs are served
		// from the server-lifetime result cache.
		var out []hybridtlb.SweepResult
		out, err = s.runner.Run(ctx, []hybridtlb.SimulationConfig{req.toConfig()}, nil)
		if err == nil {
			res = out[0].SimulationResult
		}
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, &apiError{Status: http.StatusGatewayTimeout, Code: codeTimeout,
			Message: fmt.Sprintf("simulation exceeded the %v request budget", s.cfg.SimulateTimeout)})
		return
	case errors.Is(err, context.Canceled):
		// Client went away; the status is for the access log only.
		writeError(w, &apiError{Status: http.StatusServiceUnavailable, Code: codeTimeout,
			Message: "request canceled"})
		return
	case err != nil:
		writeError(w, &apiError{Status: http.StatusInternalServerError, Code: codeInternal,
			Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, toResultJSON(res))
}

// handleCreateSweep validates and expands the grid, then enqueues it;
// the response is 202 + job ID, 429 when the queue is full, 503 when
// draining.
func (s *Server) handleCreateSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, &apiError{Status: http.StatusServiceUnavailable, Code: codeShuttingDown,
			Message: "server is draining; not accepting new sweeps"})
		return
	}
	ts, ok := s.authorize(w, r)
	if !ok {
		return
	}
	if !s.admitRate(w, ts) {
		return
	}
	var req SweepRequest
	if apiErr := decodeJSON(w, r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	prio, ok := ParsePriority(req.Priority)
	if !ok {
		writeError(w, invalidField("priority",
			"unknown priority %q (use \"interactive\" or \"batch\")", req.Priority))
		return
	}
	cfgs, echoes, apiErr := req.expand(s.cfg.limits())
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}

	// The job holds one in-flight slot from here until its terminal
	// transition in runJob (or until a failed submit below).
	if !ts.tryAcquire() {
		s.shed(w, ts, shedQuota, s.retryAfterHint(s.queue.tenantDepth(ts.name)),
			fmt.Sprintf("tenant %q is at its in-flight quota (%d)", ts.name, ts.maxInFlight))
		return
	}

	j := newJob(cfgs, echoes, ts.name, prio)
	// Journal acceptance before the job can reach a worker, so a crash
	// at any later point leaves a request we can re-expand on restart.
	s.journalAccepted(j, &req)
	switch err := s.queue.submit(j); {
	case errors.Is(err, errQueueFull):
		ts.release()
		s.journalState(j.id, "rejected", "")
		s.shed(w, ts, shedQueue, s.retryAfterHint(s.queue.tenantDepth(ts.name)),
			fmt.Sprintf("tenant %q sweep queue full (%d waiting)", ts.name, s.queue.tenantDepth(ts.name)))
		return
	case errors.Is(err, errQueueClosed):
		ts.release()
		s.journalState(j.id, "rejected", "")
		writeError(w, &apiError{Status: http.StatusServiceUnavailable, Code: codeShuttingDown,
			Message: "server is draining; not accepting new sweeps"})
		return
	case err != nil:
		ts.release()
		s.journalState(j.id, "rejected", "")
		writeError(w, &apiError{Status: http.StatusInternalServerError, Code: codeInternal, Message: err.Error()})
		return
	}
	s.noteEvictions(s.store.add(j))
	s.log.Info("sweep accepted", "job", j.id, "tenant", ts.name,
		"priority", prio.String(), "cells", len(cfgs), "queued", s.queue.depth())
	writeJSON(w, http.StatusAccepted, struct {
		ID        string `json:"id"`
		Total     int    `json:"total"`
		StatusURL string `json:"status_url"`
		EventsURL string `json:"events_url"`
	}{j.id, len(cfgs), "/v1/sweeps/" + j.id, "/v1/sweeps/" + j.id + "/events"})
}

// journalAccepted, journalState and noteEvictions append to the job
// journal when one is configured; append failures are logged and
// tolerated — durability degrades, service does not.
func (s *Server) journalAccepted(j *job, req *SweepRequest) {
	if s.journal == nil {
		return
	}
	raw, err := json.Marshal(req)
	if err == nil {
		err = s.journal.Append(persist.Record{
			Type: persist.RecordAccepted, Job: j.id, Time: time.Now().UTC(),
			Cells: len(j.configs), Request: raw,
			Tenant: j.tenant, Priority: j.priority.String(),
		})
	}
	if err != nil {
		s.log.Warn("journal append failed", "job", j.id, "err", err)
	}
}

func (s *Server) journalState(id, state, errMsg string) {
	if s.journal == nil {
		return
	}
	err := s.journal.Append(persist.Record{
		Type: persist.RecordState, Job: id, Time: time.Now().UTC(),
		State: state, Error: errMsg,
	})
	if err != nil {
		s.log.Warn("journal append failed", "job", id, "err", err)
	}
}

func (s *Server) noteEvictions(ids []string) {
	for _, id := range ids {
		s.log.Info("sweep evicted by retention cap", "job", id)
		if s.journal == nil {
			continue
		}
		err := s.journal.Append(persist.Record{
			Type: persist.RecordEvicted, Job: id, Time: time.Now().UTC(),
		})
		if err != nil {
			s.log.Warn("journal append failed", "job", id, "err", err)
		}
	}
}

// runJob executes one queued sweep on a worker goroutine.
func (s *Server) runJob(base context.Context, j *job) {
	// The in-flight slot acquired at admission is held until the job's
	// terminal transition, so MaxInFlight bounds queued+running work. A
	// finished sweep returns it before its state is published, so a
	// client that sees the job terminal can submit again at once.
	ctx, cancel := context.WithTimeout(base, s.cfg.JobTimeout)
	defer cancel()
	if !j.start(cancel) {
		s.releaseJob(j)
		s.journalState(j.id, string(JobCanceled), "")
		s.metrics.observeJob(JobCanceled, j.tenant)
		s.log.Info("sweep canceled before start", "job", j.id)
		return
	}
	s.journalState(j.id, string(JobRunning), "")
	s.metrics.workersBusy.Add(1)
	defer s.metrics.workersBusy.Add(-1)

	start := time.Now()
	// Attach an epoch probe to every cell the request did not claim for
	// itself: the job's epoch counter then ticks at every simulation
	// epoch boundary, feeding the per-job gauge and job JSON. Probes go
	// on a copy so j.configs (shared with snapshots) stays untouched.
	cfgs := make([]hybridtlb.SimulationConfig, len(j.configs))
	copy(cfgs, j.configs)
	probe := func(hybridtlb.EpochSample) { j.epochs.Add(1) }
	for i := range cfgs {
		if cfgs[i].Probe == nil {
			cfgs[i].Probe = probe
		}
	}
	results, err := s.runner.Run(ctx, cfgs, func(done, _ int) {
		j.setProgress(done)
	})
	s.releaseJob(j)
	state := j.finish(results, err)
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	s.journalState(j.id, string(state), errMsg)
	s.noteEvictions(s.store.enforceCap())
	s.metrics.observeJob(state, j.tenant)
	s.drainEst.observe(time.Since(start))
	s.pruneStore()

	stats := s.runner.Stats()
	s.log.Info("sweep finished",
		"job", j.id,
		"state", string(state),
		"cells", len(j.configs),
		"dur", time.Since(start).Round(time.Millisecond),
		"epochs", j.epochs.Load(),
		"cache_hits", stats.Hits,
		"cache_misses", stats.Misses,
	)
}

func (s *Server) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	ts, ok := s.authorize(w, r)
	if !ok {
		return
	}
	all := s.store.list()
	sweeps := make([]JobJSON, 0, len(all))
	for _, j := range all {
		// Tenants see only their own jobs; the registry-less server has
		// one tenant, so everyone sees everything as before.
		if !s.multiTenant || j.Tenant == ts.name {
			sweeps = append(sweeps, j)
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Sweeps []JobJSON `json:"sweeps"`
	}{sweeps})
}

// getJob resolves {id} to a job the authenticated tenant owns. Another
// tenant's job answers 404, not 403 — job IDs must not be probeable.
func (s *Server) getJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	ts, ok := s.authorize(w, r)
	if !ok {
		return nil, false
	}
	id := r.PathValue("id")
	j, found := s.store.get(id)
	if found && s.multiTenant && j.tenant != ts.name {
		j, found = nil, false
	}
	if !found {
		if s.store.isEvicted(id) {
			writeError(w, &apiError{Status: http.StatusGone, Code: codeGone,
				Message: fmt.Sprintf("sweep %q was evicted by the retention cap (-max-jobs)", id)})
			return nil, false
		}
		writeError(w, &apiError{Status: http.StatusNotFound, Code: codeNotFound,
			Message: fmt.Sprintf("no sweep %q", id)})
		return nil, false
	}
	return j, true
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot(true))
}

func (s *Server) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	if !j.requestCancel() {
		writeError(w, &apiError{Status: http.StatusConflict, Code: codeConflict,
			Message: fmt.Sprintf("sweep %s already %s", j.id, j.snapshot(false).State)})
		return
	}
	s.log.Info("sweep cancel requested", "job", j.id)
	writeJSON(w, http.StatusAccepted, j.progress())
}

// handleSweepEvents streams job progress as Server-Sent Events: a
// "progress" event per update and a final "done" event carrying the
// terminal snapshot (without the result payload — fetch that from the
// status URL). The stream ends when the job finishes, the client
// disconnects, or the server drains.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, &apiError{Status: http.StatusInternalServerError, Code: codeInternal,
			Message: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	subID, wake := j.subscribe()
	defer j.unsubscribe(subID)

	// Keepalive comments on an idle ticker stop proxies and LBs from
	// reaping streams that are quiet because a long sweep has not
	// finished a cell lately.
	var keepalive <-chan time.Time
	if s.cfg.SSEKeepAlive > 0 {
		ticker := time.NewTicker(s.cfg.SSEKeepAlive)
		defer ticker.Stop()
		keepalive = ticker.C
	}

	for {
		p := j.progress()
		if p.State.terminal() {
			writeSSE(w, "done", j.snapshot(false))
			flusher.Flush()
			return
		}
		writeSSE(w, "progress", p)
		flusher.Flush()
	wait:
		for {
			select {
			case <-wake:
				break wait
			case <-keepalive:
				io.WriteString(w, ": keepalive\n\n") //nolint:errcheck // disconnect surfaces via r.Context()
				flusher.Flush()
			case <-r.Context().Done():
				return
			case <-s.closing:
				writeSSE(w, "closing", p)
				flusher.Flush()
				return
			}
		}
	}
}

// writeSSE emits one event in text/event-stream framing.
func writeSSE(w http.ResponseWriter, event string, v any) {
	fmt.Fprintf(w, "event: %s\n", event)
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(`{"error":"encoding failed"}`)
	}
	fmt.Fprintf(w, "data: %s\n\n", data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	stats := s.runner.Stats()
	g := gauges{
		queueDepth:    s.queue.depth(),
		queueCapacity: s.queue.capacity(),
		workers:       s.cfg.Workers,
		workersBusy:   s.metrics.workersBusy.Load(),
		jobStates:     s.store.countByState(),
		cacheJobs:     stats.Jobs,
		cacheHits:     stats.Hits,
		cacheMisses:   stats.Misses,
		retries:       stats.Retries,
		evictions:     s.store.evictionCount(),
		jobEpochs:     s.store.runningEpochs(),
		ready:         !s.draining.Load(),

		tenantQueue:    s.queue.tenantDepths(),
		tenantInflight: make(map[string]int64, len(s.tenants)),
		retryHint:      s.retryAfterHint(s.queue.depth()).Seconds(),
	}
	for name, ts := range s.tenants {
		g.tenantInflight[name] = ts.inflight.Load()
	}
	if s.persistStore != nil {
		g.store = s.persistStore.Stats()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, g)
}

// pruneStore enforces Config.StoreMaxBytes after a job finishes. A
// failed prune is logged and tolerated: an oversized cache degrades
// disk usage, not service.
func (s *Server) pruneStore() {
	if s.persistStore == nil || s.cfg.StoreMaxBytes <= 0 {
		return
	}
	n, err := s.persistStore.Prune(s.cfg.StoreMaxBytes)
	if err != nil {
		s.log.Warn("store prune failed", "err", err)
	} else if n > 0 {
		s.log.Info("store pruned to size cap", "removed", n, "max_bytes", s.cfg.StoreMaxBytes)
	}
}

// Close releases durable-state resources (the journal file); call it
// after Drain. A server without a StateDir has nothing to close.
func (s *Server) Close() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}
