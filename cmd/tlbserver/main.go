// Command tlbserver serves the simulator over HTTP: synchronous
// simulations on POST /v1/simulate, asynchronous sweep jobs on
// POST /v1/sweeps (202 + job ID, status by polling or SSE), with a
// bounded worker pool, a server-lifetime result cache, Prometheus-text
// /metrics, health/readiness probes and graceful drain on SIGTERM.
//
// Examples:
//
//	tlbserver -addr :8080 -workers 2 -queue 4
//	tlbserver -addr :8080 -state-dir /var/lib/tlbserver
//	curl -s localhost:8080/v1/simulate -d '{"scheme":"anchor","workload":"gups","scenario":"medium"}'
//	curl -s localhost:8080/v1/sweeps -d '{"schemes":["base","anchor"],"workloads":["gups"],"scenarios":["demand","medium"]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hybridtlb"
	"hybridtlb/internal/buildinfo"
	"hybridtlb/internal/server"
	"hybridtlb/internal/tenant"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 2, "sweep worker pool size")
		queueDepth   = flag.Int("queue", 8, "bounded sweep queue depth (full queue answers 429)")
		sweepPar     = flag.Int("sweep-parallel", 0, "concurrent simulations per sweep (0: GOMAXPROCS)")
		simTimeout   = flag.Duration("request-timeout", 60*time.Second, "synchronous simulate budget")
		jobTimeout   = flag.Duration("job-timeout", 15*time.Minute, "per-sweep-job budget")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "graceful shutdown budget before in-flight jobs are canceled")
		maxAccesses  = flag.Uint64("max-accesses", 5_000_000, "per-simulation accesses cap")
		maxCells     = flag.Int("max-cells", 4096, "per-sweep expanded grid cap")
		maxJobs      = flag.Int("max-jobs", 512, "retained sweep jobs before the oldest terminal ones are evicted (0: unlimited)")
		stateDir     = flag.String("state-dir", "", "directory for the durable result store and job journal (empty: in-memory only)")
		retries      = flag.Int("retries", 1, "attempts per sweep cell before its error is final")
		chaos        = flag.Float64("chaos", 0, "fault-injection rate [0,1) for transient cell failures (testing only)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "deterministic seed for fault injection")
		chaosDelay   = flag.Duration("chaos-delay", 0, "max injected per-cell delay (testing only)")
		logJSON      = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		keyfile      = flag.String("tenant-keyfile", "", "JSON tenant keyfile; enables bearer-key auth, per-tenant rate/quota limits and weighted fair-share scheduling")
		retryAfter   = flag.Duration("retry-after", 2*time.Second, "floor for the adaptive Retry-After hint on 429 responses")
		enablePprof  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in; reveals internals)")

		storeMaxBytes = flag.Int64("store-max-bytes", 0, "prune the durable result store oldest-first past this size after each job (0: unbounded)")
		showVersion   = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.Version())
		return
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	var faults *hybridtlb.FaultInjector
	if *chaos > 0 || *chaosDelay > 0 {
		faults = &hybridtlb.FaultInjector{
			Seed:          *chaosSeed,
			TransientRate: *chaos,
			Delay:         *chaosDelay,
		}
		log.Warn("fault injection enabled", "rate", *chaos, "seed", *chaosSeed, "delay", *chaosDelay)
	}

	var registry *tenant.Registry
	if *keyfile != "" {
		var err error
		registry, err = tenant.Load(*keyfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tlbserver:", err)
			os.Exit(2)
		}
		log.Info("multi-tenant admission enabled", "keyfile", *keyfile, "tenants", registry.Len())
	}

	cfg := server.Config{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		SweepParallelism: *sweepPar,
		SimulateTimeout:  *simTimeout,
		JobTimeout:       *jobTimeout,
		MaxAccesses:      *maxAccesses,
		MaxSweepJobs:     *maxCells,
		MaxJobs:          *maxJobs,
		StateDir:         *stateDir,
		StoreMaxBytes:    *storeMaxBytes,
		Retry:            hybridtlb.RetryPolicy{MaxAttempts: *retries, Seed: *chaosSeed},
		Faults:           faults,
		Logger:           log,
		RetryAfter:       *retryAfter,
		Tenants:          registry,
		EnablePprof:      *enablePprof,
	}

	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlbserver:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)

	go func() {
		log.Info("tlbserver listening", "addr", *addr, "workers", *workers, "queue", *queueDepth)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "tlbserver:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: flip readiness first so load balancers stop
	// routing here and new sweeps get 503, then let queued and running
	// sweep jobs complete (bounded by -drain-timeout) while the
	// listener stays up — clients can still poll their results during
	// the drain. Only then close the HTTP side.
	log.Info("signal received; draining", "timeout", *drainTimeout)
	srv.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(shutdownCtx)
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "err", err)
	}
	if err := srv.Close(); err != nil {
		log.Warn("closing journal", "err", err)
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "tlbserver: drain:", drainErr)
		os.Exit(1)
	}
	log.Info("tlbserver exited cleanly")
}
