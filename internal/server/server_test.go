package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridtlb"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// fakeRunner is a controllable Runner: it can block until released,
// report scripted progress, and count calls — so queue, SSE and drain
// behavior are tested without paying for real simulations.
type fakeRunner struct {
	mu      sync.Mutex
	calls   int
	stats   hybridtlb.CacheStats
	block   chan struct{} // when non-nil, Run waits for close or ctx
	started chan struct{} // when non-nil, signaled as each Run begins
	// epochsPerCell, when > 0, fires that many probe samples on every
	// config carrying a Probe, before signaling started — so tests can
	// scrape mid-run state after the started handshake.
	epochsPerCell int
}

func (f *fakeRunner) Run(ctx context.Context, cfgs []hybridtlb.SimulationConfig, progress func(done, total int)) ([]hybridtlb.SweepResult, error) {
	f.mu.Lock()
	f.calls++
	f.stats.Jobs += len(cfgs)
	f.stats.Misses += len(cfgs)
	block, started := f.block, f.started
	epochs := f.epochsPerCell
	f.mu.Unlock()
	for _, cfg := range cfgs {
		if cfg.Probe == nil {
			continue
		}
		for e := 1; e <= epochs; e++ {
			cfg.Probe(hybridtlb.EpochSample{Epoch: e})
		}
	}
	if started != nil {
		started <- struct{}{}
	}
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return make([]hybridtlb.SweepResult, len(cfgs)), ctx.Err()
		}
	}
	out := make([]hybridtlb.SweepResult, len(cfgs))
	for i, cfg := range cfgs {
		out[i].SimulationResult = hybridtlb.SimulationResult{
			Scheme: cfg.Scheme, Workload: cfg.Workload, Scenario: cfg.Scenario,
		}
		if progress != nil {
			progress(i+1, len(cfgs))
		}
	}
	return out, nil
}

func (f *fakeRunner) Stats() hybridtlb.CacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// mustNew builds a Server, failing the test on a construction error
// (only possible with a -state-dir that cannot be opened).
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = discardLogger()
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Field   string `json:"field"`
	} `json:"error"`
}

func TestSimulateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: &fakeRunner{}})
	cases := []struct {
		name, body, field string
	}{
		{"unknown scheme", `{"scheme":"bogus","workload":"gups","scenario":"demand"}`, "scheme"},
		{"missing workload", `{"scheme":"anchor","scenario":"demand"}`, "workload"},
		{"unknown scenario", `{"scheme":"anchor","workload":"gups","scenario":"nope"}`, "scenario"},
		{"pressure out of range", `{"scheme":"anchor","workload":"gups","scenario":"demand","pressure":1.5}`, "pressure"},
		{"accesses over cap", `{"scheme":"anchor","workload":"gups","scenario":"demand","accesses":999999999}`, "accesses"},
		{"unknown cost model", `{"scheme":"anchor","workload":"gups","scenario":"demand","cost_model":"psychic"}`, "cost_model"},
		{"negative shards", `{"scheme":"anchor","workload":"gups","scenario":"demand","shards":-1}`, "shards"},
		{"footprint over cap", `{"scheme":"anchor","workload":"gups","scenario":"demand","footprint_pages":16777217}`, "footprint_pages"},
		{"invalid fixed distance", `{"scheme":"anchor","workload":"gups","scenario":"demand","fixed_anchor_distance":3}`, "fixed_anchor_distance"},
		{"invalid fixed distance, no anchors", `{"scheme":"base","workload":"gups","scenario":"demand","fixed_anchor_distance":131072}`, "fixed_anchor_distance"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/simulate", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			env := decodeBody[errEnvelope](t, resp)
			if env.Error.Code != codeInvalidRequest {
				t.Errorf("code = %q, want %q", env.Error.Code, codeInvalidRequest)
			}
			if env.Error.Field != tc.field {
				t.Errorf("field = %q, want %q", env.Error.Field, tc.field)
			}
		})
	}

	t.Run("malformed body", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/simulate", `{"scheme":`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		resp.Body.Close()
	})
	t.Run("unknown field", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/simulate", `{"scheme":"anchor","workload":"gups","scenario":"demand","warp":9}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		resp.Body.Close()
	})
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: &fakeRunner{}, MaxSweepJobs: 4})
	t.Run("empty axis", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/sweeps", `{"schemes":["anchor"],"workloads":[],"scenarios":["demand"]}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		env := decodeBody[errEnvelope](t, resp)
		if env.Error.Field != "workloads" {
			t.Errorf("field = %q, want workloads", env.Error.Field)
		}
	})
	t.Run("grid over cap", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/sweeps",
			`{"schemes":["base","anchor","thp"],"workloads":["gups","mcf"],"scenarios":["demand"]}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		env := decodeBody[errEnvelope](t, resp)
		if !strings.Contains(env.Error.Message, "over the server limit") {
			t.Errorf("message = %q, want grid-size complaint", env.Error.Message)
		}
	})
	// Six axes of n entries each: 2048^6 = 2^66 wraps to 0 in int, and
	// 1625^6 wraps negative. Multiplied in one expression, the first
	// passed the cap and expanded until memory ran out, and the second
	// panicked preallocating the grid.
	for _, n := range overflowAxes {
		if wrapped := n * n * n * n * n * n; wrapped > 0 {
			t.Fatalf("%d^6 = %d in one int expression: it no longer wraps", n, wrapped)
		}
		t.Run(fmt.Sprintf("grid of %d^6 overflows int", n), func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/sweeps", string(gridBody(t, n)))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			env := decodeBody[errEnvelope](t, resp)
			if !strings.Contains(env.Error.Message, "more than 4 jobs, over the server limit") {
				t.Errorf("message = %q, want one naming the limit", env.Error.Message)
			}
		})
	}
	t.Run("uncapped grid overflows int", func(t *testing.T) {
		var req SweepRequest
		if err := json.Unmarshal(gridBody(t, overflowAxes[0]), &req); err != nil {
			t.Fatal(err)
		}
		cfgs, _, apiErr := req.expand(Limits{})
		if apiErr == nil || apiErr.Status != http.StatusBadRequest || cfgs != nil {
			t.Fatalf("expand = %d cells, error %v; want a 400 and no cells", len(cfgs), apiErr)
		}
		if want := fmt.Sprintf("more than %d jobs", math.MaxInt); !strings.Contains(apiErr.Message, want) {
			t.Errorf("message = %q, want one containing %q", apiErr.Message, want)
		}
	})
	for _, tc := range []struct{ name, body, field string }{
		{"bad cell name", `{"schemes":["warp"],"workloads":["gups"],"scenarios":["demand"]}`, "scheme"},
		{"footprint over cap", `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"],"footprint_pages":16777217}`, "footprint_pages"},
		{"invalid distance", `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"],"distances":[0,3]}`, "fixed_anchor_distance"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/sweeps", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			env := decodeBody[errEnvelope](t, resp)
			if env.Error.Field != tc.field {
				t.Errorf("field = %q, want %s", env.Error.Field, tc.field)
			}
		})
	}
	// "shards" is deprecated and ignored, but still decoded: old clients'
	// sweeps are accepted, and a negative value is still rejected.
	t.Run("deprecated shards", func(t *testing.T) {
		submitSweep(t, ts, `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"],"shards":4}`)
		resp := postJSON(t, ts.URL+"/v1/sweeps", `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"],"shards":-1}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		env := decodeBody[errEnvelope](t, resp)
		if env.Error.Field != "shards" {
			t.Errorf("field = %q, want shards", env.Error.Field)
		}
	})
}

// overflowAxes are axis lengths whose six-axis grid overflows int.
var overflowAxes = []int{2048, 1625}

// gridBody is a sweep request whose six axes each hold n entries.
func gridBody(t testing.TB, n int) []byte {
	t.Helper()
	req := SweepRequest{
		Schemes:   make([]string, n),
		Workloads: make([]string, n),
		Scenarios: make([]string, n),
		Seeds:     make([]int64, n),
		Pressures: make([]float64, n),
		Distances: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		req.Schemes[i], req.Workloads[i], req.Scenarios[i] = "base", "gups", "demand"
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) >= 1<<20 {
		t.Fatalf("a grid of %d per axis is %d bytes, over the body limit", n, len(b))
	}
	return b
}

type acceptedJSON struct {
	ID        string `json:"id"`
	Total     int    `json:"total"`
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

// submitSweep posts a small grid and returns the 202 payload.
func submitSweep(t *testing.T, ts *httptest.Server, body string) acceptedJSON {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/sweeps", body)
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status = %d, want 202 (%s)", resp.StatusCode, b)
	}
	acc := decodeBody[acceptedJSON](t, resp)
	if acc.ID == "" || acc.StatusURL == "" {
		t.Fatalf("incomplete 202 payload: %+v", acc)
	}
	return acc
}

// waitTerminal polls the status endpoint until the job leaves
// queued/running.
func waitTerminal(t *testing.T, ts *httptest.Server, statusURL string) JobJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + statusURL)
		if err != nil {
			t.Fatalf("GET %s: %v", statusURL, err)
		}
		j := decodeBody[JobJSON](t, resp)
		if j.State.terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job at %s never reached a terminal state", statusURL)
	return JobJSON{}
}

const tinySweep = `{"schemes":["base","anchor"],"workloads":["gups"],"scenarios":["medium"],"accesses":2000}`

// TestSweepEndToEnd runs a real two-cell sweep through the full HTTP
// path and checks the results are identical to calling the library
// directly — the serving layer must not perturb the reproduction.
func TestSweepEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	acc := submitSweep(t, ts, tinySweep)
	if acc.Total != 2 {
		t.Fatalf("total = %d, want 2", acc.Total)
	}
	j := waitTerminal(t, ts, acc.StatusURL)
	if j.State != JobDone {
		t.Fatalf("state = %s (error %q), want done", j.State, j.Error)
	}
	if len(j.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(j.Results))
	}

	want, err := hybridtlb.SimulateSweep(context.Background(), []hybridtlb.SimulationConfig{
		{Scheme: "base", Workload: "gups", Scenario: "medium", Accesses: 2000, Seed: 42},
		{Scheme: "anchor", Workload: "gups", Scenario: "medium", Accesses: 2000, Seed: 42},
	}, hybridtlb.SweepOptions{})
	if err != nil {
		t.Fatalf("direct sweep: %v", err)
	}
	for i, cell := range j.Results {
		if cell.Error != "" {
			t.Fatalf("cell %d error: %s", i, cell.Error)
		}
		if got, wantMisses := cell.Result.Misses, want[i].Stats.Misses; got != wantMisses {
			t.Errorf("cell %d misses = %d, want %d (server must match library exactly)", i, got, wantMisses)
		}
		if got := cell.Result.TranslationCPI; got != want[i].TranslationCPI {
			t.Errorf("cell %d CPI = %v, want %v", i, got, want[i].TranslationCPI)
		}
	}

	// A repeated submission must be served from the server-lifetime
	// cache: every cell cached, and /metrics reports the hits.
	acc2 := submitSweep(t, ts, tinySweep)
	j2 := waitTerminal(t, ts, acc2.StatusURL)
	if j2.State != JobDone {
		t.Fatalf("repeat state = %s, want done", j2.State)
	}
	if j2.Cached != 2 {
		t.Errorf("repeat cached = %d, want 2", j2.Cached)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "tlbserver_sweep_cache_hits_total 2") {
		t.Errorf("metrics missing nonzero cache hits:\n%s", grepMetric(string(body), "cache_hits"))
	}
}

func grepMetric(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestBackpressure fills the worker pool and the bounded queue, then
// asserts the next submission is shed with 429 + Retry-After instead of
// queueing unboundedly.
func TestBackpressure(t *testing.T) {
	fr := &fakeRunner{block: make(chan struct{}), started: make(chan struct{}, 8)}
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4, Runner: fr})

	grid := `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"]}`
	// Occupy both workers...
	for i := 0; i < 2; i++ {
		submitSweep(t, ts, grid)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-fr.started:
		case <-time.After(5 * time.Second):
			t.Fatal("worker never picked up job")
		}
	}
	// ...fill the queue...
	for i := 0; i < 4; i++ {
		submitSweep(t, ts, grid)
	}
	// ...and the next submission must bounce.
	resp := postJSON(t, ts.URL+"/v1/sweeps", grid)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	env := decodeBody[errEnvelope](t, resp)
	if env.Error.Code != codeOverloaded {
		t.Errorf("code = %q, want %q", env.Error.Code, codeOverloaded)
	}
	close(fr.block) // release the workers so cleanup drains fast
}

// TestSimulateBackpressure saturates the synchronous endpoint's
// admission semaphore.
func TestSimulateBackpressure(t *testing.T) {
	fr := &fakeRunner{block: make(chan struct{}), started: make(chan struct{}, 8)}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: fr})

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postJSON(t, ts.URL+"/v1/simulate", `{"scheme":"anchor","workload":"gups","scenario":"demand"}`)
		resp.Body.Close()
	}()
	select {
	case <-fr.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first simulate never started")
	}
	resp := postJSON(t, ts.URL+"/v1/simulate", `{"scheme":"anchor","workload":"gups","scenario":"demand"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	resp.Body.Close()
	close(fr.block)
	<-done
}

// TestSSEProgress streams a job's progress events and asserts the
// sequence ends with a done event.
func TestSSEProgress(t *testing.T) {
	fr := &fakeRunner{}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: fr})
	acc := submitSweep(t, ts, `{"schemes":["base","thp","anchor"],"workloads":["gups"],"scenarios":["demand"]}`)

	resp, err := http.Get(ts.URL + acc.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	var events []string
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
			if events[len(events)-1] == "done" {
				break
			}
		}
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Fatalf("event sequence = %v, want at least one progress then done", events)
	}
	for _, e := range events[:len(events)-1] {
		if e != "progress" {
			t.Errorf("unexpected event %q before done", e)
		}
	}
}

// TestGracefulDrain submits work, begins shutdown, and checks Drain
// finishes the queued jobs rather than dropping them — and that new
// submissions are refused while draining.
func TestGracefulDrain(t *testing.T) {
	fr := &fakeRunner{}
	s := mustNew(t, Config{Workers: 1, QueueDepth: 4, Runner: fr, Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var accs []acceptedJSON
	for i := 0; i < 3; i++ {
		accs = append(accs, submitSweep(t, ts, `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"]}`))
	}
	s.BeginShutdown()

	// Draining refuses new work with 503...
	resp := postJSON(t, ts.URL+"/v1/sweeps", `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	// ...and /readyz flips.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Every accepted job completed; nothing was dropped.
	for _, acc := range accs {
		j := waitTerminal(t, ts, acc.StatusURL)
		if j.State != JobDone {
			t.Errorf("job %s state after drain = %s, want done", acc.ID, j.State)
		}
	}
}

// TestDrainDeadlineCancelsJobs forces the drain budget to expire and
// checks running jobs are canceled, not abandoned.
func TestDrainDeadlineCancelsJobs(t *testing.T) {
	fr := &fakeRunner{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s := mustNew(t, Config{Workers: 1, Runner: fr, Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	acc := submitSweep(t, ts, `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"]}`)
	<-fr.started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain returned nil despite a stuck job")
	}
	j := waitTerminal(t, ts, acc.StatusURL)
	if j.State != JobCanceled {
		t.Errorf("state = %s, want canceled", j.State)
	}
}

func TestCancelSweep(t *testing.T) {
	fr := &fakeRunner{block: make(chan struct{}), started: make(chan struct{}, 1)}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: fr})
	acc := submitSweep(t, ts, `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"]}`)
	<-fr.started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+acc.StatusURL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
	j := waitTerminal(t, ts, acc.StatusURL)
	if j.State != JobCanceled {
		t.Fatalf("state = %s, want canceled", j.State)
	}

	// Cancelling a finished job conflicts.
	resp, err = http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("re-cancel status = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	close(fr.block)
}

func TestNotFoundAndProbes(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: &fakeRunner{}})
	resp, err := http.Get(ts.URL + "/v1/sweeps/swp_nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	env := decodeBody[errEnvelope](t, resp)
	if env.Error.Code != codeNotFound {
		t.Errorf("code = %q, want %q", env.Error.Code, codeNotFound)
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", probe, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestSimulateEndToEnd exercises the synchronous endpoint against the
// real simulator and cross-checks the library.
func TestSimulateEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	simulate := func(body string) ResultJSON {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/simulate", body)
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("status = %d, want 200 (%s)", resp.StatusCode, b)
		}
		return decodeBody[ResultJSON](t, resp)
	}
	got := simulate(`{"scheme":"anchor","workload":"gups","scenario":"medium","accesses":2000,"seed":42}`)

	want, err := hybridtlb.Simulate(hybridtlb.SimulationConfig{
		Scheme: "anchor", Workload: "gups", Scenario: "medium", Accesses: 2000, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Misses != want.Stats.Misses || got.TranslationCPI != want.TranslationCPI {
		t.Errorf("server result (misses %d, cpi %v) != library (misses %d, cpi %v)",
			got.Misses, got.TranslationCPI, want.Stats.Misses, want.TranslationCPI)
	}
	if got.Scheme != "anchor" || got.AnchorDistance == 0 {
		t.Errorf("unexpected result identity: %+v", got)
	}

	// The deprecated "shards" field is accepted and changes nothing.
	sharded := simulate(`{"scheme":"anchor","workload":"gups","scenario":"medium","accesses":2000,"seed":42,"shards":4}`)
	if !reflect.DeepEqual(sharded, got) {
		t.Errorf("\"shards\": 4 changed the result:\n got %+v\nwant %+v", sharded, got)
	}

	// A one-page footprint, under the skewed and chase patterns'
	// granules, simulates too.
	for _, wl := range []string{"canneal", "mcf", "tigr"} {
		simulate(`{"scheme":"anchor","workload":"` + wl + `","scenario":"medium","accesses":2000,"footprint_pages":1}`)
	}
}

func TestListSweeps(t *testing.T) {
	fr := &fakeRunner{}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: fr})
	acc := submitSweep(t, ts, `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"]}`)
	waitTerminal(t, ts, acc.StatusURL)

	resp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Sweeps []JobJSON `json:"sweeps"`
	}](t, resp)
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != acc.ID {
		t.Fatalf("list = %+v, want the one submitted job", list.Sweeps)
	}
	if list.Sweeps[0].Results != nil {
		t.Error("list response must not inline result payloads")
	}
}

// TestMetricsShape asserts the exposition format carries the expected
// families after a little traffic.
func TestMetricsShape(t *testing.T) {
	fr := &fakeRunner{}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: fr})
	acc := submitSweep(t, ts, `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"]}`)
	waitTerminal(t, ts, acc.StatusURL)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`tlbserver_http_requests_total{route="POST /v1/sweeps",code="202"} 1`,
		`tlbserver_jobs_finished_total{state="done"} 1`,
		"tlbserver_queue_capacity",
		"tlbserver_workers 1",
		"tlbserver_http_request_duration_seconds_bucket",
		"tlbserver_ready 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobEpochGauge runs the epoch plumbing end to end over the HTTP
// surface: the per-job counter ticks on probe samples, shows up in the
// running-jobs metrics gauge and the status document, and the gauge
// returns to zero once the job is terminal. The gauge is an unlabeled
// sum over running jobs — a job-ID label would mint a new time series
// per submission (metriclint's cardinality rule); per-job detail lives
// in the job JSON.
func TestJobEpochGauge(t *testing.T) {
	fr := &fakeRunner{
		epochsPerCell: 3,
		block:         make(chan struct{}),
		started:       make(chan struct{}, 1),
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: fr})
	acc := submitSweep(t, ts, tinySweep) // two cells -> 6 epoch samples
	<-fr.started

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := "tlbserver_job_epochs 6"
	if !strings.Contains(string(body), want) {
		t.Errorf("running-job metrics missing %q", want)
	}
	if strings.Contains(string(body), "tlbserver_job_epochs{") {
		t.Error("job epoch gauge grew a label; it must stay an unlabeled sum (unbounded job-ID cardinality)")
	}

	resp, err = http.Get(ts.URL + acc.StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	if j := decodeBody[JobJSON](t, resp); j.State != JobRunning || j.Epochs != 6 {
		t.Errorf("mid-run status = %s with %d epochs, want running with 6", j.State, j.Epochs)
	}

	close(fr.block)
	j := waitTerminal(t, ts, acc.StatusURL)
	if j.State != JobDone || j.Epochs != 6 {
		t.Errorf("terminal status = %s with %d epochs, want done with 6", j.State, j.Epochs)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "tlbserver_job_epochs 0") {
		t.Error("epoch gauge did not return to zero after the job went terminal")
	}
}

// TestRetryAfterFormat pins the header to whole seconds >= 1.
func TestRetryAfterFormat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{{0.1, "1"}, {2, "2"}, {2.5, "3"}} {
		if got := retryAfterSeconds(tc.in); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestJobJSONShape pins the wire format of the status document.
func TestJobJSONShape(t *testing.T) {
	j := newJob(
		[]hybridtlb.SimulationConfig{{Scheme: "anchor", Workload: "gups", Scenario: "demand"}},
		[]SimulateRequest{{Scheme: "anchor", Workload: "gups", Scenario: "demand"}},
		"default", PriorityBatch,
	)
	j.finish([]hybridtlb.SweepResult{{SimulationResult: hybridtlb.SimulationResult{Scheme: "anchor"}, Cached: true}}, nil)
	data, err := json.Marshal(j.snapshot(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"state":"done"`, `"done":1`, `"total":1`, `"cached":1`, `"results":[`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("snapshot JSON missing %s in %s", want, data)
		}
	}
	if strings.Contains(string(data), `"error"`) {
		t.Errorf("successful snapshot carries error field: %s", data)
	}
}

func init() {
	// Quiet the default logger for any path that misses an explicit one.
	slog.SetDefault(discardLogger())
}

var _ Runner = (*hybridtlb.Sweeper)(nil)
