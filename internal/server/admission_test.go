package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hybridtlb"
	"hybridtlb/internal/tenant"
)

// mustRegistry parses an inline keyfile document.
func mustRegistry(t *testing.T, doc string) *tenant.Registry {
	t.Helper()
	reg, err := tenant.Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("tenant.Parse: %v", err)
	}
	return reg
}

// doAuthed sends a request with a bearer key ("" sends none).
func doAuthed(t *testing.T, method, url, key, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp
}

const (
	simBody   = `{"scheme":"anchor","workload":"gups","scenario":"demand","accesses":50}`
	sweepBody = `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"]}`
)

func TestAuthRequiredWithKeyfile(t *testing.T) {
	reg := mustRegistry(t, `{"tenants":[{"name":"a","key":"key-a"}]}`)
	_, ts := newTestServer(t, Config{Runner: &fakeRunner{}, Tenants: reg})

	for _, key := range []string{"", "wrong-key"} {
		resp := doAuthed(t, "POST", ts.URL+"/v1/simulate", key, simBody)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: status %d, want 401", key, resp.StatusCode)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Error("401 missing WWW-Authenticate challenge")
		}
		body := decodeBody[struct {
			Error struct{ Code string }
		}](t, resp)
		if body.Error.Code != codeUnauthenticated {
			t.Fatalf("error code %q, want %q", body.Error.Code, codeUnauthenticated)
		}
	}

	resp := doAuthed(t, "POST", ts.URL+"/v1/simulate", "key-a", simBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid key: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// Health, readiness and metrics stay unauthenticated: probes and
	// scrapers do not hold tenant keys.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d without a key, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestRateLimitSheds(t *testing.T) {
	reg := mustRegistry(t, `{"tenants":[{"name":"a","key":"key-a","rate_per_sec":0.001,"burst":1}]}`)
	_, ts := newTestServer(t, Config{Runner: &fakeRunner{}, Tenants: reg})

	resp := doAuthed(t, "POST", ts.URL+"/v1/simulate", "key-a", simBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	resp = doAuthed(t, "POST", ts.URL+"/v1/simulate", "key-a", simBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	// At 0.001 tokens/sec the next token is ~1000s out; Retry-After
	// must reflect the bucket, not just the queue floor.
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 missing Retry-After")
	}
	var secs int
	fmt.Sscanf(ra, "%d", &secs)
	if secs < 100 {
		t.Fatalf("Retry-After = %s; want the bucket's ~1000s maturity time", ra)
	}
	resp.Body.Close()

	// The shed is visible per tenant and per gate on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(metricsText), `tlbserver_tenant_shed_total{tenant="a",reason="rate"} 1`) {
		t.Errorf("metrics missing per-tenant shed counter:\n%s", metricsText)
	}
}

func TestInflightQuotaSpansEndpoints(t *testing.T) {
	reg := mustRegistry(t, `{"tenants":[{"name":"a","key":"key-a","max_in_flight":1}]}`)
	fr := &fakeRunner{block: make(chan struct{}), started: make(chan struct{}, 4)}
	_, ts := newTestServer(t, Config{Runner: fr, Workers: 2, Tenants: reg})

	resp := doAuthed(t, "POST", ts.URL+"/v1/sweeps", "key-a", sweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first sweep: status %d, want 202", resp.StatusCode)
	}
	accepted := decodeBody[struct{ ID string }](t, resp)
	<-fr.started // the job holds its quota slot on a worker now

	// The same tenant is refused more work — on either endpoint.
	for _, tc := range []struct{ path, body string }{
		{"/v1/sweeps", sweepBody},
		{"/v1/simulate", simBody},
	} {
		resp := doAuthed(t, "POST", ts.URL+tc.path, "key-a", tc.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("POST %s at quota: status %d, want 429", tc.path, resp.StatusCode)
		}
		body := decodeBody[struct {
			Error struct{ Message string }
		}](t, resp)
		if !strings.Contains(body.Error.Message, "quota") {
			t.Fatalf("shed message %q does not name the quota gate", body.Error.Message)
		}
	}

	close(fr.block)
	waitForState(t, ts.URL+"/v1/sweeps/"+accepted.ID, "key-a", JobDone)

	// Terminal job released its slot; the tenant may submit again.
	resp = doAuthed(t, "POST", ts.URL+"/v1/sweeps", "key-a", sweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-release sweep: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
}

// slowStats is a fakeRunner whose Stats, which a worker calls after it
// has published a sweep's terminal state, waits until gate closes.
type slowStats struct {
	*fakeRunner
	gate chan struct{}
}

func (r slowStats) Stats() hybridtlb.CacheStats {
	<-r.gate
	return r.fakeRunner.Stats()
}

// TestTerminalSweepReleasesQuotaFirst: once a client sees its sweep
// done, the tenant's in-flight slot is already free, even while the
// worker is still wrapping the job up.
func TestTerminalSweepReleasesQuotaFirst(t *testing.T) {
	reg := mustRegistry(t, `{"tenants":[{"name":"a","key":"key-a","max_in_flight":1}]}`)
	r := slowStats{fakeRunner: &fakeRunner{}, gate: make(chan struct{})}
	_, ts := newTestServer(t, Config{Runner: r, Workers: 1, Tenants: reg})
	defer close(r.gate)

	resp := doAuthed(t, "POST", ts.URL+"/v1/sweeps", "key-a", sweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first sweep: status %d, want 202", resp.StatusCode)
	}
	accepted := decodeBody[struct{ ID string }](t, resp)
	waitForState(t, ts.URL+"/v1/sweeps/"+accepted.ID, "key-a", JobDone)

	resp = doAuthed(t, "POST", ts.URL+"/v1/sweeps", "key-a", sweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep after the first was seen done: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
}

// waitForState polls a job status URL (with auth) until the job
// reaches the wanted terminal state.
func waitForState(t *testing.T, url, key string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp := doAuthed(t, "GET", url, key, "")
		body := decodeBody[struct{ State JobState }](t, resp)
		if body.State == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job never reached %s", want)
}

func TestTenantJobIsolation(t *testing.T) {
	reg := mustRegistry(t, `{"tenants":[{"name":"a","key":"key-a"},{"name":"b","key":"key-b"}]}`)
	_, ts := newTestServer(t, Config{Runner: &fakeRunner{}, Tenants: reg})

	resp := doAuthed(t, "POST", ts.URL+"/v1/sweeps", "key-a", sweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	accepted := decodeBody[struct{ ID string }](t, resp)

	// Tenant b cannot see, poll, or cancel a's job; the answer is 404,
	// indistinguishable from a nonexistent ID.
	for _, tc := range []struct{ method, path string }{
		{"GET", "/v1/sweeps/" + accepted.ID},
		{"DELETE", "/v1/sweeps/" + accepted.ID},
		{"GET", "/v1/sweeps/" + accepted.ID + "/events"},
	} {
		resp := doAuthed(t, tc.method, ts.URL+tc.path, "key-b", "")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s as b: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	listA := decodeBody[struct{ Sweeps []JobJSON }](t, doAuthed(t, "GET", ts.URL+"/v1/sweeps", "key-a", ""))
	if len(listA.Sweeps) != 1 || listA.Sweeps[0].Tenant != "a" {
		t.Fatalf("a's list = %+v, want its one job", listA.Sweeps)
	}
	listB := decodeBody[struct{ Sweeps []JobJSON }](t, doAuthed(t, "GET", ts.URL+"/v1/sweeps", "key-b", ""))
	if len(listB.Sweeps) != 0 {
		t.Fatalf("b's list leaked a's jobs: %+v", listB.Sweeps)
	}
}

func TestSweepPriorityValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: &fakeRunner{}})
	bad := `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"],"priority":"urgent"}`
	resp := postJSON(t, ts.URL+"/v1/sweeps", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	body := decodeBody[struct {
		Error struct{ Field string }
	}](t, resp)
	if body.Error.Field != "priority" {
		t.Fatalf("error field %q, want priority", body.Error.Field)
	}

	ok := `{"schemes":["anchor"],"workloads":["gups"],"scenarios":["demand"],"priority":"interactive"}`
	resp = postJSON(t, ts.URL+"/v1/sweeps", ok)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive priority refused: status %d", resp.StatusCode)
	}
	accepted := decodeBody[struct{ ID string }](t, resp)
	resp = doAuthed(t, "GET", ts.URL+"/v1/sweeps/"+accepted.ID, "", "")
	job := decodeBody[JobJSON](t, resp)
	if job.Priority != "interactive" || job.Tenant != tenant.DefaultName {
		t.Fatalf("job echo = tenant %q priority %q", job.Tenant, job.Priority)
	}
}

// TestRetryAfterHintAdapts proves satellite 1 clock-free: the hint is
// the constant floor until a drain rate is observed, then scales with
// queue depth and caps at RetryAfterMax.
func TestRetryAfterHintAdapts(t *testing.T) {
	s := mustNew(t, Config{Runner: &fakeRunner{}, Workers: 2,
		RetryAfter: 2 * time.Second, RetryAfterMax: 60 * time.Second, Logger: discardLogger()})
	t.Cleanup(func() { s.Close() })

	// No completions observed yet: the static floor, regardless of depth.
	if got := s.retryAfterHint(100); got != 2*time.Second {
		t.Fatalf("unseeded hint = %v, want the 2s floor", got)
	}

	// Workers retire a job every 4s; 10 queued over 2 workers ≈ 22s.
	s.drainEst.observe(4 * time.Second)
	if got := s.retryAfterHint(10); got != 22*time.Second {
		t.Fatalf("hint(10 queued, 4s/job, 2 workers) = %v, want 22s", got)
	}
	// An empty queue still quotes one in-progress job, never below floor.
	if got := s.retryAfterHint(0); got != 2*time.Second {
		t.Fatalf("hint(0 queued) = %v, want 2s floor", got)
	}
	// Deep backlogs cap at RetryAfterMax.
	if got := s.retryAfterHint(10_000); got != 60*time.Second {
		t.Fatalf("hint(10k queued) = %v, want the 60s cap", got)
	}
}

// TestRecoveryPreservesTenant round-trips tenant and priority through
// the journal: a job accepted by tenant a before a crash resumes in
// a's fair-share queue after restart.
func TestRecoveryPreservesTenant(t *testing.T) {
	dir := t.TempDir()
	reg := mustRegistry(t, `{"tenants":[{"name":"a","key":"key-a"}]}`)
	fr := &fakeRunner{block: make(chan struct{}), started: make(chan struct{}, 1)}
	cfg := Config{Runner: fr, Tenants: reg, StateDir: dir, Logger: discardLogger()}

	s1 := mustNew(t, cfg)
	ts1 := httptest.NewServer(s1.Handler())
	resp := doAuthed(t, "POST", ts1.URL+"/v1/sweeps", "key-a", sweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	accepted := decodeBody[struct{ ID string }](t, resp)
	<-fr.started
	// "Crash": abandon s1 without draining (close the journal only).
	ts1.Close()
	close(fr.block)
	s1.Close()

	cfg.Runner = &fakeRunner{}
	s2 := mustNew(t, cfg)
	t.Cleanup(func() { s2.Close() })
	j, ok := s2.store.get(accepted.ID)
	if !ok {
		t.Fatal("job not recovered")
	}
	if j.tenant != "a" || j.priority != PriorityBatch {
		t.Fatalf("recovered job tenant %q priority %v, want a/batch", j.tenant, j.priority)
	}
}
