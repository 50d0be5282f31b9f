package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hybridtlb"
)

// TestFabricCrashRecoveryKill9 is the distributed counterpart of
// TestCrashRecoveryKill9: a real tlbserver in coordinator mode shards a
// sweep across three real tlbworker processes, one worker is SIGKILLed
// while it holds a lease, and the sweep must still converge — with the
// dead worker's cells re-enqueued to the survivors and every per-cell
// result byte-identical to a clean single-process run of the same grid.
func TestFabricCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics require a POSIX platform")
	}

	dir := t.TempDir()
	serverBin := filepath.Join(dir, "tlbserver")
	workerBin := filepath.Join(dir, "tlbworker")
	for bin, pkg := range map[string]string{
		serverBin: "hybridtlb/cmd/tlbserver",
		workerBin: "hybridtlb/cmd/tlbworker",
	} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Dir = "../.."
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	fabricAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	base := "http://" + addr

	// Fast fabric clock so dead-worker detection lands in ~300ms, but a
	// huge steal threshold: recovery in this test must come from the
	// death path (lease revoked, cell re-enqueued), not from an idle
	// survivor duplicating the straggler's lease first.
	coord := exec.Command(serverBin,
		"-addr", addr,
		"-state-dir", filepath.Join(dir, "state"),
		"-coordinator", fabricAddr,
		"-fabric-tick", "25ms",
		"-fabric-dead-after", "12",
		"-fabric-steal-after", "100000",
	)
	coord.Stdout = os.Stderr
	coord.Stderr = os.Stderr
	if err := coord.Start(); err != nil {
		t.Fatalf("starting coordinator: %v", err)
	}
	reap(t, coord)
	waitHealthy(t, base)

	// Three workers with a deterministic injected delay per cell, so the
	// sweep is reliably mid-flight when one of them dies.
	workers := make(map[string]*exec.Cmd, 3)
	for _, name := range []string{"w1", "w2", "w3"} {
		w := exec.Command(workerBin,
			"-coordinator", fabricAddr,
			"-name", name,
			"-heartbeat", "50ms",
			"-poll", "10ms",
			"-chaos-delay", "500ms",
			"-chaos-seed", "7",
		)
		w.Stdout = os.Stderr
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			t.Fatalf("starting worker %s: %v", name, err)
		}
		reap(t, w)
		workers[name] = w
	}
	waitFabricMetric(t, base, `fabric_workers{state="live"}`, 3)

	const grid = `{"schemes":["base","anchor","thp","colt"],"workloads":["gups"],"scenarios":["demand","medium"],"accesses":2000}`
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	var acc acceptedJSON
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if acc.ID == "" {
		t.Fatal("submission returned no job ID")
	}

	// Kill the first worker observed holding a lease. The 500ms chaos
	// delay per cell keeps leases outstanding long enough to catch one.
	victim := waitLeaseHolder(t, base, workers)
	if err := workers[victim].Process.Kill(); err != nil {
		t.Fatalf("kill -9 %s: %v", victim, err)
	}
	workers[victim].Wait()
	t.Logf("killed worker %s while it held a lease", victim)

	final := waitDone(t, base+acc.StatusURL)
	if final.State != "done" {
		t.Fatalf("job state = %s, want done", final.State)
	}
	if len(final.Results) != 8 {
		t.Fatalf("job has %d cells, want 8", len(final.Results))
	}

	// Reference: the same grid simulated cleanly in-process. Cells that
	// traveled through the fabric arrive via the shared store, so this
	// is the byte-identity proof for the distributed path.
	var req SweepRequest
	if err := json.Unmarshal([]byte(grid), &req); err != nil {
		t.Fatal(err)
	}
	cfgs, _, apiErr := req.expand(Config{}.withDefaults().limits())
	if apiErr != nil {
		t.Fatalf("expand: %v", apiErr.Message)
	}
	ref, err := hybridtlb.NewSweeper(hybridtlb.SweepOptions{}).Run(context.Background(), cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		want, err := json.Marshal(toResultJSON(ref[i].SimulationResult))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, final.Results[i].Result); err != nil {
			t.Fatalf("cell %d: invalid JSON: %v", i, err)
		}
		if got.String() != string(want) {
			t.Errorf("cell %d diverged through the fabric:\n got:  %s\n want: %s",
				i, got.String(), want)
		}
	}

	m := fetchMetrics(t, base)
	if v := metricInt(t, m, `fabric_workers{state="dead"}`); v != 1 {
		t.Errorf(`fabric_workers{state="dead"} = %d, want 1`, v)
	}
	if v := metricInt(t, m, `fabric_workers{state="live"}`); v != 2 {
		t.Errorf(`fabric_workers{state="live"} = %d, want 2`, v)
	}
	if v := metricInt(t, m, "fabric_leases_reenqueued_total"); v < 1 {
		t.Errorf("fabric_leases_reenqueued_total = %d, want >= 1 (the killed worker held a lease)", v)
	}
	if v := metricInt(t, m, "fabric_store_uploads_total"); v < 8 {
		t.Errorf("fabric_store_uploads_total = %d, want >= 8 (every cell must arrive from a worker)", v)
	}
	if v := metricInt(t, m, "fabric_cells_local_fallback_total"); v != 0 {
		t.Errorf("fabric_cells_local_fallback_total = %d, want 0 (two survivors stayed live)", v)
	}
}

// waitFabricMetric polls /metrics until the named sample reaches want.
func waitFabricMetric(t *testing.T, base, name string, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := scrapeInt(fetchMetrics(t, base), name); ok && v >= want {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached %d", name, want)
}

// waitLeaseHolder polls fabric_worker_leases until some worker holds a
// lease and returns its name.
func waitLeaseHolder(t *testing.T, base string, workers map[string]*exec.Cmd) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		m := fetchMetrics(t, base)
		for name := range workers {
			sample := fmt.Sprintf("fabric_worker_leases{worker=%q}", name)
			if v, ok := scrapeInt(m, sample); ok && v > 0 {
				return name
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no worker ever held a lease; raise -chaos-delay")
	return ""
}

// scrapeInt is the non-fatal cousin of metricInt for polling loops.
func scrapeInt(body, name string) (int, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.Atoi(rest)
			return v, err == nil
		}
	}
	return 0, false
}
