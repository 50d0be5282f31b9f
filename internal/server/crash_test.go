package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
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

// TestCrashRecoveryKill9 is the end-to-end durability check: a real
// tlbserver process is SIGKILLed mid-sweep and restarted over the same
// state dir. The resumed job must finish, its per-cell results must be
// byte-identical to a clean in-process run of the same grid, and the
// restart must have re-simulated only the cells that were not yet in
// the durable store.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics require a POSIX platform")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "tlbserver")
	build := exec.Command("go", "build", "-o", bin, "hybridtlb/cmd/tlbserver")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building tlbserver: %v\n%s", err, out)
	}

	stateDir := filepath.Join(dir, "state")
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	base := "http://" + addr
	// One worker, serial cells, and a deterministic injected delay per
	// cell so the sweep is reliably mid-flight when the process dies.
	startServer := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", addr,
			"-state-dir", stateDir,
			"-workers", "1",
			"-sweep-parallel", "1",
			"-chaos-delay", "150ms",
			"-chaos-seed", "7",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting tlbserver: %v", err)
		}
		reap(t, cmd)
		waitHealthy(t, base)
		return cmd
	}

	const grid = `{"schemes":["base","anchor","thp","colt"],"workloads":["gups"],"scenarios":["demand","medium"],"accesses":2000}`

	proc := startServer()

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

	// Let the sweep make partial progress, then pull the plug.
	waitProgress(t, base+acc.StatusURL, 2)
	if err := proc.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	proc.Wait()

	startServer() // the restart; reap stops it when the test ends
	final := waitDone(t, base+acc.StatusURL)
	if final.State != "done" {
		t.Fatalf("resumed job state = %s, want done", final.State)
	}
	if len(final.Results) != 8 {
		t.Fatalf("resumed job has %d cells, want 8", len(final.Results))
	}

	// Reference: the same grid simulated cleanly in-process.
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
		// The handler pretty-prints responses; compact before the
		// byte-for-byte comparison so only content can differ.
		var got bytes.Buffer
		if err := json.Compact(&got, final.Results[i].Result); err != nil {
			t.Fatalf("cell %d: invalid JSON: %v", i, err)
		}
		if got.String() != string(want) {
			t.Errorf("cell %d diverged after crash recovery:\n got:  %s\n want: %s",
				i, got.String(), want)
		}
	}

	// The restart must have read the pre-crash cells from the store and
	// simulated only the remainder.
	m := fetchMetrics(t, base)
	hits := metricInt(t, m, "tlbserver_store_hits_total")
	writes := metricInt(t, m, "tlbserver_store_writes_total")
	if hits < 2 {
		t.Errorf("store_hits_total = %d, want >= 2 (pre-crash cells must come from disk)", hits)
	}
	if writes >= 8 {
		t.Errorf("store_writes_total = %d, want < 8 (persisted cells must not re-simulate)", writes)
	}
	if resumed := metricInt(t, m, "tlbserver_jobs_resumed_total"); resumed != 1 {
		t.Errorf("jobs_resumed_total = %d, want 1", resumed)
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// reap kills cmd and waits for it when the test ends, however it ends:
// registered right after Start, it covers a start that never turns
// healthy. A process the test already killed and waited for is left as
// it is.
func reap(t *testing.T, cmd *exec.Cmd) {
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("tlbserver never became healthy")
}

// waitProgress polls until at least n cells of the job are done.
func waitProgress(t *testing.T, statusURL string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(statusURL)
		if err == nil {
			var j struct {
				Done  int    `json:"done"`
				State string `json:"state"`
			}
			json.NewDecoder(resp.Body).Decode(&j)
			resp.Body.Close()
			if j.Done >= n {
				return
			}
			if j.State == "done" {
				t.Fatal("sweep finished before the crash could be injected; raise -chaos-delay")
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job never reached %d completed cells", n)
}

func waitDone(t *testing.T, statusURL string) rawJob {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(statusURL)
		if err == nil {
			var j rawJob
			dec := json.NewDecoder(resp.Body)
			decErr := dec.Decode(&j)
			resp.Body.Close()
			if decErr == nil && j.State.terminal() {
				return j
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("resumed job never reached a terminal state")
	return rawJob{}
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return sb.String()
}

func metricInt(t *testing.T, body, name string) int {
	t.Helper()
	v, err := strconv.Atoi(metricValue(t, body, name))
	if err != nil {
		t.Fatalf("metric %s = %q, not an integer", name, metricValue(t, body, name))
	}
	return v
}
