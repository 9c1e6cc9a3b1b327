package main

// End-to-end durability proof: build the real gyod binary, serve a
// -data directory, ingest over HTTP, hard-kill the process (SIGKILL —
// no flush, no shutdown path), restart it on the same directory, and
// require /solve to return results identical to before the kill for
// every acknowledged mutation. Plus the graceful half: SIGTERM must
// drain, checkpoint, close the WAL, and exit 0.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gyokit/internal/storage"
)

// buildGyod compiles the binary once per test run.
func buildGyod(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available:", err)
	}
	bin := filepath.Join(t.TempDir(), "gyod")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

type gyodProc struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	done     chan error
	waitOnce sync.Once
	waitErr  error
}

// wait blocks until the process exits and returns its exit error
// (cached: safe to call repeatedly).
func (p *gyodProc) wait() error {
	p.waitOnce.Do(func() { p.waitErr = <-p.done })
	return p.waitErr
}

// startGyod launches the binary and waits for its "listening on" line.
func startGyod(t *testing.T, bin string, args ...string) *gyodProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &gyodProc{cmd: cmd, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	go func() { p.done <- cmd.Wait() }()
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case err := <-p.done:
		t.Fatalf("gyod exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("timeout waiting for gyod to listen")
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		p.wait()
	})
	return p
}

func (p *gyodProc) post(t *testing.T, path, body string) []byte {
	t.Helper()
	resp, err := http.Post(p.base+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s → %d: %s", path, resp.StatusCode, out)
	}
	return out
}

func TestGyodCrashRecoveryAndGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildGyod(t)
	dataDir := filepath.Join(t.TempDir(), "data")

	// Boot 1: fresh store, empty database over "ab, bc, cd".
	p1 := startGyod(t, bin, "-data", dataDir, "-schema", "ab, bc, cd", "-tuples", "0")
	p1.post(t, "/v1/load", `{"relations": [
		{"rel": "ab", "tuples": [[1,2],[3,4],[5,6]]},
		{"rel": "bc", "tuples": [[2,7],[4,8]]},
		{"rel": "cd", "tuples": [[7,9],[8,10]]}
	]}`)
	p1.post(t, "/v1/insert", `{"rel": "ab", "tuples": [[11,12]]}`)
	p1.post(t, "/v1/delete", `{"rel": "ab", "tuples": [[5,6]]}`)
	want := p1.post(t, "/v1/solve", `{"x": "ad"}`)
	var wantSol map[string]any
	if err := json.Unmarshal(want, &wantSol); err != nil {
		t.Fatal(err)
	}
	if wantSol["card"].(float64) == 0 {
		t.Fatal("pre-kill /solve returned no tuples; test would prove nothing")
	}

	// Hard kill: no shutdown path runs.
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p1.wait()

	// Boot 2: recover and compare. The solve result must be identical
	// for every acknowledged mutation.
	p2 := startGyod(t, bin, "-data", dataDir)
	got := p2.post(t, "/v1/solve", `{"x": "ad"}`)
	var gotSol map[string]any
	if err := json.Unmarshal(got, &gotSol); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(wantSol["card"]) != fmt.Sprint(gotSol["card"]) ||
		fmt.Sprint(wantSol["cols"]) != fmt.Sprint(gotSol["cols"]) ||
		fmt.Sprint(wantSol["tuples"]) != fmt.Sprint(gotSol["tuples"]) {
		t.Fatalf("post-recovery /solve differs:\n want %s\n got  %s", want, got)
	}

	// /stats reports the recovered relations and durability counters.
	resp, err := http.Get(p2.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Relations []struct {
			Rel  string `json:"rel"`
			Card int    `json:"card"`
		} `json:"relations"`
		Durability *struct {
			Replayed uint64 `json:"replayed"`
		} `json:"durability"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Relations) != 3 || stats.Relations[0].Card != 3 {
		t.Fatalf("recovered /stats relations = %+v", stats.Relations)
	}
	if stats.Durability == nil || stats.Durability.Replayed == 0 {
		t.Fatalf("recovered /stats durability = %+v", stats.Durability)
	}

	// Graceful shutdown: SIGTERM → drain, final checkpoint, exit 0.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- p2.wait() }()
	select {
	case err := <-waitCh:
		if err != nil {
			t.Fatalf("graceful shutdown exited non-zero: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timeout waiting for graceful shutdown")
	}

	// Boot 3: the final checkpoint means a clean boot with an empty WAL
	// tail, and the state is still intact.
	p3 := startGyod(t, bin, "-data", dataDir)
	got3 := p3.post(t, "/v1/solve", `{"x": "ad"}`)
	var got3Sol map[string]any
	if err := json.Unmarshal(got3, &got3Sol); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(wantSol["card"]) != fmt.Sprint(got3Sol["card"]) {
		t.Fatalf("post-shutdown /solve card differs: want %s, got %s", want, got3)
	}
	if err := p3.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p3.wait()
}

func TestGyodInMemoryStillWorks(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildGyod(t)
	p := startGyod(t, bin, "-schema", "ab, bc", "-tuples", "50")
	out := p.post(t, "/v1/solve", `{"x": "ac"}`)
	var sol map[string]any
	if err := json.Unmarshal(out, &sol); err != nil {
		t.Fatal(err)
	}
	if _, ok := sol["card"]; !ok {
		t.Fatalf("/v1/solve reply missing card: %s", out)
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.wait(); err != nil {
		t.Fatalf("in-memory graceful shutdown: %v", err)
	}
}

// TestGyodRefusesLegacyCheckpointDir: a -data directory whose snapshot
// is a pre-manifest full checkpoint (the storage package's committed
// fixture) makes gyod exit non-zero with the storage error that names
// the last commit able to read it, instead of serving an empty store.
func TestGyodRefusesLegacyCheckpointDir(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const name = "checkpoint-0000000000000001.ckpt"
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "storage", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dataDir, name), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Killed after 30 s should it serve instead of refusing.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, buildGyod(t), "-addr", "127.0.0.1:0", "-data", dataDir).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("gyod on a legacy directory: err %v, output:\n%s", err, out)
	}
	for _, want := range []string{storage.ErrLegacyFormat.Error(), name, "0152974"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("gyod's message lacks %q:\n%s", want, out)
		}
	}
}
