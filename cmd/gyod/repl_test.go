package main

// Replication proof over real processes: a leader and a follower
// binary, ingest on the leader, identical query results on the
// follower, then the failover drill — SIGKILL the leader, promote the
// follower over HTTP, and require it to serve every acknowledged write
// and accept new ones.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runGyodExpectExit runs the binary expecting an immediate startup
// refusal; returns nil if it exited cleanly (or served — a bug the
// caller detects), else the exit error with stderr attached.
func runGyodExpectExit(t *testing.T, bin string, args ...string) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return nil
	}
	return fmt.Errorf("%v: %s", err, out)
}

// getJSON decodes a GET response body into out and returns the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

// sameSolve compares the semantic fields of two /v1/solve replies,
// ignoring per-request noise (requestId, elapsed times).
func sameSolve(t *testing.T, a, b []byte) bool {
	t.Helper()
	var sa, sb map[string]any
	if err := json.Unmarshal(a, &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &sb); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"cols", "card", "tuples"} {
		if fmt.Sprint(sa[k]) != fmt.Sprint(sb[k]) {
			return false
		}
	}
	return true
}

type replicaStatus struct {
	Role       string  `json:"role"`
	LeaderURL  string  `json:"leaderUrl"`
	CursorSeg  uint64  `json:"cursorSeg"`
	CursorOff  int64   `json:"cursorOff"`
	LagBytes   int64   `json:"lagBytes"`
	LagRecords int64   `json:"lagRecords"`
	LagSeconds float64 `json:"lagSeconds"`
	Connected  bool    `json:"connected"`
	Diverged   bool    `json:"diverged"`
	LastError  string  `json:"lastError"`
}

// waitCaughtUp polls the follower until it reports zero lag at the
// leader's current WAL tail. (Zero lag alone is the follower's view as
// of the last feed preamble it read: a batch the leader acknowledged
// after that is not in it.)
func waitCaughtUp(t *testing.T, follower, leader *gyodProc) replicaStatus {
	t.Helper()
	var tail replicaStatus
	getJSON(t, leader.base+"/v1/replica/status", &tail)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st replicaStatus
		getJSON(t, follower.base+"/v1/replica/status", &st)
		if st.Diverged {
			t.Fatalf("replica diverged: %s", st.LastError)
		}
		if st.Connected && st.LagBytes == 0 && st.LagRecords == 0 && st.LagSeconds == 0 &&
			st.CursorSeg == tail.CursorSeg && st.CursorOff == tail.CursorOff {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestGyodReplicationPromote(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildGyod(t)
	leaderDir := filepath.Join(t.TempDir(), "leader")
	replicaDir := filepath.Join(t.TempDir(), "replica")

	leader := startGyod(t, bin, "-data", leaderDir, "-schema", "ab, bc, cd", "-tuples", "0")
	leader.post(t, "/v1/load", `{"relations": [
		{"rel": "ab", "tuples": [[1,2],[3,4]]},
		{"rel": "bc", "tuples": [[2,7],[4,8]]},
		{"rel": "cd", "tuples": [[7,9],[8,10]]}
	]}`)

	follower := startGyod(t, bin, "-data", replicaDir, "-follow", leader.base)
	waitCaughtUp(t, follower, leader)

	// The follower serves reads locally, identically to the leader.
	if l, f := leader.post(t, "/v1/solve", `{"x": "ad"}`), follower.post(t, "/v1/solve", `{"x": "ad"}`); !sameSolve(t, l, f) {
		t.Fatalf("/v1/solve differs:\n leader   %s\n follower %s", l, f)
	}

	// Writes are rejected with the typed leader redirect.
	resp, err := http.Post(follower.base+"/v1/insert", "application/json",
		strings.NewReader(`{"rel": "ab", "tuples": [[90,91]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error struct {
			Code   string `json:"code"`
			Leader string `json:"leader"`
		} `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("follower insert: status %d, decode %v", resp.StatusCode, err)
	}
	if envelope.Error.Code != "read_only_replica" || envelope.Error.Leader != leader.base {
		t.Fatalf("follower insert envelope = %+v", envelope)
	}

	// Both sides are ready.
	var health struct {
		Status string `json:"status"`
		Role   string `json:"role"`
	}
	if code := getJSON(t, leader.base+"/v1/healthz", &health); code != 200 || health.Role != "leader" {
		t.Fatalf("leader healthz = %d %+v", code, health)
	}
	if code := getJSON(t, follower.base+"/v1/healthz", &health); code != 200 || health.Role != "follower" {
		t.Fatalf("follower healthz = %d %+v", code, health)
	}

	// More acknowledged writes, streamed (not re-seeded); capture the
	// ground truth the ex-follower must still serve after the failover.
	leader.post(t, "/v1/insert", `{"rel": "ab", "tuples": [[11,12],[13,14]]}`)
	leader.post(t, "/v1/delete", `{"rel": "ab", "tuples": [[3,4]]}`)
	want := leader.post(t, "/v1/solve", `{"x": "ad"}`)
	waitCaughtUp(t, follower, leader)

	// The leader dies without any shutdown path.
	if err := leader.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	leader.wait()

	// Promote the survivor.
	promoted := follower.post(t, "/v1/promote", "")
	var st replicaStatus
	if err := json.Unmarshal(promoted, &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "leader" {
		t.Fatalf("post-promote status = %s", promoted)
	}

	// Nothing acknowledged was lost, and writes are open.
	if got := follower.post(t, "/v1/solve", `{"x": "ad"}`); !sameSolve(t, want, got) {
		t.Fatalf("post-promote /v1/solve differs:\n want %s\n got  %s", want, got)
	}
	follower.post(t, "/v1/insert", `{"rel": "ab", "tuples": [[21,22]]}`)
	if code := getJSON(t, follower.base+"/v1/healthz", &health); code != 200 || health.Role != "leader" {
		t.Fatalf("promoted healthz = %d %+v", code, health)
	}

	// The promotion fence is durable: a restart with -follow is refused,
	// a plain restart serves the promoted state including the new write.
	follower.post(t, "/v1/solve", `{"x": "ad"}`) // state settles before SIGTERM
	if err := follower.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	follower.wait()

	refused := runGyodExpectExit(t, bin, "-data", replicaDir, "-follow", "http://127.0.0.1:1")
	if refused == nil || !strings.Contains(refused.Error(), "promoted") {
		t.Fatalf("restart with -follow on a promoted dir = %v, want refusal", refused)
	}

	reborn := startGyod(t, bin, "-data", replicaDir)
	var stats struct {
		Relations []struct {
			Rel  string `json:"rel"`
			Card int    `json:"card"`
		} `json:"relations"`
	}
	getJSON(t, reborn.base+"/v1/stats", &stats)
	// ab saw [1,2],[3,4] seeded, [11,12],[13,14] replicated, [3,4]
	// deleted, [21,22] written post-promote: 4 rows survive the crash.
	if len(stats.Relations) == 0 || stats.Relations[0].Rel != "ab" || stats.Relations[0].Card != 4 {
		t.Fatalf("post-promote state lost across restart: %+v", stats.Relations)
	}
}
