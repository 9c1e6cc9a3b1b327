// The replication walkthrough: boot a leader gyod, attach a follower
// with -follow, watch it bootstrap and catch up, read from the replica
// while the leader ingests, then run the failover runbook — SIGKILL
// the leader, POST /v1/promote on the follower, and keep serving with
// zero acknowledged loss. Run it from the repository root:
//
//	go run ./examples/replication
//
// It builds the real gyod binary into a temp dir, drives it exactly
// the way the README's Replication section describes, and cleans up
// after itself.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "replication example:", err)
		os.Exit(1)
	}
}

func run() error {
	work, err := os.MkdirTemp("", "gyod-replication-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	bin := filepath.Join(work, "gyod")

	fmt.Println("== building gyod ==")
	if out, err := exec.Command("go", "build", "-o", bin, "gyokit/cmd/gyod").CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}

	fmt.Println("== leader: durable gyod over (ab, bc, cd) ==")
	leader, err := start(bin, "-data", filepath.Join(work, "leader"), "-schema", "ab, bc, cd", "-tuples", "0")
	if err != nil {
		return err
	}
	defer leader.kill()
	if _, err := leader.post("/v1/load", `{"relations": [
		{"rel": "ab", "tuples": [[1,2],[3,4]]},
		{"rel": "bc", "tuples": [[2,7],[4,8]]},
		{"rel": "cd", "tuples": [[7,10],[8,11]]}]}`); err != nil {
		return err
	}
	fmt.Printf("  leader at %s, seeded via /v1/load\n", leader.base)

	fmt.Println("== follower: -follow bootstraps a snapshot, then tails the WAL ==")
	follower, err := start(bin, "-data", filepath.Join(work, "replica"), "-follow", leader.base)
	if err != nil {
		return err
	}
	defer follower.kill()
	st, err := follower.waitCaughtUp(leader)
	if err != nil {
		return err
	}
	fmt.Printf("  GET /v1/replica/status → role=%s cursor=(%d,%d) lagBytes=%d connected=%v\n",
		st.Role, st.CursorSeg, st.CursorOff, st.LagBytes, st.Connected)

	fmt.Println("== reads are local; both sides answer identically ==")
	l, err := leader.post("/v1/solve", `{"x": "ad"}`)
	if err != nil {
		return err
	}
	f, err := follower.post("/v1/solve", `{"x": "ad"}`)
	if err != nil {
		return err
	}
	if !bytes.Equal(answer(l), answer(f)) {
		return fmt.Errorf("MISMATCH:\n leader   %s\n follower %s", l, f)
	}
	fmt.Printf("  POST /v1/solve (either) → %s\n", firstLine(f))

	fmt.Println("== writes on the replica are refused with a leader redirect ==")
	resp, err := http.Post(follower.base+"/v1/insert", "application/json",
		strings.NewReader(`{"rel": "ab", "tuples": [[90,91]]}`))
	if err != nil {
		return err
	}
	refusal, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("  POST /v1/insert → %d %s\n", resp.StatusCode, firstLine(bytes.TrimSpace(refusal)))

	fmt.Println("== streamed writes: ingest through the leader, lag returns to 0 ==")
	if _, err := leader.post("/v1/insert", `{"rel": "ab", "tuples": [[11,12],[13,14]]}`); err != nil {
		return err
	}
	if _, err := leader.post("/v1/delete", `{"rel": "ab", "tuples": [[3,4]]}`); err != nil {
		return err
	}
	want, err := leader.post("/v1/solve", `{"x": "ad"}`)
	if err != nil {
		return err
	}
	if _, err := follower.waitCaughtUp(leader); err != nil {
		return err
	}
	fmt.Println("  follower caught up (lagRecords=0 lagBytes=0 lagSeconds=0)")

	fmt.Println("== failover: kill -9 the leader, promote the follower ==")
	leader.kill()
	promoted, err := follower.post("/v1/promote", "")
	if err != nil {
		return err
	}
	fmt.Printf("  POST /v1/promote → %s\n", firstLine(promoted))

	got, err := follower.post("/v1/solve", `{"x": "ad"}`)
	if err != nil {
		return err
	}
	if !bytes.Equal(answer(want), answer(got)) {
		return fmt.Errorf("MISMATCH after promote:\n want %s\n got  %s", want, got)
	}
	fmt.Println("  identical to the leader's last acknowledged answer: nothing lost")
	if _, err := follower.post("/v1/insert", `{"rel": "ab", "tuples": [[21,22]]}`); err != nil {
		return err
	}
	fmt.Println("  POST /v1/insert → accepted: the promoted node takes writes")

	var health struct {
		Status string `json:"status"`
		Role   string `json:"role"`
	}
	raw, err := follower.get("/v1/healthz")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &health); err != nil {
		return err
	}
	fmt.Printf("  GET /v1/healthz → status=%s role=%s\n", health.Status, health.Role)
	fmt.Println("done. (a promoted directory refuses -follow on restart; to re-join")
	fmt.Println(" it as a replica of a new leader, wipe it and re-seed with -follow)")
	return nil
}

type gyod struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func start(bin string, args ...string) (*gyod, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	g := &gyod{cmd: cmd, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if i := strings.Index(sc.Text(), "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(sc.Text()[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	go func() { g.done <- cmd.Wait() }()
	select {
	case addr := <-addrCh:
		g.base = "http://" + addr
		return g, nil
	case err := <-g.done:
		return nil, fmt.Errorf("gyod exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("timeout waiting for gyod")
	}
}

func (g *gyod) kill() {
	if g.cmd.ProcessState == nil {
		g.cmd.Process.Kill()
		<-g.done
	}
}

func (g *gyod) post(path, body string) ([]byte, error) {
	resp, err := http.Post(g.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s → %d: %s", path, resp.StatusCode, out)
	}
	return bytes.TrimSpace(out), nil
}

func (g *gyod) get(path string) ([]byte, error) {
	resp, err := http.Get(g.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return bytes.TrimSpace(out), nil
}

type status struct {
	Role      string `json:"role"`
	CursorSeg int64  `json:"cursorSeg"`
	CursorOff int64  `json:"cursorOff"`
	LagBytes  int64  `json:"lagBytes"`
	Connected bool   `json:"connected"`
	Diverged  bool   `json:"diverged"`
	LastError string `json:"lastError"`
}

func (g *gyod) status() (status, error) {
	var st status
	raw, err := g.get("/v1/replica/status")
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	return st, err
}

// waitCaughtUp waits until the follower g has applied everything leader
// has acknowledged so far: zero lag and a cursor equal to the leader's
// current WAL tail (a leader's status reports its tail as the cursor).
// Zero lag alone is the follower's view as of its last preamble and
// cannot cover a batch the leader acknowledged after it.
func (g *gyod) waitCaughtUp(leader *gyod) (status, error) {
	tail, err := leader.status()
	if err != nil {
		return status{}, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := g.status()
		if err != nil {
			return status{}, err
		}
		if st.Diverged {
			return st, fmt.Errorf("replica diverged: %s", st.LastError)
		}
		if st.Connected && st.LagBytes == 0 && st.CursorSeg == tail.CursorSeg && st.CursorOff == tail.CursorOff {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("replica never caught up: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// answer strips the per-run fields from a /v1/solve reply — "stats"
// (elapsedNs) and the server-generated "requestId" — leaving only the
// result for comparison.
func answer(b []byte) []byte {
	if i := bytes.Index(b, []byte(`"stats"`)); i >= 0 {
		b = b[:i]
	}
	return requestIDRe.ReplaceAll(b, nil)
}

var requestIDRe = regexp.MustCompile(`"requestId":"[^"]*",?`)

// firstLine truncates long JSON for display.
func firstLine(b []byte) string {
	s := string(b)
	if len(s) > 120 {
		s = s[:120] + "…"
	}
	return s
}
