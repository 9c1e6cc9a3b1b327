// The durability walkthrough: boot gyod with a -data directory, ingest
// over HTTP, hard-kill the process (SIGKILL — no flush, no shutdown
// path), restart it on the same directory, and watch /solve return the
// same answer. Run it from the repository root:
//
//	go run ./examples/durability
//
// It builds the real gyod binary into a temp dir, drives it exactly
// the way the README's Durability section describes, and cleans up
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
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "durability example:", err)
		os.Exit(1)
	}
}

func run() error {
	work, err := os.MkdirTemp("", "gyod-durability-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	bin := filepath.Join(work, "gyod")
	dataDir := filepath.Join(work, "data")

	fmt.Println("== building gyod ==")
	if out, err := exec.Command("go", "build", "-o", bin, "gyokit/cmd/gyod").CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}

	fmt.Println("== boot 1: fresh store, empty database over (ab, bc, cd) ==")
	g, err := start(bin, "-data", dataDir, "-schema", "ab, bc, cd", "-tuples", "0")
	if err != nil {
		return err
	}
	defer g.kill()

	fmt.Println("== ingest: one atomic /v1/load batch + a /v1/insert + a /v1/delete ==")
	for _, req := range []struct{ path, body string }{
		{"/v1/load", `{"relations": [
			{"rel": "ab", "tuples": [[1,2],[3,4],[5,6]]},
			{"rel": "bc", "tuples": [[2,7],[4,8],[6,9]]},
			{"rel": "cd", "tuples": [[7,10],[8,11]]}]}`},
		{"/v1/insert", `{"rel": "cd", "tuples": [[9,12]]}`},
		{"/v1/delete", `{"rel": "ab", "tuples": [[5,6]]}`},
	} {
		out, err := g.post(req.path, req.body)
		if err != nil {
			return err
		}
		fmt.Printf("  POST %-8s → %s\n", req.path, firstLine(out))
	}
	before, err := g.post("/v1/solve", `{"x": "ad"}`)
	if err != nil {
		return err
	}
	fmt.Printf("  POST /v1/solve → %s\n", firstLine(before))

	fmt.Println("== kill -9: no flush, no shutdown path ==")
	g.kill()

	fmt.Println("== boot 2: recover from checkpoint + WAL tail ==")
	// The tiny -ckptbytes makes background incremental checkpoints fire
	// promptly after the ingests below, so the walkthrough can watch
	// their chunk economics in /stats.
	g2, err := start(bin, "-data", dataDir, "-ckptbytes", "2048")
	if err != nil {
		return err
	}
	defer g2.kill()
	after, err := g2.post("/v1/solve", `{"x": "ad"}`)
	if err != nil {
		return err
	}
	fmt.Printf("  POST /v1/solve → %s\n", firstLine(after))
	// Compare the result (not the stats, whose elapsedNs differs run to
	// run): everything before the "stats" key.
	if !bytes.Equal(resultPrefix(before), resultPrefix(after)) {
		return fmt.Errorf("MISMATCH: recovery changed the answer\n before %s\n after  %s", before, after)
	}
	fmt.Println("  identical to the pre-kill answer: every acknowledged mutation survived")

	stats, err := g2.get("/v1/stats")
	if err != nil {
		return err
	}
	fmt.Printf("  GET  /v1/stats → %s\n", firstLine(stats))

	fmt.Println("== incremental checkpoints: fill an arena chunk (4096 rows) ==")
	// A bulk insert past relation.ChunkRows seals at least one immutable
	// chunk; the background checkpoint appends it to the chunk store
	// once.
	var big strings.Builder
	big.WriteString(`{"rel": "ab", "tuples": [`)
	for i := 0; i < 4600; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		fmt.Fprintf(&big, "[%d,%d]", 1000+i, 100000+i)
	}
	big.WriteString("]}")
	if _, err := g2.post("/v1/insert", big.String()); err != nil {
		return err
	}
	d1, err := g2.durability(1)
	if err != nil {
		return err
	}
	fmt.Printf("  checkpoint 1: chunksWritten=%v chunksReused=%v chunkStoreBytes=%v\n",
		d1["chunksWritten"], d1["chunksReused"], d1["chunkStoreBytes"])

	fmt.Println("== a small delta: the next checkpoint reuses the durable chunk ==")
	var delta strings.Builder
	delta.WriteString(`{"rel": "ab", "tuples": [`)
	for i := 0; i < 300; i++ {
		if i > 0 {
			delta.WriteByte(',')
		}
		fmt.Fprintf(&delta, "[%d,%d]", 9000+i, 200000+i)
	}
	delta.WriteString("]}")
	if _, err := g2.post("/v1/insert", delta.String()); err != nil {
		return err
	}
	d2, err := g2.durability(int(d1["checkpoints"].(float64)) + 1)
	if err != nil {
		return err
	}
	fmt.Printf("  checkpoint 2: chunksWritten=%v chunksReused=%v checkpointBytes=%v\n",
		d2["chunksWritten"], d2["chunksReused"], d2["checkpointBytes"])
	fmt.Println("  (written did not grow with database size — the checkpoint cost O(dirty))")

	fmt.Println("== SIGTERM: drain, final checkpoint, flush, exit 0 ==")
	if err := g2.terminate(); err != nil {
		return err
	}
	fmt.Println("done.")
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

func (g *gyod) terminate() error {
	if err := g.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-g.done:
		return err
	case <-time.After(30 * time.Second):
		return fmt.Errorf("timeout waiting for graceful shutdown")
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

// durability polls /stats until the store reports at least min
// completed checkpoints (they run in the background) and returns the
// durability section.
func (g *gyod) durability(min int) (map[string]any, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, err := g.get("/v1/stats")
		if err != nil {
			return nil, err
		}
		var st struct {
			Durability map[string]any `json:"durability"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, err
		}
		if n, _ := st.Durability["checkpoints"].(float64); int(n) >= min {
			return st.Durability, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no background checkpoint after 10s (durability = %v)", st.Durability)
		}
		time.Sleep(50 * time.Millisecond)
	}
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

// resultPrefix strips the per-run fields from a /solve reply — the
// "stats" object (elapsedNs) and the server-generated "requestId" —
// leaving only the answer itself for the before/after comparison.
func resultPrefix(b []byte) []byte {
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
