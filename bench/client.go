package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"gyokit/internal/engine"
	"gyokit/internal/obs"
	"gyokit/internal/program"
	"gyokit/internal/storage"
)

// requestTimeout bounds every request the driver sends; a server that
// stops answering fails the run instead of hanging it.
const requestTimeout = 30 * time.Second

// newClient returns a client with its own connection pool, so each
// driver goroutine holds exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}
}

// post sends a JSON body and returns the reply body of a 200 answer;
// any other status is an error carrying the reply.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return readReply(resp, url)
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	return readReply(resp, url)
}

func readReply(resp *http.Response, url string) ([]byte, error) {
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered %s: %s", url, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

func getJSON(c *http.Client, url string, dst any) error {
	body, err := get(c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, dst)
}

// readAnswer is the union of the fields the driver checks in a
// /v1/query, /v1/solve, /v1/classify or /v1/plan answer.
type readAnswer struct {
	Card  *int               `json:"card"`
	Tree  *bool              `json:"tree"`
	Stats *engine.SolveStats `json:"stats"`
	Trace *program.Span      `json:"trace"`
}

// scrape fetches and parses /v1/metrics.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	body, err := get(c, base+"/v1/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseText(bytes.NewReader(body))
}

// sumSeries adds up every series of m whose name (label block
// included) starts with prefix.
func sumSeries(m map[string]float64, prefix string) float64 {
	var total float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// delta is after − before over the series starting with prefix.
func delta(before, after map[string]float64, prefix string) float64 {
	return sumSeries(after, prefix) - sumSeries(before, prefix)
}

func serverStats(c *http.Client, base string) (engine.StatsResponse, error) {
	var st engine.StatsResponse
	err := getJSON(c, base+"/v1/stats", &st)
	return st, err
}

// replCursor returns the node's replication cursor: a leader's WAL
// tail, a follower's applied position in its leader's WAL.
func replCursor(c *http.Client, base string) (storage.Cursor, engine.ReplicaStatus, error) {
	var st engine.ReplicaStatus
	err := getJSON(c, base+"/v1/replica/status", &st)
	return storage.Cursor{Seg: st.CursorSeg, Off: st.CursorOff}, st, err
}

// awaitCaughtUp polls until the follower has applied everything the
// leader had acknowledged when the call began.
func awaitCaughtUp(c *http.Client, leader, follower string, timeout time.Duration) error {
	tip, _, err := replCursor(c, leader)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for {
		cur, st, err := replCursor(c, follower)
		if err != nil {
			return err
		}
		if st.Diverged {
			return fmt.Errorf("follower diverged: %s", st.LastError)
		}
		if !cur.Less(tip) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at %s did not reach the leader's %s within %v", cur, tip, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}
