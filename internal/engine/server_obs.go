package engine

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gyokit/internal/obs"
	"gyokit/internal/program"
)

// Logf formats to the engine's configured log sink (Options.Logf); it
// is a no-op when none was configured, so callers never need to branch.
func (e *Engine) Logf(format string, args ...any) {
	if e.logf != nil {
		e.logf(format, args...)
	}
}

// processStart anchors the uptime series. A package variable rather
// than a Server field so uptime survives Server reconstruction and is
// correct for struct-literal Servers that never went through NewServer.
var processStart = time.Now()

// ridBase is a per-process random prefix for request ids, so ids from
// different server incarnations never collide in aggregated logs.
var ridBase = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

var ridSeq atomic.Uint64

// newRequestID returns a process-unique request id: random process
// prefix plus a monotone sequence number.
func newRequestID() string {
	return fmt.Sprintf("%s-%d", ridBase, ridSeq.Add(1))
}

// handleMetrics serves the engine's registry (which, when gyod wires
// one registry into both engine and store, includes the storage series)
// in Prometheus text exposition format, plus process-level series
// computed at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	// Encode into a buffer first: a registry callback panicking or an
	// encode error must not leave a half-written 200 on the wire.
	var buf bytes.Buffer
	if err := s.E.Metrics().WriteText(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err)
		return
	}
	obs.WriteSeries(&buf, "gyo_uptime_seconds",
		"Seconds since the serving process started.", "gauge",
		time.Since(processStart).Seconds())
	obs.WriteSeries(&buf, "gyo_goroutines",
		"Goroutines live in the serving process.", "gauge",
		float64(runtime.NumGoroutine()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// logSlowQuery emits one line for a read that exceeded the server's
// SlowQuery threshold: the request id (echoed to the client in
// X-Request-Id, so client and server logs correlate), a fingerprint of
// the plan's canonical text (FNV-1a, so stable across requests and
// restarts — the aggregation key), and the top-3 most expensive
// statements.
func (s *Server) logSlowQuery(reqID, canonical, x string, elapsed time.Duration, st *program.Stats) {
	fp := fnv.New64a()
	_, _ = fp.Write([]byte(canonical))
	s.E.Logf("gyod: slow query id=%s fp=%016x x=%s elapsed=%s top=[%s]",
		reqID, fp.Sum64(), x, elapsed.Round(time.Microsecond), topStatements(st, 3))
}

// topStatements formats the n most expensive statements of a run,
// most expensive first, as "#idx op in→out elapsed".
func topStatements(st *program.Stats, n int) string {
	idx := make([]int, len(st.Detail))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return st.Detail[idx[a]].Elapsed > st.Detail[idx[b]].Elapsed
	})
	if n > len(idx) {
		n = len(idx)
	}
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		d := st.Detail[idx[i]]
		if i > 0 {
			buf.WriteString(", ")
		}
		in := fmt.Sprintf("%d", d.InLeft)
		if d.InRight >= 0 {
			in += fmt.Sprintf("⋈%d", d.InRight)
		}
		fmt.Fprintf(&buf, "#%d %s %s→%d %s",
			idx[i], d.Kind, in, d.Out, d.Elapsed.Round(time.Microsecond))
	}
	return buf.String()
}

// BuildInfo is the /stats build-provenance block, extracted from the
// binary's embedded module data.
type BuildInfo struct {
	GoVersion   string `json:"goVersion"`
	Path        string `json:"path,omitempty"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcsRevision,omitempty"`
	VCSTime     string `json:"vcsTime,omitempty"`
	VCSModified bool   `json:"vcsModified,omitempty"`
}

// buildInfoOnce caches the immutable build block: debug.ReadBuildInfo
// re-parses the embedded data on every call, and /stats may be polled.
var buildInfoOnce = sync.OnceValue(func() *BuildInfo {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return nil
	}
	out := &BuildInfo{GoVersion: bi.GoVersion, Path: bi.Main.Path, Version: bi.Main.Version}
	for _, set := range bi.Settings {
		switch set.Key {
		case "vcs.revision":
			out.VCSRevision = set.Value
		case "vcs.time":
			out.VCSTime = set.Value
		case "vcs.modified":
			out.VCSModified = set.Value == "true"
		}
	}
	return out
})

// readBuildInfo returns the binary's build provenance, or nil when the
// binary carries none (e.g. some test binaries).
func readBuildInfo() *BuildInfo { return buildInfoOnce() }
