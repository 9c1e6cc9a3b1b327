package repl

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"gyokit/internal/engine"
	"gyokit/internal/obs"
	"gyokit/internal/storage"
)

const (
	// defaultFeedWindow is the frame budget per /v1/repl/wal response
	// when the client does not ask for one.
	defaultFeedWindow = 1 << 20
	// maxLongPollWait caps the server-side park. gyod's write timeout
	// is 60s; staying well under it means a parked poll always gets to
	// write its (possibly empty) response.
	maxLongPollWait = 25 * time.Second
)

// Streamer serves the leader side of replication under /v1/repl/:
//
//	GET /v1/repl/snapshot          initial sync: snapshot header, then
//	                               the chunk-format snapshot stream
//	GET /v1/repl/wal?seg=&off=     WAL records from a cursor, long-poll
//	        [&wait=20s][&max=N]    up to wait when already caught up
//
// Both endpoints are read-only and safe to expose wherever /v1 reads
// are; the feed serves only acknowledged WAL bytes.
type Streamer struct {
	e    *engine.Engine
	logf func(format string, args ...any)

	// Nil — hence no-op — without a registry.
	walReqs, snapReqs *obs.Counter
	sentBytes         *obs.Counter
	waiters           *obs.Gauge
}

// NewStreamer builds the leader feed handler. reg, when non-nil,
// receives the gyo_repl_serve_* instruments. logf may be nil.
func NewStreamer(e *engine.Engine, reg *obs.Registry, logf func(string, ...any)) *Streamer {
	s := &Streamer{e: e, logf: logf}
	if reg != nil {
		s.walReqs = reg.Counter("gyo_repl_serve_requests_total",
			"Replication feed requests served, by endpoint.", "endpoint", "wal")
		s.snapReqs = reg.Counter("gyo_repl_serve_requests_total",
			"Replication feed requests served, by endpoint.", "endpoint", "snapshot")
		s.sentBytes = reg.Counter("gyo_repl_serve_bytes_total",
			"Replication payload bytes sent to followers (preambles and headers excluded).")
		s.waiters = reg.Gauge("gyo_repl_serve_waiters",
			"Feed requests currently parked in a long poll.")
	}
	return s
}

// writeError emits the uniform /v1 error envelope. The feed endpoints
// are binary streams on success, but their failures are JSON like
// every other /v1 error, so followers and operators see one error
// shape everywhere.
func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(engine.ErrorBody{Error: engine.ErrorInfo{
		Code:    code,
		Message: message,
	}})
}

func (s *Streamer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "replication feed is GET-only")
		return
	}
	switch r.URL.Path {
	case "/v1/repl/wal":
		s.serveWAL(w, r)
	case "/v1/repl/snapshot":
		s.serveSnapshot(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (s *Streamer) serveWAL(w http.ResponseWriter, r *http.Request) {
	s.walReqs.Inc()
	store := s.e.Store()
	if store == nil {
		writeError(w, http.StatusConflict, "not_replicable", "this node has no durable store to replicate")
		return
	}
	q := r.URL.Query()
	seg, err := strconv.ParseUint(q.Get("seg"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", "bad seg parameter")
		return
	}
	off, err := strconv.ParseInt(q.Get("off"), 10, 64)
	if err != nil || off < 0 {
		writeError(w, http.StatusBadRequest, "invalid_request", "bad off parameter")
		return
	}
	maxBytes := defaultFeedWindow
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "invalid_request", "bad max parameter")
			return
		}
		maxBytes = min(n, maxFeedFrameBytes/2)
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "invalid_request", "bad wait parameter")
			return
		}
		wait = min(d, maxLongPollWait)
	}

	req := storage.Cursor{Seg: seg, Off: off}
	deadline := time.Now().Add(wait)
	var win storage.WALWindow
	for {
		// Grab the notification channel BEFORE reading: an append that
		// lands between the read and the park still wakes us.
		notify := store.AppendNotify()
		win, err = store.ReadWAL(req, maxBytes)
		if err != nil {
			status, code := http.StatusInternalServerError, "internal"
			switch {
			case errors.Is(err, storage.ErrCursorGone), errors.Is(err, storage.ErrCursorInvalid):
				// 410: the cursor is permanently unservable here — the
				// follower must stop, not retry.
				status, code = http.StatusGone, "cursor_gone"
			default:
				if s.logf != nil {
					s.logf("repl: feed read at %v failed: %v", req, err)
				}
			}
			writeError(w, status, code, err.Error())
			return
		}
		if len(win.Frames) > 0 || win.Next != req {
			break // data, or a rotation hop the follower should take
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break // caught up; answer empty so the follower sees fresh Tip/lag
		}
		if !s.parkForAppend(r, notify, remaining) {
			return // client went away
		}
	}

	st := store.Stats()
	w.Header().Set("Content-Type", "application/octet-stream")
	hdr := encodePreamble(preamble{
		StoreID:    store.ID(),
		Req:        req,
		Next:       win.Next,
		Tip:        win.Tip,
		LagBytes:   win.LagBytes,
		Appends:    st.Appends,
		FrameBytes: uint32(len(win.Frames)),
	})
	if _, err := w.Write(hdr); err != nil {
		return
	}
	if n, err := w.Write(win.Frames); err == nil {
		s.sentBytes.Add(uint64(n))
	}
}

// parkForAppend blocks until an append signal, the wait budget, or the
// client disconnecting; it reports whether serving should continue.
func (s *Streamer) parkForAppend(r *http.Request, notify <-chan struct{}, wait time.Duration) bool {
	s.waiters.Add(1)
	defer s.waiters.Add(-1)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-notify:
		return true
	case <-timer.C:
		return true
	case <-r.Context().Done():
		return false
	}
}

func (s *Streamer) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	s.snapReqs.Inc()
	db, cur, err := s.e.ReplSnapshot()
	if err != nil {
		writeError(w, http.StatusConflict, "not_replicable", err.Error())
		return
	}
	store := s.e.Store()
	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	if _, err := bw.Write(encodeSnapHeader(store.ID(), cur)); err != nil {
		return
	}
	if err := storage.WriteReplSnapshot(bw, db); err != nil {
		// Headers are gone; all we can do is cut the stream short so the
		// follower's CRC checks reject the truncated snapshot.
		if s.logf != nil {
			s.logf("repl: snapshot stream failed: %v", err)
		}
		return
	}
	if err := bw.Flush(); err == nil {
		s.sentBytes.Add(uint64(cw.n))
	}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WALPath and SnapshotPath are the feed endpoints, exported so gyod
// and the follower client agree on them by construction.
const (
	WALPath      = "/v1/repl/wal"
	SnapshotPath = "/v1/repl/snapshot"
)

// feedURL builds the long-poll request URL for a cursor.
func feedURL(leader string, c storage.Cursor, wait time.Duration, maxBytes int) string {
	return fmt.Sprintf("%s%s?seg=%d&off=%d&wait=%s&max=%d",
		leader, WALPath, c.Seg, c.Off, wait, maxBytes)
}
