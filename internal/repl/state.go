package repl

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"gyokit/internal/storage"
)

// stateFile is the follower's replication sidecar, next to the WAL in
// the data directory. It records which leader this store replicates,
// that leader's identity, the applied cursor as of the last checkpoint
// or clean stop, and whether the node was promoted. The WAL itself
// carries the fine-grained cursor (a CursorMark rides in every applied
// batch); the sidecar survives checkpoint truncation and is what makes
// a restarted or promoted node refuse unsafe configurations.
const stateFile = "repl-state.json"

// State is the persisted replication sidecar.
type State struct {
	// LeaderURL is the leader base URL this node follows (or followed,
	// once promoted).
	LeaderURL string `json:"leaderUrl"`
	// LeaderID is the leader store's identity in hex, adopted from the
	// snapshot header at bootstrap. Every feed response is checked
	// against it: a different identity means the "leader" at that URL
	// is a different store and its WAL positions mean nothing here.
	LeaderID string `json:"leaderStoreId"`
	// CursorSeg/CursorOff is the applied cursor as of the last save.
	// The WAL's replayed CursorMark, when ahead, wins over this.
	CursorSeg uint64 `json:"cursorSeg"`
	CursorOff int64  `json:"cursorOff"`
	// Promoted records that this node was promoted to leader. A
	// promoted data directory refuses -follow: its WAL has local writes
	// past the fence and can only re-join a topology by re-seeding.
	Promoted bool `json:"promoted,omitempty"`
}

// Cursor returns the sidecar cursor as a storage cursor.
func (st State) Cursor() storage.Cursor {
	return storage.Cursor{Seg: st.CursorSeg, Off: st.CursorOff}
}

// ParseLeaderID decodes the hex store identity; 0 if empty/invalid.
func (st State) ParseLeaderID() uint64 {
	id, err := strconv.ParseUint(st.LeaderID, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// FormatStoreID renders a store identity the way the sidecar holds it.
func FormatStoreID(id uint64) string { return strconv.FormatUint(id, 16) }

// LoadState reads the sidecar. ok is false when no sidecar exists —
// a plain leader directory.
func LoadState(dir string) (st State, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, stateFile))
	if os.IsNotExist(err) {
		return State{}, false, nil
	}
	if err != nil {
		return State{}, false, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return State{}, false, fmt.Errorf("repl: corrupt %s: %w", stateFile, err)
	}
	if st.CursorOff < 0 {
		return State{}, false, fmt.Errorf("repl: corrupt %s: negative cursor offset", stateFile)
	}
	return st, true, nil
}

// SaveState writes the sidecar durably (storage.WriteFileAtomic), so a
// crash leaves either the old or the new sidecar, never a torn one, and
// a nil return means the new one survives power loss.
func SaveState(dir string, st State) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return storage.WriteFileAtomic(filepath.Join(dir, stateFile), append(data, '\n'))
}
