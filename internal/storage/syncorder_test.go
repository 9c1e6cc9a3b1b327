package storage_test

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"gyokit/internal/relation"
	"gyokit/internal/repl"
	"gyokit/internal/schema"
	"gyokit/internal/storage"
)

// The file names a store's life below produces.
const (
	wal1, wal2, wal3 = "wal-0000000000000001.log", "wal-0000000000000002.log", "wal-0000000000000003.log"
	wal4, wal5       = "wal-0000000000000004.log", "wal-0000000000000005.log"
	man3, man4, man5 = "manifest-0000000000000003.mf", "manifest-0000000000000004.mf", "manifest-0000000000000005.mf"
	chunks1, chunks2 = "chunks-0000000000000001.gyo", "chunks-0000000000000002.gyo"
)

// TestSyncOrder pins, for every transition that changes what is on
// disk, the exact sequence of fsyncs, directory fsyncs, renames,
// truncates and removes — the durability protocol itself. The store
// directory is named "store", so that is what a directory fsync shows.
// Under NoSync the fsyncs, and only the fsyncs, disappear.
//
// Invariants the sequences spell out: a chunk file is fsynced before
// the manifest that references it is written; the manifest is renamed
// and the directory fsynced before any segment, manifest or chunk
// generation it obsoletes is removed; a new segment is durable (file and
// directory entry) before the old one is retired; every temp file is
// fsynced before it is renamed over the name it replaces.
func TestSyncOrder(t *testing.T) {
	// One store lived through every transition, in order. SegmentBytes 1
	// rotates on every append that finds a record in the tail segment;
	// CompactBytes 1 compacts as soon as the chunk store is mostly garbage.
	wide := make([]relation.Tuple, relation.ChunkRows) // one full chunk
	for i := range wide {
		wide[i] = relation.Tuple{relation.Value(i), relation.Value(i + 1)}
	}
	type step struct {
		name string
		muts []storage.Mutation // appended (and applied to the snapshot) …
		ckpt bool               // … or: checkpoint the snapshot
		// Expected operations with fsync on; those starting "fsync" are
		// the ones NoSync drops.
		want []string
	}
	publish := func(man string) []string {
		return []string{"fsync " + man + ".tmp", "rename " + man, "fsyncdir store"}
	}
	rotate := func(next, old string) []string {
		return []string{"fsync " + next, "fsyncdir store", "fsync " + old}
	}
	steps := []step{
		{name: "append", muts: []storage.Mutation{storage.Create("a", "b"), storage.Insert(0, 2, wide[:3])},
			want: []string{"fsync " + wal1}},
		{name: "append with segment rotation", muts: []storage.Mutation{storage.Insert(0, 2, wide[3:6])},
			want: append(rotate(wal2, wal1), "fsync "+wal2)},
		{name: "checkpoint, first generation", ckpt: true, want: slices.Concat(
			rotate(wal3, wal2),
			[]string{"fsync " + chunks1},
			publish(man3),
			[]string{"remove " + wal1, "remove " + wal2},
			publish("wal-trunc"))},
		{name: "append a full chunk", muts: []storage.Mutation{storage.Insert(0, 2, wide)},
			want: []string{"fsync " + wal3}},
		{name: "checkpoint, appending to the live generation", ckpt: true, want: slices.Concat(
			rotate(wal4, wal3),
			[]string{"fsync " + chunks1},
			publish(man4),
			[]string{"remove " + wal3},
			publish("wal-trunc"),
			[]string{"remove " + man3})},
		{name: "append a drop", muts: []storage.Mutation{storage.Drop(0)},
			want: []string{"fsync " + wal4}},
		{name: "checkpoint, compacting into a fresh generation", ckpt: true, want: slices.Concat(
			rotate(wal5, wal4),
			[]string{"fsync " + chunks2},
			publish(man5),
			[]string{"remove " + wal4},
			publish("wal-trunc"),
			[]string{"remove " + chunks1, "remove " + man4})},
	}
	firstOpen := slices.Concat(
		[]string{"fsync " + wal1, "fsyncdir store"},
		publish("store-id"))
	closeOps := []string{"fsync " + wal5}
	reopen := []string{"truncate " + wal5, "fsync " + wal5}

	for _, noSync := range []bool{false, true} {
		name := "sync"
		if noSync {
			name = "nosync"
		}
		t.Run(name, func(t *testing.T) {
			rec := record(t)
			check := func(what string, want []string) {
				t.Helper()
				if noSync {
					want = slices.DeleteFunc(slices.Clone(want), func(op string) bool { return op[:5] == "fsync" })
				}
				if got := rec.take(); !slices.Equal(got, want) {
					t.Errorf("%s:\n got  %q\n want %q", what, got, want)
				}
			}
			dir := filepath.Join(t.TempDir(), "store")
			opt := storage.Options{NoSync: noSync, SegmentBytes: 1, CompactBytes: 1, CheckpointBytes: -1}
			s, err := storage.Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			check("first open of an empty directory", firstOpen)
			db := s.State()
			for _, st := range steps {
				if st.ckpt {
					err = s.Checkpoint(db)
				} else if err = s.Append(st.muts); err == nil {
					db, _, err = storage.ApplyAll(db, st.muts)
				}
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				check(st.name, st.want)
			}
			if st := s.Stats(); st.Compactions != 1 || st.ChunksWritten != 1 {
				t.Fatalf("the steps did not exercise the chunk store as intended: %+v", st)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			check("close", closeOps)
			if s, err = storage.Open(dir, opt); err != nil {
				t.Fatal(err)
			}
			check("reopen", reopen)
			s.Close()
		})
	}

	// A follower seed has no Options: it is always synced.
	t.Run("install snapshot and sidecar", func(t *testing.T) {
		db, _, err := storage.ApplyAll(&relation.Database{D: schema.New(schema.NewUniverse())}, []storage.Mutation{storage.Create("a", "b"), storage.Insert(0, 2, wide)})
		if err != nil {
			t.Fatal(err)
		}
		var stream bytes.Buffer
		if err := storage.WriteReplSnapshot(&stream, db); err != nil {
			t.Fatal(err)
		}
		rec := record(t)
		dir := filepath.Join(t.TempDir(), "store")
		if err := storage.InstallReplSnapshot(dir, &stream); err != nil {
			t.Fatal(err)
		}
		if got, want := rec.take(), append([]string{"fsync " + chunks1}, publish("manifest-0000000000000001.mf")...); !slices.Equal(got, want) {
			t.Errorf("InstallReplSnapshot:\n got  %q\n want %q", got, want)
		}
		if err := repl.SaveState(dir, repl.State{LeaderURL: "http://leader", LeaderID: "1"}); err != nil {
			t.Fatal(err)
		}
		if got, want := rec.take(), publish("repl-state.json"); !slices.Equal(got, want) {
			t.Errorf("SaveState:\n got  %q\n want %q", got, want)
		}
	})
}

// recorder collects "op name" strings from the storage disk hook.
type recorder struct{ ops []string }

func record(t *testing.T) *recorder {
	r := &recorder{}
	storage.SetDiskHook(func(op, name string) { r.ops = append(r.ops, op+" "+name) })
	t.Cleanup(func() { storage.SetDiskHook(nil) })
	return r
}

func (r *recorder) take() []string {
	ops := r.ops
	r.ops = nil
	return ops
}
