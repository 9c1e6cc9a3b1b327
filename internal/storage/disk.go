package storage

// The durable-file vocabulary: every fsync, rename, truncate, remove and
// directory scan the store (and the replication sidecar) performs goes
// through this file, so the protocol in the package comment — what is
// synced before what, what NoSync waives, which names are the store's —
// is implemented once.

import (
	"fmt"
	"os"
	"path/filepath"
)

// diskHook, when non-nil, observes every fsync, directory fsync, rename,
// truncate and remove as (op, file basename) just before it is issued.
// It is nil outside tests.
var diskHook func(op, name string)

func note(op, path string) {
	if diskHook != nil {
		diskHook(op, filepath.Base(path))
	}
}

// syncFile fsyncs f unless NoSync.
func (o Options) syncFile(f *os.File) error {
	if o.NoSync {
		return nil
	}
	note("fsync", f.Name())
	return f.Sync()
}

// syncDir fsyncs the directory itself — what makes a create, rename or
// remove inside it durable — unless NoSync.
func (o Options) syncDir(dir string) error {
	if o.NoSync {
		return nil
	}
	note("fsyncdir", dir)
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func removeFile(path string) {
	note("remove", path)
	os.Remove(path)
}

// rollbackTail undoes a failed append to f: truncate back to good, the
// last offset known to hold complete records, and reposition there. On
// error f's tail is in an unknown state and the caller must stop
// appending to it.
func rollbackTail(f *os.File, good int64) error {
	note("truncate", f.Name())
	if err := f.Truncate(good); err != nil {
		return err
	}
	_, err := f.Seek(good, 0)
	return err
}

// createFile creates (or truncates) path holding just header, removing
// it again if the header cannot be written.
func createFile(path string, header []byte) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(header); err != nil {
		_ = f.Close()
		removeFile(path)
		return nil, err
	}
	return f, nil
}

// tmpName is the temp file writeFileAtomic stages path's new content in.
func tmpName(path string) string { return path + ".tmp" }

// writeFileAtomic replaces path with the concatenation of parts: temp
// file → write → fsync → close → rename → directory fsync, the temp
// file removed on any failure before the rename. renamed reports
// whether the new content is in place: an error with renamed true is a
// directory-fsync failure, after which the file is visible but its
// rename is not known to be durable.
func (o Options) writeFileAtomic(path string, parts ...[]byte) (renamed bool, err error) {
	tmp := tmpName(path)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false, err
	}
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			break
		}
	}
	if err == nil {
		err = o.syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		note("rename", path)
		err = os.Rename(tmp, path)
	}
	if err != nil {
		removeFile(tmp)
		return false, err
	}
	return true, o.syncDir(filepath.Dir(path))
}

// WriteFileAtomic durably replaces the file at path with data: a crash
// at any point leaves either the old content or the new, never a torn
// or empty file, and a nil return means the new content survives power
// loss.
func WriteFileAtomic(path string, data []byte) error {
	_, err := Options{}.writeFileAtomic(path, data)
	return err
}

// fileClass is what a name in a store directory is.
type fileClass int

const (
	classOther       fileClass = iota // not the store's: LOCK, store-id, wal-trunc, sidecars, anything else
	classSegment                      // wal-<seq>.log
	classManifest                     // manifest-<seq>.mf
	classManifestTmp                  // manifest-<seq>.mf.tmp: a crash between write and rename
	classChunks                       // chunks-<gen>.gyo
	classLegacy                       // checkpoint-<seq>.ckpt: pre-manifest full checkpoint
	classCount
)

// classAffixes is the naming scheme: <prefix><16 decimal digits><suffix>.
var classAffixes = [classCount]struct{ prefix, suffix string }{
	classSegment:     {"wal-", ".log"},
	classManifest:    {"manifest-", ".mf"},
	classManifestTmp: {"manifest-", ".mf.tmp"},
	classChunks:      {"chunks-", ".gyo"},
	classLegacy:      {"checkpoint-", ".ckpt"},
}

// name is the file name of class c with sequence (or generation) seq.
func (c fileClass) name(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", classAffixes[c].prefix, seq, classAffixes[c].suffix)
}

func segName(seq uint64) string        { return classSegment.name(seq) }
func manName(seq uint64) string        { return classManifest.name(seq) }
func chunkStoreName(gen uint64) string { return classChunks.name(gen) }

// classify names the class of a directory entry and its sequence number.
func classify(name string) (fileClass, uint64) {
	for c := classOther + 1; c < classCount; c++ {
		if seq, ok := parseSeq(name, classAffixes[c].prefix, classAffixes[c].suffix); ok {
			return c, seq
		}
	}
	return classOther, 0
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(prefix) : len(prefix)+16] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// dirListing is a store directory's files: for each class, the sequence
// numbers present, ascending.
type dirListing [classCount][]uint64

// listDir reads dir once and classifies every name in it. (ReadDir
// returns names sorted and the sequence field is fixed-width, so each
// class comes out ascending.)
func listDir(dir string) (dirListing, error) {
	var ls dirListing
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ls, err
	}
	for _, e := range entries {
		if class, seq := classify(e.Name()); class != classOther {
			ls[class] = append(ls[class], seq)
		}
	}
	return ls, nil
}
