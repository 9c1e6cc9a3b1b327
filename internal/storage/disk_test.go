package storage

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestClassify: every name a data directory can hold lands in exactly
// the class its full pattern names, and a near miss in none.
func TestClassify(t *testing.T) {
	const seq16 = "0000000000000042"
	for _, tc := range []struct {
		name  string
		class fileClass
		seq   uint64
	}{
		{"wal-0000000000000001.log", classSegment, 1},
		{"wal-" + seq16 + ".log", classSegment, 42},
		{"manifest-" + seq16 + ".mf", classManifest, 42},
		{"manifest-" + seq16 + ".mf.tmp", classManifestTmp, 42},
		{"chunks-" + seq16 + ".gyo", classChunks, 42},
		{"checkpoint-" + seq16 + ".ckpt", classLegacy, 42},
		// Near misses.
		{"wal-1.log", classOther, 0},
		{"wal-00000000000000001.log", classOther, 0}, // 17 digits
		{"wal-000000000000000x.log", classOther, 0},
		{"wal-" + seq16 + ".log.tmp", classOther, 0},
		{"xwal-" + seq16 + ".log", classOther, 0},
		{"manifest-" + seq16 + ".mf.bak", classOther, 0},
		{"chunks-" + seq16 + ".gyo.tmp", classOther, 0},
		{"checkpoint-" + seq16 + ".mf", classOther, 0},
		// The directory's other residents.
		{"LOCK", classOther, 0},
		{storeIDFile, classOther, 0},
		{tmpName(storeIDFile), classOther, 0},
		{truncTailFile, classOther, 0},
		{tmpName(truncTailFile), classOther, 0},
		{"repl-state.json", classOther, 0},
		{"repl-state.json.tmp", classOther, 0},
		{"subdir", classOther, 0},
	} {
		class, seq := classify(tc.name)
		if class != tc.class || seq != tc.seq {
			t.Errorf("classify(%q) = class %d seq %d, want class %d seq %d", tc.name, class, seq, tc.class, tc.seq)
		}
		if tc.class != classOther && tc.class.name(tc.seq) != tc.name {
			t.Errorf("class %d name(%d) = %q, want %q", tc.class, tc.seq, tc.class.name(tc.seq), tc.name)
		}
		// Exactly one class: no other pattern may claim the name too.
		matches := 0
		for c := classOther + 1; c < classCount; c++ {
			if _, ok := parseSeq(tc.name, classAffixes[c].prefix, classAffixes[c].suffix); ok {
				matches++
			}
		}
		if want := min(int(tc.class), 1); matches != want {
			t.Errorf("%q matches %d class patterns, want %d", tc.name, matches, want)
		}
	}
}

// TestListDir: the listing is classify over a real directory, ascending
// per class, subdirectories and strangers ignored.
func TestListDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		segName(3), segName(1), segName(2), manName(2), tmpName(manName(3)), chunkStoreName(1),
		classLegacy.name(1), "wal-1.log", storeIDFile, truncTailFile, "repl-state.json", "LOCK",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	ls, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := dirListing{
		classSegment: {1, 2, 3}, classManifest: {2}, classManifestTmp: {3}, classChunks: {1}, classLegacy: {1},
	}
	for c := range want {
		if !slices.Equal(ls[c], want[c]) {
			t.Errorf("class %d: got %v, want %v", c, ls[c], want[c])
		}
	}
	if _, err := listDir(filepath.Join(dir, "absent")); !os.IsNotExist(err) {
		t.Fatalf("listing a missing directory: %v", err)
	}
}

// TestDiskVocabularyIsTheOnlyDiskPolicy keeps the consolidation from
// eroding: outside disk.go, no non-test file of internal/storage or
// internal/repl may rename, scan a directory, fsync, parse a store file
// name, or consult Options.NoSync (Store.Synced, which reports it,
// excepted).
func TestDiskVocabularyIsTheOnlyDiskPolicy(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../repl"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go") && !(dir == "." && fi.Name() == "disk.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "Synced" {
						continue
					}
					ast.Inspect(decl, func(n ast.Node) bool {
						bad := ""
						switch n := n.(type) {
						case *ast.SelectorExpr:
							if n.Sel.Name == "NoSync" {
								bad = "reads .NoSync"
							}
						case *ast.CallExpr:
							switch fun := n.Fun.(type) {
							case *ast.Ident:
								if fun.Name == "parseSeq" {
									bad = "calls parseSeq"
								}
							case *ast.SelectorExpr:
								x, _ := fun.X.(*ast.Ident)
								switch {
								case x != nil && x.Name == "os" && (fun.Sel.Name == "Rename" || fun.Sel.Name == "ReadDir"):
									bad = "calls os." + fun.Sel.Name
								case fun.Sel.Name == "Sync" && len(n.Args) == 0:
									bad = "calls .Sync()"
								}
							}
						}
						if bad != "" {
							t.Errorf("%s %s: that belongs to internal/storage/disk.go", fset.Position(n.Pos()), bad)
						}
						return true
					})
				}
			}
		}
	}
}
