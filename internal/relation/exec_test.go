package relation

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gyokit/internal/schema"
)

// TestExecScratchBudget pins what a pooled Exec retains after the
// operators ran over n-row operands: per key table one slot table (4 B
// per slot), one key word per row (8 B) and one chain link per row
// (4 B); a streamed join's group-local table, the same layout without
// chains; Semijoin's bitmap key set, at most 32 · tableSize(|s|) bits —
// 4 B per slot of the keyTable it stands in for, the bytes of its slot
// table — which a semijoin whose key spans exactly that many values
// fills; and the handful of per-column buffers. Join, Semijoin and
// Project use one key table — Project's words sized by its operand's
// rows, like a build side's — and a streamed join a second, its probe
// side's groups: the slots of the keyTable that numbers g's keys, then
// each group's end; its words, then the entries, 8 B a row; a group
// number per row in its links. A join→filter keeps 4 B per group and
// 4 B per filter row more, f's groups (fends, fents) — so a streamed join
// retains less than the two statements it replaces, whose projection
// sizes a table by |r ⋈ s|. A filter's group table holds the h columns of
// one g-group of f, so with g = ∅ it grows to f and no further. It
// sums cap × element size over every slice field by reflection, struct
// fields included, so scratch added later — a fourth table, a word per
// slot — is counted without being listed here. A counted Join keeps 4 B
// more per build row, its bucket sizes; a streamed join on bit rows keeps
// them in its key table's words — at most bitRowWords words per build
// row, a filter's being the most, so their term is what passes the
// table's own 8 B per row — and their counts by key in those sizes.
// Semijoin marks the rows it keeps, 1 bit per row of r, in a buffer a
// chain's projection reuses for its probe rows; a chain keeps each
// semijoin stage's key set in a scratch of its own — a keyTable without
// chains (4 B per slot, 8 B per row) or a bitmap — so a two-stage chain
// adds one of each and nothing else: it stores no intermediate value.
func TestExecScratchBudget(t *testing.T) {
	const n = 50000
	u := schema.NewUniverse()
	r, s := New(u, u.Set("a", "b")), New(u, u.Set("b", "c"))
	for i := 0; i < n; i++ {
		r.Insert(Tuple{Value(i), Value(i % 5000)})
		s.Insert(Tuple{Value(i % 5000), Value(i)})
	}
	const joined = n * n / 5000
	ac := u.Set("a", "c")
	ex := NewExec()
	if got := ex.Semijoin(r, s).Card(); got != n {
		t.Fatalf("semijoin kept %d of %d rows", got, n)
	}
	if got := ex.Project(r, u.Set("b")).Card(); got != 5000 {
		t.Fatalf("projection has %d rows, want 5000", got)
	}
	if got := ex.Join(r, ex.Semijoin(s, r)).Card(); got != joined {
		t.Fatalf("join has %d rows, want %d", got, joined)
	}
	// wide's key b runs from 0 to 32 · tableSize(n) − 1: the widest span
	// a bitmap over n rows may have.
	bitmap := 4 * tableSize(n) // B
	wide := New(u, u.Set("b", "c"))
	for i := 0; i < n-1; i++ {
		wide.Insert(Tuple{Value(i), Value(i)})
	}
	wide.Insert(Tuple{Value(8*bitmap - 1), 0})
	if got := ex.Semijoin(r, wide).Card(); got != n {
		t.Fatalf("semijoin with the widest bitmap kept %d of %d rows", got, n)
	}
	if got := 8 * cap(ex.bits); got != bitmap {
		t.Fatalf("the widest bitmap over %d rows holds %d B, want %d", n, got, bitmap)
	}
	const perColumn = 1 << 10             // obuf, pos, srcs: a few words per column
	chained := 4*tableSize(n) + 8*n + 4*n // one key table over n rows, with chains
	const filterGroups = 4*n + 4*n        // fends by group — n, a group per row of s — and fents by filter row
	const marks = (n + 63) / 64 * 8       // Semijoin's kept rows, or a projecting chain's probe rows
	if budget := chained + bitmap + marks + perColumn; retained(t, ex) > budget {
		t.Fatalf("Exec retains %d B after %d-row operators, budget %d B (4 B × %d slots + 12 B × %d build rows + %d B bitmap + %d B marks + %d)",
			retained(t, ex), n, budget, tableSize(n), n, bitmap, marks, perColumn)
	}

	twoStmt := NewExec()
	want := twoStmt.Project(twoStmt.Join(r, s), ac)
	got, card, rows := ex.JoinProject(r, s, ac, All, Budget{})
	if rows != joined || got.Card() != want.Card() || card != want.Card() {
		t.Fatalf("streamed join→project: %d rows (%d counted) from %d joined, want %d from %d", got.Card(), card, rows, want.Card(), joined)
	}
	if got, _, _ := joinFilter(ex, r, s, s, All, Budget{}); got.Card() != joined {
		t.Fatalf("streamed join→filter by s kept %d rows, want %d", got.Card(), joined)
	}
	local := 4*tableSize(groupRows) + 8*groupRows // a group table that never grew
	// The second table is the probe side's groups — the numbering table's
	// slots, then the group ends; its words, then the entries; a group
	// number per row — as many bytes as a chained table over it.
	budget := 2*chained + filterGroups + local + bitmap + marks + perColumn
	if retained(t, ex) > budget {
		t.Fatalf("Exec retains %d B after streamed joins of %d-row operands, budget %d B (2 × (4 B × %d slots + 12 B × %d rows) + 8 B × %d rows + %d B local + %d B bitmap + %d)",
			retained(t, ex), n, budget, tableSize(n), n, n, local, bitmap, perColumn)
	}
	if two := retained(t, twoStmt); two < 4*tableSize(joined) || budget >= two {
		t.Fatalf("join then project retains %d B (a %d-slot projection table), the streamed budget %d B", two, tableSize(joined), budget)
	}

	// Counted forms store k rows' worth of chunk, whatever they count. π_a
	// keeps no column of the probe side, bc, so its one group holds all n
	// distinct keys: the group table grows to them, and no further.
	const k = 10
	capRows := func(rel *Relation) int {
		rows := 0
		for _, c := range rel.chunks {
			rows += cap(c.data) / rel.width
		}
		return rows
	}
	if first, card := ex.JoinFirst(r, s, k, Budget{}); card != joined || first.Card() != k || capRows(first) > k {
		t.Fatalf("counted join: %d of %d rows kept, room for %d; want %d of %d, room for ≤ %d", first.Card(), card, capRows(first), k, joined, k)
	}
	proj, card, rows := ex.JoinProject(r, s, u.Set("a"), k, Budget{})
	if card != n || rows != joined || proj.Card() != k || capRows(proj) > k {
		t.Fatalf("counted join→project: %d of %d rows kept from %d joined, room for %d; want %d of %d from %d, room for ≤ %d",
			proj.Card(), card, rows, capRows(proj), k, n, joined, k)
	}
	grown := groupRows
	for grown < n {
		grown *= 2
	}
	if len(ex.local.words) != grown {
		t.Fatalf("the group table holds %d words after a group of %d keys, want %d", len(ex.local.words), n, grown)
	}
	local = 4*tableSize(grown) + 8*grown
	const sized = 4 * n // a counted Join's bucket sizes, by build row
	budget = 2*chained + filterGroups + local + bitmap + marks + sized + perColumn
	if retained(t, ex) > budget {
		t.Fatalf("Exec retains %d B after a counted join→project whose group has %d keys, budget %d B (2 × (4 B × %d slots + 12 B × %d rows) + 8 B × %d rows + %d B local + %d B bitmap + 4 B × %d sizes + %d)",
			retained(t, ex), n, budget, tableSize(n), n, n, local, bitmap, n, perColumn)
	}

	// A filter by π_a(r) shares no column with the probe side, bc: g = ∅,
	// so its one group table holds all of f's keys, in tableSize(|f|)
	// slots and as many words at most, however many join rows probe it.
	fa := ex.Project(r, u.Set("a"))
	filt, card, rows := joinFilter(ex, r, s, fa, k, Budget{})
	if card != joined || rows != joined || filt.Card() != k {
		t.Fatalf("counted join→filter by π_a(r): %d of %d rows kept from %d joined; want %d of %d from %d", filt.Card(), card, rows, k, joined, joined)
	}
	if size := tableSize(fa.Card()); len(ex.local.slots) > size || len(ex.local.words) > size {
		t.Fatalf("the group table of a g = ∅ filter by %d rows has %d slots and %d words, want ≤ %d each", fa.Card(), len(ex.local.slots), len(ex.local.words), size)
	}
	local = 4*tableSize(fa.Card()) + 8*tableSize(fa.Card())
	budget = 2*chained + filterGroups + local + bitmap + marks + sized + perColumn
	if retained(t, ex) > budget {
		t.Fatalf("Exec retains %d B after a counted g = ∅ join→filter by %d rows, budget %d B (2 × (4 B × %d slots + 12 B × %d rows) + 8 B × %d rows + %d B local + %d B bitmap + 4 B × %d sizes + %d)",
			retained(t, ex), fa.Card(), budget, tableSize(n), n, n, local, bitmap, n, perColumn)
	}

	// The widest bit rows, JoinFilter's at its bound: n build rows over
	// 5000 keys b and h values a spanning 640 · c (c = bitRowWords of a
	// filter), so each key's row is 10 · c words, c words per build row in
	// all. They live in the words of the build table they stand in for,
	// and their counts by key in its sizes; a group's filter bits, and the
	// words they set, in the group table's words and slots.
	c := bitRowWords[filterRows]
	hdom := 640 * c
	wb := New(u, u.Set("a", "b"))
	for i := 0; i < n; i++ {
		wb.Insert(Tuple{Value(i % hdom), Value(i % 5000)})
	}
	f := New(u, ac)
	for i := 0; i < 5000; i++ {
		f.Insert(Tuple{Value(i % hdom), Value(i)})
	}
	if kept, card, rows := joinFilter(ex, wb, s, f, k, Budget{}); card == 0 || rows != joined || kept.Card() != k {
		t.Fatalf("counted join→filter on bit rows: %d of %d rows kept from %d joined; want %d from %d", kept.Card(), card, rows, k, joined)
	}
	if words := c * n; cap(ex.keys.words) != words {
		t.Fatalf("bit rows at the bound over %d build rows hold %d words, want %d", n, cap(ex.keys.words), words)
	}
	bitRows := 8 * (c - 1) * n // the words past the build table's own
	if budget += bitRows; retained(t, ex) > budget {
		t.Fatalf("Exec retains %d B after a join→filter on bit rows at the bound, budget %d B (the budget above + 8 B × %d words × %d build rows past the key table's 8 B per row)",
			retained(t, ex), budget, c, n)
	}

	// A two-stage chain, r ⋈ s filtered by s, then ⋉ the even c — a key
	// table, for MaxInt32 among them — then ⋉ r's a, a bitmap, then onto
	// r: one key set per stage, and the marks, 1 bit per row of r.
	sparse := New(u, u.Set("c"))
	for i := 0; i < n; i += 2 {
		sparse.Insert(Tuple{Value(i)})
	}
	sparse.Insert(Tuple{math.MaxInt32})
	chain := Chain{Semijoins: []*Relation{sparse, ex.Project(r, u.Set("a"))}, Onto: r}
	kept, cards := ex.JoinFilter(r, s, s, chain, All, Budget{}, nil)
	if want := []int{joined, joined, joined / 2, joined / 2, n / 2}; !slices.Equal(cards, want) || kept.Card() != n/2 {
		t.Fatalf("two-stage chain: cards %v, %d rows kept; want %v, %d: r's rows of odd b, c's parity, drop", cards, kept.Card(), want, n/2)
	}
	stageTable := 4*tableSize(n) + 8*n // no chains
	if budget += stageTable + bitmap; retained(t, ex) > budget {
		t.Fatalf("Exec retains %d B after a two-stage chain, budget %d B (the budget above + %d B key table + %d B bitmap)",
			retained(t, ex), budget, stageTable, bitmap)
	}
}

// TestSemijoinKeyBitmapBoundaries runs Semijoin at the edges of its
// key-set rule (denseSpan): a one-column key whose live values in s span
// at most 32 · tableSize(|s|) values is a bitmap over [lo, hi], and one
// value more makes it a keyTable. Each case names the path it must take
// and is held to the nested-loop reference in r's order (checkKernels)
// and to sharing r's full chunks before its first dropped row. r's key
// runs over every live key of s for its first ChunkRows + 50 rows, then
// also over s's dead keys, lo − 1, hi + 1 and the ends of int32.
func TestSemijoinKeyBitmapBoundaries(t *testing.T) {
	u := schema.NewUniverse()
	u.Attr("c") // interned first, so s's key b is its second column
	ab, bc := u.Set("a", "b"), u.Set("b", "c")
	const n = 16
	budget := Value(32 * tableSize(n))       // bits, for n live rows
	spanning := func(lo, hi Value) []Value { // n values: lo, hi and lo+1, …
		vals := []Value{lo, hi}
		for v := lo + 1; len(vals) < n; v++ {
			vals = append(vals, v)
		}
		return vals
	}
	gapped := []Value{0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	ex := NewExec()
	for _, tc := range []struct {
		name       string
		live, dead []Value // key values of s's live rows, and of its dead ones
		dense      bool
		lo, span   int64 // the bitmap's, when dense
	}{
		{"span at the budget", spanning(0, budget-1), nil, true, 0, int64(budget)},
		{"span one past the budget", spanning(0, budget), nil, false, 0, 0},
		{"negative lo at the budget", spanning(-budget/2, budget/2-1), nil, true, int64(-budget / 2), int64(budget)},
		{"negative lo one past", spanning(-budget/2, budget/2), nil, false, 0, 0},
		{"MinInt32 to MaxInt32", spanning(math.MinInt32, math.MaxInt32), nil, false, 0, 0},
		{"dead rows hold the min, the max and a gap", gapped, []Value{math.MinInt32, 7, math.MaxInt32}, true, 0, 17},
		{"empty", nil, nil, true, 0, 0},
		{"all dead", nil, []Value{1, 2, 3}, true, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(u, bc)
			for i, v := range append(slices.Clone(tc.live), tc.dead...) {
				s.Insert(Tuple{Value(i), v})
			}
			// Marked dead directly: a delete of every row, or of more than
			// a quarter, would repack s instead.
			var dead []int32
			for i := range tc.dead {
				dead = append(dead, int32(len(tc.live)+i))
			}
			s.markDead(dead)
			if s.Card() != len(tc.live) || s.dead != len(tc.dead) {
				t.Fatalf("s has %d live rows and %d dead, want %d and %d", s.Card(), s.dead, len(tc.live), len(tc.dead))
			}
			lo, span, dense := denseSpan(s, s.colPos(u.Attr("b")))
			if dense != tc.dense || dense && (lo != tc.lo || span != tc.span) {
				t.Fatalf("denseSpan = %d, %d, %v; want %d, %d, %v", lo, span, dense, tc.lo, tc.span, tc.dense)
			}

			probes := slices.Clone(tc.live)
			probes = append(probes, tc.dead...)
			if len(tc.live) > 0 {
				probes = append(probes, slices.Min(tc.live)-1, slices.Max(tc.live)+1)
			}
			probes = append(probes, math.MinInt32, math.MaxInt32, 0)
			r := New(u, ab)
			for i := 0; i < 2*ChunkRows+100; i++ {
				keys := probes
				if i < ChunkRows+50 && len(tc.live) > 0 {
					keys = tc.live
				}
				r.Insert(Tuple{Value(i), keys[i%len(keys)]})
			}
			r.Freeze()
			checkKernels(t, tc.name, ex, r, s, ab)
			first := r.n
			kept := naiveOf(r).semijoin(naiveOf(s))
			for i, tp := range r.Tuples() {
				if _, ok := kept.rows[naiveKey(tp)]; !ok {
					first = i
					break
				}
			}
			checkSharesPrefix(t, r, ex.Semijoin(r, s), first)
		})
	}
}

// TestBitRowsAtTheProgramTestDomains pins the paths the program package's
// tests on dangling databases (TestOperatorOutputsOnDanglingDatabase,
// TestReadsUnderAWriteStream) say their streamed joins take: a random
// build side of rows rows over [0, domain)² is bit rows for JoinProject
// and for JoinFilter exactly as listed, and a probe side like it has its
// groups numbered by value (group) exactly when byValue.
func TestBitRowsAtTheProgramTestDomains(t *testing.T) {
	u := schema.NewUniverse()
	for _, tc := range []struct {
		rows, domain             int
		project, filter, byValue bool
	}{
		{2*ChunkRows + 900, 1000, true, true, true},   // ≈ 1.8 words a row
		{2*ChunkRows + 900, 3000, false, true, true},  // ≈ 15.5
		{2*ChunkRows + 900, 6000, false, false, true}, // ≈ 62
		{12000, 1000, true, true, true},
		{12000, 6000, false, false, true}, // ≈ 47
		{12000, 40000, false, false, false},
	} {
		r, _ := RandomUniversal(u, u.Set("a", "b"), tc.rows, tc.domain, rand.New(rand.NewSource(1)))
		_, _, _, _, project := bitSpans(r, 0, 1, bitRowWords[projectRows])
		_, _, _, _, filter := bitSpans(r, 0, 1, bitRowWords[filterRows])
		_, _, byValue := liveSpan(r, 0, int64(tableSize(r.Card()))-1)
		if project != tc.project || filter != tc.filter || byValue != tc.byValue {
			t.Errorf("%d rows over %d values: bit rows for JoinProject %v, JoinFilter %v, groups by value %v; want %v, %v, %v",
				tc.rows, tc.domain, project, filter, byValue, tc.project, tc.filter, tc.byValue)
		}
	}
}

// retained sums cap × element size over every slice field of ex,
// descending into struct fields; a bool counts nothing, and any other
// kind fails the test.
func retained(t *testing.T, ex *Exec) int {
	t.Helper()
	var sum func(v reflect.Value, path string) int
	sum = func(v reflect.Value, path string) int {
		total := 0
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+"."+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Slice:
				total += f.Cap() * int(f.Type().Elem().Size())
				if f.Type().Elem().Kind() == reflect.Struct { // a chain's stage scratch
					for j := range f.Len() {
						total += sum(f.Index(j), fmt.Sprintf("%s[%d]", name, j))
					}
				}
			case reflect.Struct:
				total += sum(f, name)
			case reflect.Bool: // a switch retains nothing
			default:
				t.Fatalf("%s is a %s: count what it retains here", name, f.Kind())
			}
		}
		return total
	}
	return sum(reflect.ValueOf(ex).Elem(), "Exec")
}

// TestGroupTableEmptiesBetweenGroups forges what a group table makes too
// rare to draw: a group whose keys share one home slot, so each is
// entered past the one before. The next group must find every slot empty,
// every one of those keys unseen — for a key of more than two columns,
// verified against the group's own copy of its columns, too — and no key
// held.
func TestGroupTableEmptiesBetweenGroups(t *testing.T) {
	u := schema.NewUniverse()
	for _, h := range []schema.AttrSet{u.Set("a"), u.Set("a", "b", "c")} {
		cols := h.Attrs()
		d := new(keyScratch).groupDedup(len(cols))
		pos := d.pos
		key := func(v Value) Tuple { // v, then zeros
			row := make(Tuple, len(cols))
			row[0] = v
			return row
		}
		home := func(v Value) uint64 { return keySlot(keyWord(key(v), pos), d.shift) }
		var crowd []Value // values sharing 0's home slot
		for v := Value(0); len(crowd) < 4; v++ {
			if home(v) == home(0) {
				crowd = append(crowd, v)
			}
		}
		for group := range 2 {
			d.start()
			if j := slices.IndexFunc(d.slots, func(s int32) bool { return s != 0 }); j >= 0 {
				t.Fatalf("%d columns, group %d starts with slot %d naming key %d", len(cols), group, j, d.slots[j]-1)
			}
			if d.n != 0 {
				t.Fatalf("%d columns, group %d starts with %d keys held", len(cols), group, d.n)
			}
			for _, v := range crowd {
				if d.seen(key(v), pos) {
					t.Fatalf("%d columns, group %d: %d seen before it was entered", len(cols), group, v)
				}
				if !d.seen(key(v), pos) {
					t.Fatalf("%d columns, group %d: %d not seen after it was entered", len(cols), group, v)
				}
			}
		}
	}
}

// TestWideGroupKeysReuseScratch: JoinProject keeps the columns of a group
// key wider than two in the Exec's scratch, so once warm it allocates no
// more for three-column keys than for two. k = 0 keeps the output empty,
// so the two runs differ only in their group tables.
func TestWideGroupKeysReuseScratch(t *testing.T) {
	op := decodeOperands(streamSeeds["inexact"])
	u := op.r.U
	wide, narrow := op.x, op.x.Diff(u.Set("c"))
	if h := wide.Diff(op.s.attrs); h.Card() != 3 || !h.SubsetOf(op.r.attrs) || op.s.Card() < op.r.Card() {
		t.Fatalf("seed: x %s, r %s built, want three build-side columns in x", wide.Key(), u.FormatSet(op.r.attrs))
	}
	ex := NewExec()
	allocs := func(x schema.AttrSet) float64 {
		return testing.AllocsPerRun(20, func() { ex.JoinProject(op.r, op.s, x, 0, Budget{}) })
	}
	if w, n := allocs(wide), allocs(narrow); w > n {
		t.Fatalf("JoinProject allocates %.0f times with three-column group keys, %.0f with two", w, n)
	}
}

// TestFoldedKeyIsVerified forges what 64 bits make too rare to draw: two
// different three-column keys with one key word. The build row's word is
// overwritten with the probe row's and its slot moved to match, so only
// the column-by-column check can tell the keys apart; a two-column key,
// being its own word, never gets that far. The set index keys a row the
// same way, on all its columns, so the same forgery — the stranger's home
// slot naming s's row — must not make Has or Insert take one for the
// other.
func TestFoldedKeyIsVerified(t *testing.T) {
	u := schema.NewUniverse()
	s := New(u, u.Set("a", "b", "c"))
	s.Insert(Tuple{1, 2, 3})
	pos := []int{0, 1, 2}
	stranger := Tuple{4, 5, 6}
	kt := new(keyScratch).buildKeys(s, pos, false, false)
	if kt.exact || kt.lookup(Tuple{1, 2, 3}, pos) != 1 || kt.lookup(stranger, pos) != 0 {
		t.Fatalf("before the forgery: exact %v, own key → %d, other key → %d",
			kt.exact, kt.lookup(Tuple{1, 2, 3}, pos), kt.lookup(stranger, pos))
	}
	clear(kt.slots)
	kt.words[0] = keyWord(stranger, pos)
	kt.slots[keySlot(kt.words[0], kt.shift)] = 1
	if got := kt.lookup(stranger, pos); got != 0 {
		t.Fatalf("a key that only shares the build row's word found row %d", got)
	}

	clear(s.base)
	s.base[keySlot(keyWord(stranger, s.all), uint(64-bits.TrailingZeros(uint(len(s.base)))))] = 1
	if s.Has(stranger) {
		t.Fatal("the set index took a row that only sits in the stranger's home slot for it")
	}
	if s.Insert(stranger); s.Card() != 2 || !s.Has(stranger) {
		t.Fatalf("inserting the stranger past the forged slot: card %d, has %v", s.Card(), s.Has(stranger))
	}
}
