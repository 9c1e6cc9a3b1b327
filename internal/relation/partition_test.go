package relation

import (
	"math/rand"
	"testing"

	"gyokit/internal/schema"
)

// randomRelation builds a relation over the given attrs with up to n
// random tuples.
func randomRelation(u *schema.Universe, attrs schema.AttrSet, n, domain int, rng *rand.Rand) *Relation {
	r, _ := RandomUniversal(u, attrs, n, domain, rng)
	return r
}

// randomSubset picks a random (possibly empty) subset of attrs.
func randomSubset(attrs schema.AttrSet, rng *rand.Rand) schema.AttrSet {
	out := schema.NewAttrSet()
	attrs.ForEach(func(a schema.Attr) bool {
		if rng.Intn(2) == 0 {
			out = out.Add(a)
		}
		return true
	})
	return out
}

func TestPartitionMergeRoundTrip(t *testing.T) {
	u := schema.NewUniverse()
	abc := u.Set("a", "b", "c")
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		r := randomRelation(u, abc, 1+rng.Intn(400), 1+rng.Intn(16), rng)
		key := randomSubset(abc, rng)
		p := 1 + rng.Intn(8)
		pt := Partition(r, key, p)
		if pt.Card() != r.Card() {
			t.Fatalf("trial %d: partition holds %d tuples, source %d", trial, pt.Card(), r.Card())
		}
		if got := pt.Merge(); !got.Equal(r) {
			t.Fatalf("trial %d: partition(%d)/merge changed the relation", trial, p)
		}
	}
}

// TestPartitionPlacement checks the placement invariant directly:
// rows agreeing on the key columns land in the same shard.
func TestPartitionPlacement(t *testing.T) {
	u := schema.NewUniverse()
	ab := u.Set("a", "b")
	r := New(u, ab)
	for i := 0; i < 100; i++ {
		r.Insert(Tuple{Value(i % 5), Value(i)})
	}
	key := u.Set("a")
	pt := Partition(r, key, 4)
	// Each key value must appear in at most one shard.
	home := map[Value]int{}
	for si, sh := range pt.Shards {
		for i := 0; i < sh.Card(); i++ {
			a := sh.TupleAt(i)[0]
			if prev, ok := home[a]; ok && prev != si {
				t.Fatalf("key value %d split across shards %d and %d", a, prev, si)
			}
			home[a] = si
		}
	}
}

func TestParExecPartitionMatchesSerial(t *testing.T) {
	u := schema.NewUniverse()
	abcd := u.Set("a", "b", "c", "d")
	rng := rand.New(rand.NewSource(11))
	pe := NewParExec(4)
	for trial := 0; trial < 30; trial++ {
		r := randomRelation(u, abcd, 1+rng.Intn(1000), 1+rng.Intn(12), rng)
		key := randomSubset(abcd, rng)
		serial := Partition(r, key, 4)
		par := pe.Partition(r, key)
		if len(serial.Shards) != len(par.Shards) {
			t.Fatalf("trial %d: shard counts differ", trial)
		}
		for i := range serial.Shards {
			if !serial.Shards[i].Equal(par.Shards[i]) {
				t.Fatalf("trial %d: shard %d differs between serial and parallel partitioning", trial, i)
			}
		}
	}
}

func TestRepartition(t *testing.T) {
	u := schema.NewUniverse()
	abc := u.Set("a", "b", "c")
	rng := rand.New(rand.NewSource(13))
	pe := NewParExec(3)
	for trial := 0; trial < 30; trial++ {
		r := randomRelation(u, abc, 1+rng.Intn(500), 1+rng.Intn(10), rng)
		k1 := randomSubset(abc, rng)
		k2 := randomSubset(abc, rng)
		pt := pe.Partition(r, k1)
		rp := pe.Repartition(pt, k2)
		if !rp.Key.Equal(k2) {
			t.Fatalf("trial %d: repartition kept the old key", trial)
		}
		if !rp.Merge().Equal(r) {
			t.Fatalf("trial %d: repartition lost or invented tuples", trial)
		}
		// Repartitioning must agree with partitioning from scratch.
		direct := pe.Partition(r, k2)
		for i := range rp.Shards {
			if !rp.Shards[i].Equal(direct.Shards[i]) {
				t.Fatalf("trial %d: shard %d differs between repartition and direct partition", trial, i)
			}
		}
	}
}

// joinPairFor builds two relations over partially overlapping schemas.
func joinPairFor(u *schema.Universe, rng *rand.Rand, n int) (*Relation, *Relation) {
	ab := u.Set("a", "b")
	bc := u.Set("b", "c")
	r := randomRelation(u, ab, n, 1+rng.Intn(12), rng)
	s := randomRelation(u, bc, n, 1+rng.Intn(12), rng)
	return r, s
}

func TestJoinParMatchesSerial(t *testing.T) {
	u := schema.NewUniverse()
	rng := rand.New(rand.NewSource(17))
	for _, p := range []int{1, 2, 4, 7} {
		pe := NewParExec(p)
		for trial := 0; trial < 25; trial++ {
			r, s := joinPairFor(u, rng, 1+rng.Intn(300))
			key := r.Attrs().Intersect(s.Attrs())
			pr := pe.Partition(r, key)
			ps := pe.Partition(s, key)
			got := pe.JoinPar(pr, ps).Merge()
			want := r.Join(s)
			if !got.Equal(want) {
				t.Fatalf("p=%d trial %d: parallel join %d tuples, serial %d", p, trial, got.Card(), want.Card())
			}
		}
	}
}

func TestSemijoinParMatchesSerial(t *testing.T) {
	u := schema.NewUniverse()
	rng := rand.New(rand.NewSource(19))
	for _, p := range []int{1, 2, 4, 7} {
		pe := NewParExec(p)
		for trial := 0; trial < 25; trial++ {
			r, s := joinPairFor(u, rng, 1+rng.Intn(300))
			key := r.Attrs().Intersect(s.Attrs())
			pr := pe.Partition(r, key)
			ps := pe.Partition(s, key)
			got := pe.SemijoinPar(pr, ps).Merge()
			want := r.Semijoin(s)
			if !got.Equal(want) {
				t.Fatalf("p=%d trial %d: parallel semijoin %d tuples, serial %d", p, trial, got.Card(), want.Card())
			}
		}
	}
}

func TestProjectParMatchesSerial(t *testing.T) {
	u := schema.NewUniverse()
	abc := u.Set("a", "b", "c")
	rng := rand.New(rand.NewSource(23))
	pe := NewParExec(4)
	for trial := 0; trial < 25; trial++ {
		r := randomRelation(u, abc, 1+rng.Intn(400), 1+rng.Intn(8), rng)
		key := u.Set("a")
		x := u.Set("a", "b")
		pt := pe.Partition(r, key)
		got := pe.ProjectPar(pt, x).Merge()
		want := r.Project(x)
		if !got.Equal(want) {
			t.Fatalf("trial %d: parallel projection %d tuples, serial %d", trial, got.Card(), want.Card())
		}
	}
}

func TestProjectParPanicsWhenKeyDropped(t *testing.T) {
	u := schema.NewUniverse()
	ab := u.Set("a", "b")
	r := randomRelation(u, ab, 50, 4, rand.New(rand.NewSource(1)))
	pe := NewParExec(2)
	pt := pe.Partition(r, u.Set("a"))
	defer func() {
		if recover() == nil {
			t.Fatal("projection dropping the partition key must panic")
		}
	}()
	pe.ProjectPar(pt, u.Set("b"))
}

func TestPartitionDoesNotMutateSource(t *testing.T) {
	u := schema.NewUniverse()
	ab := u.Set("a", "b")
	r := randomRelation(u, ab, 200, 8, rand.New(rand.NewSource(3)))
	r.Freeze() // partitioning a frozen snapshot relation must work
	before := r.Clone()
	pe := NewParExec(4)
	pt := pe.Partition(r, u.Set("b"))
	_ = pe.Repartition(pt, u.Set("a"))
	if !r.Equal(before) {
		t.Fatal("partitioning mutated its source relation")
	}
}

// TestResizeKeepsWorkers: shrinking a pooled ParExec must not discard
// warmed worker contexts — alternating-parallelism requests reuse them.
func TestResizeKeepsWorkers(t *testing.T) {
	pe := NewParExec(8)
	before := append([]*Exec(nil), pe.workers...)
	pe.Resize(2)
	if pe.P() != 2 {
		t.Fatalf("P() = %d after Resize(2)", pe.P())
	}
	pe.Resize(8)
	if pe.P() != 8 || len(pe.workers) != 8 {
		t.Fatalf("P() = %d, workers = %d after growing back", pe.P(), len(pe.workers))
	}
	for i := range before {
		if pe.workers[i] != before[i] {
			t.Fatalf("worker %d was reallocated across Resize calls", i)
		}
	}
	// Shrunk context still partitions into the active count and can
	// repartition a wider partitioning.
	u := schema.NewUniverse()
	ab := u.Set("a", "b")
	r := randomRelation(u, ab, 300, 8, rand.New(rand.NewSource(5)))
	wide := pe.Partition(r, u.Set("a"))
	pe.Resize(3)
	narrow := pe.Repartition(wide, u.Set("b"))
	if narrow.P() != 3 {
		t.Fatalf("repartition produced %d shards, want 3", narrow.P())
	}
	if !narrow.Merge().Equal(r) {
		t.Fatal("repartition across a resize lost tuples")
	}
}

// FuzzPartition fuzzes the partition/merge round-trip: arbitrary
// tuples plus an arbitrary key subset and shard count must reconstruct
// the exact relation, for both the serial and the parallel
// partitioner.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(0b101), uint8(4))
	f.Add([]byte{}, uint8(0), uint8(1))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(0b11), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, keyBits, pRaw uint8) {
		u := schema.NewUniverse()
		attrs := u.Set("a", "b", "c")
		inserted := New(u, attrs)
		for i := 0; i+3 <= len(data); i += 3 {
			inserted.Insert(Tuple{Value(data[i]), Value(data[i+1]), Value(data[i+2])})
		}
		key := schema.NewAttrSet()
		for i, a := range attrs.Attrs() {
			if keyBits&(1<<i) != 0 {
				key = key.Add(a)
			}
		}
		p := int(pRaw)%16 + 1
		// Once over the inserted (indexed) relation, once over the same
		// rows as an index-free operator output.
		for _, r := range []*Relation{inserted, indexFree(inserted)} {
			pt := Partition(r, key, p)
			if pt.Card() != r.Card() {
				t.Fatalf("partition holds %d tuples, source %d", pt.Card(), r.Card())
			}
			if m := pt.Merge(); !m.Equal(r) || !inserted.Equal(m) {
				t.Fatal("serial partition/merge changed the relation")
			}
			pe := NewParExec(p)
			ppt := pe.Partition(r, key)
			for i := range pt.Shards {
				if !pt.Shards[i].Equal(ppt.Shards[i]) {
					t.Fatalf("shard %d: parallel partitioner disagrees with serial", i)
				}
			}
		}
	})
}
