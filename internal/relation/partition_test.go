package relation

import (
	"math/rand"
	"testing"

	"gyokit/internal/schema"
)

// TestPartitionPlacement is the property test of Partition's placement
// invariant, over a seeded loop of random relations, key subsets and
// shard counts: the shards are pairwise disjoint, rows agreeing on the
// key share a shard, the union of the shards is exactly the input, dead
// rows are skipped, and the (frozen) source is left alone. Each relation
// is split once as inserted — indexed, carrying dead rows — and once as
// an index-free operator output.
func TestPartitionPlacement(t *testing.T) {
	u := schema.NewUniverse()
	abc := u.Set("a", "b", "c")
	cols := abc.Attrs()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		inserted, _ := RandomUniversal(u, abc, rng.Intn(400), 1+rng.Intn(16), rng)
		// Delete under a fifth of the rows: below the compaction bound,
		// so the victims stay in place as dead rows.
		tuples := inserted.Tuples()
		inserted, _ = inserted.Without(tuples[:len(tuples)/6])
		if len(tuples) >= 6 && inserted.dead == 0 {
			t.Fatalf("trial %d: fixture carries no dead rows", trial)
		}
		key := schema.NewAttrSet()
		var keyPos []int
		for i, a := range cols {
			if rng.Intn(2) == 0 {
				key = key.Add(a)
				keyPos = append(keyPos, i)
			}
		}
		p := 1 + rng.Intn(16)
		for _, r := range []*Relation{inserted, indexFree(inserted)} {
			r.Freeze()
			before := r.Clone()
			pt := Partition(r, key, p)
			if len(pt.Shards) != p || !pt.Key.Equal(key) {
				t.Fatalf("trial %d: %d shards on key %s, want %d on %s",
					trial, len(pt.Shards), u.FormatSet(pt.Key), p, u.FormatSet(key))
			}
			union := New(u, abc)
			total := 0
			home := map[string]int{}
			for si, sh := range pt.Shards {
				if sh.dead != 0 {
					t.Fatalf("trial %d: shard %d carries %d dead rows", trial, si, sh.dead)
				}
				total += sh.Card()
				for _, tup := range sh.Tuples() {
					union.Insert(tup)
					kv := make(Tuple, len(keyPos))
					for k, pos := range keyPos {
						kv[k] = tup[pos]
					}
					if prev, ok := home[refKey(kv)]; ok && prev != si {
						t.Fatalf("trial %d: key %v split across shards %d and %d", trial, kv, prev, si)
					}
					home[refKey(kv)] = si
				}
			}
			if total != union.Card() {
				t.Fatalf("trial %d: shards hold %d rows but %d distinct tuples — not disjoint", trial, total, union.Card())
			}
			if !union.Equal(r) || !r.Equal(union) {
				t.Fatalf("trial %d: union of %d shards has %d tuples, source %d", trial, p, union.Card(), r.Card())
			}
			if !r.Equal(before) || !before.Equal(r) {
				t.Fatalf("trial %d: partitioning changed its source", trial)
			}
		}
	}
}
