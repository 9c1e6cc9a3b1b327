package engine

import (
	"math/rand"
	"testing"

	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/storage"
)

// BenchmarkApplyLargeRelation measures the cost the chunked persistent
// arena exists to bound: a small mutation batch (128 tuples) applied
// copy-on-write to one large relation (1M rows). With the flat arena
// every batch deep-copied the whole relation — O(card); with chunk
// sharing the per-batch cost depends only on the batch, the chunk
// table, and the (bounded) index overlay. The "store" variant runs the
// full durable path (WAL append, NoSync); "mem" isolates the
// copy-on-write snapshot cost.
func BenchmarkApplyLargeRelation(b *testing.B) {
	const batch = 128
	for _, mode := range []string{"mem", "store"} {
		b.Run(mode, func(b *testing.B) {
			e := largeRelationEngine(b, mode)
			tuples := make([]relation.Tuple, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range tuples {
					v := relation.Value(largeSeedRows + i*batch + j)
					tuples[j] = relation.Tuple{v, v + 1}
				}
				if _, _, err := e.Apply(storage.Insert(0, 2, tuples)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

const largeSeedRows = 1 << 20

// largeRelationEngine returns an engine — over a NoSync store that never
// checkpoints in "store" mode, in memory in "mem" mode — serving one
// relation ab seeded with the rows (i, i+1), i < largeSeedRows, through
// the real write path as one batch (a single WAL record in store mode).
func largeRelationEngine(b *testing.B, mode string) *Engine {
	var e *Engine
	if mode == "store" {
		st, err := storage.Open(b.TempDir(), storage.Options{NoSync: true, CheckpointBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		e = New(Options{Store: st})
	} else {
		e = New(Options{})
		u := schema.NewUniverse()
		e.Swap(&relation.Database{D: schema.New(u)})
	}
	if _, _, err := e.Apply(storage.Create("a", "b")); err != nil {
		b.Fatal(err)
	}
	seed := make([]relation.Value, 0, 2*largeSeedRows)
	for i := 0; i < largeSeedRows; i++ {
		seed = append(seed, relation.Value(i), relation.Value(i+1))
	}
	if _, _, err := e.Apply(storage.Mutation{Kind: storage.KindInsert, Rel: 0, Width: 2, Values: seed}); err != nil {
		b.Fatal(err)
	}
	if got := e.Snapshot().Rels[0].Card(); got != largeSeedRows {
		b.Fatalf("seed card = %d, want %d", got, largeSeedRows)
	}
	return e
}

// BenchmarkDeleteLargeRelation is BenchmarkApplyLargeRelation for the
// other half of the write path: 128-tuple delete batches from the same
// 1M-row relation. A delete looks its victims up in the relation's own
// index and sets bits in per-chunk bitmaps, so a batch costs what an
// insert batch costs, wherever its victims live — "fifo" deletes the
// rows inserted 16 batches earlier (the end-to-end benchmark's writer),
// "uniform" rows drawn at random from the whole relation, touching about
// a hundred chunks a batch. Every iteration first inserts a batch
// (untimed), so cardinality holds at 1M rows however long the run; the
// relation repacks itself once dead rows pass a quarter of the live ones,
// every ~2000 batches here, and a run of -benchtime=20000x or more prices
// those compactions in. The CI gate's 3 iterations time the
// compaction-free path.
func BenchmarkDeleteLargeRelation(b *testing.B) {
	const batch, lag = 128, 16
	for _, mode := range []string{"mem", "store"} {
		for _, victims := range []string{"fifo", "uniform"} {
			b.Run(mode+"/"+victims, func(b *testing.B) {
				e := largeRelationEngine(b, mode)
				rng := rand.New(rand.NewSource(1))
				// Keys are handed out in order, so the fifo victims are a key
				// range; uniform draws from live, the key i of every tuple
				// (i, i+1) present.
				var live []relation.Value
				if victims == "uniform" {
					live = make([]relation.Value, largeSeedRows, largeSeedRows+(lag+1)*batch)
					for i := range live {
						live[i] = relation.Value(i)
					}
				}
				next := relation.Value(largeSeedRows)
				tuples := make([]relation.Tuple, batch)
				insert := func() {
					for j := range tuples {
						tuples[j] = relation.Tuple{next, next + 1}
						if victims == "uniform" {
							live = append(live, next)
						}
						next++
					}
					if _, _, err := e.Apply(storage.Insert(0, 2, tuples)); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < lag; i++ {
					insert()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					insert()
					for j := range tuples {
						k := next - (lag+1)*batch + relation.Value(j) // the oldest batch still pending
						if victims == "uniform" {
							at, last := rng.Intn(len(live)), len(live)-1
							k, live[at], live = live[at], live[last], live[:last]
						}
						tuples[j] = relation.Tuple{k, k + 1}
					}
					b.StartTimer()
					_, counts, err := e.Apply(storage.Delete(0, 2, tuples))
					if err != nil || counts[0] != batch {
						b.Fatalf("delete removed %v of %d tuples: %v", counts, batch, err)
					}
				}
			})
		}
	}
}
