package relation

import (
	"fmt"
	"sync"

	"gyokit/internal/schema"
)

// Partitioning is a relation split into P disjoint shards by the hash
// of a key attribute subset: every row lives in exactly one shard, and
// two rows agreeing on the key columns always share a shard. That
// placement invariant is what makes the parallel operators shard-local:
// a join or semijoin whose shared attributes contain the key never
// needs a row from another shard.
//
// A Partitioning is immutable once built (its shards are ordinary
// Relations and are never mutated by the parallel operators), so any
// number of workers may read it concurrently.
type Partitioning struct {
	// Key is the attribute subset whose hash placed each row.
	Key schema.AttrSet
	// Shards holds the P shard relations, all over the same attribute
	// set as the source relation.
	Shards []*Relation
}

// P returns the shard count.
func (pt *Partitioning) P() int { return len(pt.Shards) }

// Card returns the total number of tuples across all shards. Shards
// are disjoint, so this equals the merged cardinality.
func (pt *Partitioning) Card() int {
	n := 0
	for _, sh := range pt.Shards {
		n += sh.Card()
	}
	return n
}

// Attrs returns the attribute set the shards range over.
func (pt *Partitioning) Attrs() schema.AttrSet { return pt.Shards[0].Attrs() }

// Bytes returns the tuple-arena bytes held across all shards — the
// data volume that building this partitioning moved (every row lands
// in exactly one shard), which is what repartition-traffic accounting
// wants to know.
func (pt *Partitioning) Bytes() int64 {
	var n int64
	for _, sh := range pt.Shards {
		n += int64(sh.ArenaBytes())
	}
	return n
}

// shardOf maps a key hash to a shard index by multiply-shift on the
// high 32 bits. The open-addressing tables mask the low bits of row
// and key hashes, so shard choice and slot choice stay independent —
// a shard's rows are not clustered within its tables.
func shardOf(h uint64, p int) int {
	return int(((h >> 32) * uint64(p)) >> 32)
}

// Partition splits r into p shards by the hash of its key columns.
// key must be a subset of r's attributes; an empty key sends every row
// to one shard (the empty gather hashes to a constant). Rows keep
// their stored full-row hashes, so partitioning never re-hashes a row
// — only the key columns are hashed — and a split of distinct rows is
// distinct, so shards are appended to, never probed.
func Partition(r *Relation, key schema.AttrSet, p int) *Partitioning {
	if p < 1 {
		panic(fmt.Sprintf("relation: partition into %d shards", p))
	}
	if !key.SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation: partition key %s ⊄ %s",
			r.U.FormatSet(key), r.U.FormatSet(r.attrs)))
	}
	pt := &Partitioning{Key: key.Clone(), Shards: make([]*Relation, p)}
	for i := range pt.Shards {
		pt.Shards[i] = New(r.U, r.attrs)
		pt.Shards[i].reserved = (r.Card() + p - 1) / p // an even split; a fuller shard just grows
	}
	keyCols := key.Attrs()
	pos := make([]int, len(keyCols))
	for i, c := range keyCols {
		pos[i] = r.colPos(c)
	}
	kbuf := make([]Value, len(pos))
	for i := r.nextLive(0); i < r.n; i = r.nextLive(i + 1) {
		row := r.row(i)
		for k, p2 := range pos {
			kbuf[k] = row[p2]
		}
		s := shardOf(hashValues(kbuf), p)
		pt.Shards[s].appendRow(row, r.hash(i))
	}
	return pt
}

// Merge concatenates the shards back into one relation. Shards are
// disjoint by construction, so the result has exactly Card() tuples;
// rows are appended with their stored hashes, never re-hashed or probed.
func (pt *Partitioning) Merge() *Relation {
	first := pt.Shards[0]
	out := New(first.U, first.attrs)
	out.reserved = pt.Card()
	for _, sh := range pt.Shards {
		for i := sh.nextLive(0); i < sh.n; i = sh.nextLive(i + 1) {
			out.appendRow(sh.row(i), sh.hash(i))
		}
	}
	return out
}

// DefaultMinParallel is the total-input cardinality below which ParExec
// runs statements serially: under ~a few thousand rows the goroutine
// handoff and per-shard table setup cost more than the work saved.
const DefaultMinParallel = 4096

// ParExec is the partition-parallel execution context: one private
// Exec per worker plus the parallelism policy. Worker i always
// operates on shard i, so the scratch tables of a worker see one
// shard-sized working set at a time.
//
// Like Exec, a ParExec must not be used concurrently by two
// evaluations — it is the per-request context; the engine pools them.
type ParExec struct {
	workers []*Exec
	active  int // shard count; workers[:active] are in use
	// MinParallel is the smallest total input cardinality (left + right)
	// a statement needs before it is worth fanning out; smaller
	// statements run serially on worker 0. Zero or negative means
	// "always parallelize" (useful in tests); NewParExec sets
	// DefaultMinParallel.
	MinParallel int
}

// NewParExec returns a parallel execution context with p workers.
func NewParExec(p int) *ParExec {
	pe := &ParExec{MinParallel: DefaultMinParallel}
	pe.Resize(p)
	return pe
}

// P returns the worker (and therefore shard) count.
func (pe *ParExec) P() int { return pe.active }

// Resize sets the worker count to p (at least 1). Workers beyond p are
// retained, not discarded, so a pooled ParExec serving requests with
// alternating parallelism keeps every worker's warmed scratch tables.
func (pe *ParExec) Resize(p int) {
	if p < 1 {
		p = 1
	}
	pe.ensureWorkers(p)
	pe.active = p
}

// ensureWorkers grows the worker slice to at least n entries.
func (pe *ParExec) ensureWorkers(n int) {
	for len(pe.workers) < n {
		pe.workers = append(pe.workers, NewExec())
	}
}

// Serial returns worker 0's Exec — the context used for statements
// that stay serial.
func (pe *ParExec) Serial() *Exec { return pe.workers[0] }

// forEach runs f(i) for i in [0, n) across the workers: each index is
// handled by exactly one goroutine with a private Exec. With one index
// (or a single-worker context) it runs inline. n may exceed the active
// count (e.g. repartitioning a wider partitioning); extra workers are
// created on demand, from the coordinating goroutine, before fan-out.
func (pe *ParExec) forEach(n int, f func(i int)) {
	pe.ensureWorkers(n)
	if n <= 1 || pe.active == 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// span is a contiguous range of row positions of one relation — the
// unit of phase-one partitioning work.
type span struct {
	r      *Relation
	lo, hi int
}

// partitionSpans is the shared two-phase parallel partitioner. Phase
// one: each span is scanned by one worker, which hashes key columns
// and records the target shard of every row. Phase two: each target
// shard is built by one worker, gathering its rows from every span.
// Both phases are embarrassingly parallel; no locks, no channels —
// workers write disjoint slices.
func (pe *ParExec) partitionSpans(u *schema.Universe, attrs, key schema.AttrSet, spans []span) *Partitioning {
	p := pe.active
	pt := &Partitioning{Key: key.Clone(), Shards: make([]*Relation, p)}
	keyCols := key.Attrs()

	// Phase 1: buckets[w][s] lists the row indexes of span w bound for
	// shard s.
	buckets := make([][][]int32, len(spans))
	pe.forEach(len(spans), func(w int) {
		sp := spans[w]
		b := make([][]int32, p)
		est := (sp.hi - sp.lo) / p
		for s := range b {
			b[s] = make([]int32, 0, est+8)
		}
		pos := make([]int, len(keyCols))
		for i, c := range keyCols {
			pos[i] = sp.r.colPos(c)
		}
		kbuf := make([]Value, len(pos))
		for i := sp.r.nextLive(sp.lo); i < sp.hi; i = sp.r.nextLive(i + 1) {
			row := sp.r.row(i)
			for k, p2 := range pos {
				kbuf[k] = row[p2]
			}
			s := shardOf(hashValues(kbuf), p)
			b[s] = append(b[s], int32(i))
		}
		buckets[w] = b
	})

	// Phase 2: shard s gathers its buckets from every span. Rows carry
	// their stored hashes.
	pe.forEach(p, func(s int) {
		n := 0
		for w := range spans {
			n += len(buckets[w][s])
		}
		sh := New(u, attrs)
		sh.reserved = n
		for w, sp := range spans {
			for _, i := range buckets[w][s] {
				sh.appendRow(sp.r.row(int(i)), sp.r.hash(int(i)))
			}
		}
		pt.Shards[s] = sh
	})
	return pt
}

// Partition splits r into P() shards by the hash of its key columns,
// in parallel: the row space is cut into P contiguous spans, hashed
// concurrently, then each shard is gathered concurrently.
func (pe *ParExec) Partition(r *Relation, key schema.AttrSet) *Partitioning {
	p := pe.active
	if p == 1 || r.n < p {
		return Partition(r, key, p)
	}
	if !key.SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation: partition key %s ⊄ %s",
			r.U.FormatSet(key), r.U.FormatSet(r.attrs)))
	}
	spans := make([]span, 0, p)
	for w := 0; w < p; w++ {
		lo, hi := r.n*w/p, r.n*(w+1)/p
		spans = append(spans, span{r: r, lo: lo, hi: hi})
	}
	return pe.partitionSpans(r.U, r.attrs, key, spans)
}

// Repartition rebuilds pt on a new key without materializing the
// merged relation: each existing shard is one phase-one span.
func (pe *ParExec) Repartition(pt *Partitioning, key schema.AttrSet) *Partitioning {
	first := pt.Shards[0]
	spans := make([]span, 0, len(pt.Shards))
	for _, sh := range pt.Shards {
		spans = append(spans, span{r: sh, lo: 0, hi: sh.n})
	}
	return pe.partitionSpans(first.U, first.attrs, key, spans)
}

// checkAligned panics unless r and s are partitionings with the same
// shard count and key — the precondition of every shard-local
// operator.
func checkAligned(op string, r, s *Partitioning) {
	if len(r.Shards) != len(s.Shards) {
		panic(fmt.Sprintf("relation: %s over %d vs %d shards", op, len(r.Shards), len(s.Shards)))
	}
	if !r.Key.Equal(s.Key) {
		panic(fmt.Sprintf("relation: %s over mismatched partition keys", op))
	}
}

// JoinPar computes the natural join of two partitionings shard-locally
// and in parallel. Both sides must be partitioned on the same key, and
// that key must be a subset of the shared attributes: then matching
// rows agree on the key, hence share a shard, and the per-shard joins
// cover every result tuple exactly once (results from different shards
// differ on the key columns, so the output is itself partitioned by
// the same key).
func (pe *ParExec) JoinPar(r, s *Partitioning) *Partitioning {
	checkAligned("join", r, s)
	if !r.Key.SubsetOf(r.Attrs().Intersect(s.Attrs())) {
		panic("relation: parallel join key not within shared attributes")
	}
	out := &Partitioning{Key: r.Key.Clone(), Shards: make([]*Relation, len(r.Shards))}
	pe.forEach(len(r.Shards), func(i int) {
		out.Shards[i] = pe.workers[i].Join(r.Shards[i], s.Shards[i])
	})
	return out
}

// SemijoinPar computes r ⋉ s shard-locally and in parallel, under the
// same alignment precondition as JoinPar. The output keeps r's row
// placement, so it remains partitioned by the same key.
func (pe *ParExec) SemijoinPar(r, s *Partitioning) *Partitioning {
	checkAligned("semijoin", r, s)
	if !r.Key.SubsetOf(r.Attrs().Intersect(s.Attrs())) {
		panic("relation: parallel semijoin key not within shared attributes")
	}
	out := &Partitioning{Key: r.Key.Clone(), Shards: make([]*Relation, len(r.Shards))}
	pe.forEach(len(r.Shards), func(i int) {
		out.Shards[i] = pe.workers[i].Semijoin(r.Shards[i], s.Shards[i])
	})
	return out
}

// ProjectPar computes π_x shard-locally and in parallel. The partition
// key must survive the projection (Key ⊆ x): then two rows that
// project equal agree on the key, share a shard, and the shard-local
// duplicate elimination is globally correct.
func (pe *ParExec) ProjectPar(r *Partitioning, x schema.AttrSet) *Partitioning {
	if !r.Key.SubsetOf(x) {
		panic("relation: parallel projection drops partition key")
	}
	out := &Partitioning{Key: r.Key.Clone(), Shards: make([]*Relation, len(r.Shards))}
	pe.forEach(len(r.Shards), func(i int) {
		out.Shards[i] = pe.workers[i].Project(r.Shards[i], x)
	})
	return out
}
