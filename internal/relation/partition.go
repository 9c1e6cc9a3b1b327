package relation

import (
	"fmt"

	"gyokit/internal/schema"
)

// Partitioning is a relation split into disjoint shards by the hash of
// a key attribute subset: every row lives in exactly one shard, and two
// rows agreeing on the key columns always share a shard.
//
// Nothing in gyokit evaluates over a Partitioning any more — every
// statement runs serially on one Exec, and concurrency is across
// requests. The type, Partition and shardOf are a leftover pinned by
// bench/probe.go, which times Partition for relation.partition_ms; the
// benchmark PR that drops that probe deletes all three.
type Partitioning struct {
	// Key is the attribute subset whose hash placed each row.
	Key schema.AttrSet
	// Shards holds the shard relations, all over the same attribute
	// set as the source relation.
	Shards []*Relation
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
