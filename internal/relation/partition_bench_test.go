package relation

// Partition-parallel counterparts of BenchmarkJoinColumnar and
// BenchmarkSemijoinColumnar: same generated inputs, hash-partitioned
// on the shared attribute, operators fanned across P workers. The
// steady-state benchmarks reuse the partitionings across iterations —
// the zero-repartition case a full reducer hits when consecutive
// semijoins share a key; the cold benchmarks pay partitioning every
// iteration. Run with
//
//	go test ./internal/relation -bench 'Parallel|Partition' -cpu 4

import (
	"fmt"
	"testing"

	"gyokit/internal/schema"
)

func parallelPs() []int { return []int{2, 4, 8} }

func BenchmarkPartition(b *testing.B) {
	u := schema.NewUniverse()
	r, _ := benchJoinPair(u, 10000)
	key := u.Set("b")
	for _, p := range parallelPs() {
		pe := NewParExec(p)
		b.Run(fmt.Sprintf("p=%d/n=10000", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pe.Partition(r, key)
			}
		})
	}
}

func BenchmarkJoinParallel(b *testing.B) {
	u := schema.NewUniverse()
	r, s := benchJoinPair(u, 10000)
	key := r.Attrs().Intersect(s.Attrs())
	for _, p := range parallelPs() {
		pe := NewParExec(p)
		pr := pe.Partition(r, key)
		ps := pe.Partition(s, key)
		b.Run(fmt.Sprintf("p=%d/n=10000", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pe.JoinPar(pr, ps)
			}
		})
	}
}

func BenchmarkJoinParallelCold(b *testing.B) {
	u := schema.NewUniverse()
	r, s := benchJoinPair(u, 10000)
	key := r.Attrs().Intersect(s.Attrs())
	for _, p := range parallelPs() {
		pe := NewParExec(p)
		b.Run(fmt.Sprintf("p=%d/n=10000", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pe.JoinPar(pe.Partition(r, key), pe.Partition(s, key))
			}
		})
	}
}

func BenchmarkSemijoinParallel(b *testing.B) {
	u := schema.NewUniverse()
	r, s := benchJoinPair(u, 10000)
	key := r.Attrs().Intersect(s.Attrs())
	for _, p := range parallelPs() {
		pe := NewParExec(p)
		pr := pe.Partition(r, key)
		ps := pe.Partition(s, key)
		b.Run(fmt.Sprintf("p=%d/n=10000", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pe.SemijoinPar(pr, ps)
			}
		})
	}
}

func BenchmarkSemijoinParallelCold(b *testing.B) {
	u := schema.NewUniverse()
	r, s := benchJoinPair(u, 10000)
	key := r.Attrs().Intersect(s.Attrs())
	for _, p := range parallelPs() {
		pe := NewParExec(p)
		b.Run(fmt.Sprintf("p=%d/n=10000", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pe.SemijoinPar(pe.Partition(r, key), pe.Partition(s, key))
			}
		})
	}
}
