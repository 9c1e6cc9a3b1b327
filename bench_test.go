// Micro-benchmarks of the paper's algorithms and the engine's hot
// paths, for measuring while you work:
//
//	go test -run '^$' -bench=. -benchmem
//
// The performance record and the only gate is `go run ./bench`
// (BENCHMARK.json); a number its per-layer metrics already report has no
// benchmark here.
package gyokit_test

import (
	"fmt"
	"testing"

	"gyokit"
	"gyokit/internal/gamma"
	"gyokit/internal/gen"
	"gyokit/internal/gyo"
	"gyokit/internal/lossless"
	"gyokit/internal/program"
	"gyokit/internal/qualgraph"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/tableau"
	"gyokit/internal/treefy"
	"gyokit/internal/treeproj"
)

// --- GYO reduction scaling -------------------------------

func BenchmarkGYOReduceRing(b *testing.B) {
	for _, n := range []int{8, 32, 128, 256} {
		d := gen.Ring(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if gyo.ReduceFull(d).Empty() {
					b.Fatal("ring classified as tree")
				}
			}
		})
	}
}

func BenchmarkGYOReduceClique(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		d := gen.Clique(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if gyo.ReduceFull(d).Empty() {
					b.Fatal("clique classified as tree")
				}
			}
		})
	}
}

func BenchmarkGYOReduceTree(b *testing.B) {
	for _, n := range []int{8, 32, 128, 256} {
		d := gen.TreeSchema(gen.RNG(int64(n)), n, 2, 2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !gyo.ReduceFull(d).Empty() {
					b.Fatal("tree classified as cyclic")
				}
			}
		})
	}
}

// --- CC fast path vs tableau minimization ----------------

func BenchmarkCCTreeFastPath(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		d := gen.TreeSchema(gen.RNG(int64(n)), n, 2, 2)
		x := gen.RandomAttrSubset(gen.RNG(int64(n)+99), d.Attrs(), 0.4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tableau.CC(d, x)
			}
		})
	}
}

func BenchmarkCCGenericTableau(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		d := gen.TreeSchema(gen.RNG(int64(n)), n, 2, 2)
		x := gen.RandomAttrSubset(gen.RNG(int64(n)+99), d.Attrs(), 0.4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tableau.CCGeneric(d, x)
			}
		})
	}
}

func BenchmarkCCCyclicSection6(b *testing.B) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "abg, bcg, acf, ad, de, ea")
	x := u.Set("a", "b", "c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tableau.CCGeneric(d, x)
	}
}

// --- lossless-join test routes ---------------------------

func BenchmarkLosslessViaCC(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		d := gen.TreeSchema(gen.RNG(int64(n)*3), n, 2, 2)
		dp, _ := gen.SubSchema(gen.RNG(int64(n)*5), d)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lossless.Implies(d, dp)
			}
		})
	}
}

func BenchmarkLosslessViaSubtree(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		d := gen.TreeSchema(gen.RNG(int64(n)*3), n, 2, 2)
		dp, _ := gen.SubSchema(gen.RNG(int64(n)*5), d)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lossless.ImpliesSubtree(d, dp)
			}
		})
	}
}

func BenchmarkLosslessViaTableau(b *testing.B) {
	for _, n := range []int{4, 8} {
		d := gen.TreeSchema(gen.RNG(int64(n)*3), n, 2, 2)
		dp, _ := gen.SubSchema(gen.RNG(int64(n)*5), d)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lossless.ImpliesTableau(d, dp)
			}
		})
	}
}

// --- query evaluation plans -------------------------------

func evalBenchSetup(tuples int) (*schema.Schema, schema.AttrSet, *relation.Database) {
	d := gen.Chain(5)
	attrs := d.Attrs().Attrs()
	x := schema.NewAttrSet(attrs[0], attrs[len(attrs)-1])
	i, _ := relation.RandomUniversal(d.U, d.Attrs(), tuples, 8, gen.RNG(int64(tuples)))
	return d, x, relation.URDatabase(d, i)
}

func BenchmarkEvalNaiveJoin(b *testing.B) {
	for _, tuples := range []int{50, 200} {
		d, x, db := evalBenchSetup(tuples)
		plan, err := program.NaivePlan(d, x)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("tuples=%d", tuples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := plan.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEvalCCPruned(b *testing.B) {
	for _, tuples := range []int{50, 200} {
		d, x, db := evalBenchSetup(tuples)
		cc := tableau.CC(d, x)
		plan, err := program.CCPlan(d, x, cc)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("tuples=%d", tuples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := plan.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEvalYannakakis(b *testing.B) {
	for _, tuples := range []int{50, 200} {
		d, x, db := evalBenchSetup(tuples)
		tr, ok := qualgraph.QualTree(d)
		if !ok {
			b.Fatal("chain rejected")
		}
		plan, err := program.YannakakisRooted(d, x, tr, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("tuples=%d", tuples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := plan.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalYannakakisLarge runs the full semijoin program at the
// scale the columnar engine is built for (10k universal tuples): full
// reducer plus bottom-up join, one Exec, no per-statement allocation.
func BenchmarkEvalYannakakisLarge(b *testing.B) {
	d := gen.Chain(5)
	attrs := d.Attrs().Attrs()
	x := schema.NewAttrSet(attrs[0], attrs[len(attrs)-1])
	i, _ := relation.RandomUniversal(d.U, d.Attrs(), 10000, 64, gen.RNG(10000))
	db := relation.URDatabase(d, i)
	tr, ok := qualgraph.QualTree(d)
	if !ok {
		b.Fatal("chain rejected")
	}
	plan, err := program.YannakakisRooted(d, x, tr, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, _, err := plan.Eval(db); err != nil {
			b.Fatal(err)
		}
	}
}

// --- semijoin program execution --------------------------------------

// semijoinProgramSetup builds a 5-chain semijoin program (Yannakakis:
// full reducer + bottom-up join) over a 10k-tuple universal relation.
func semijoinProgramSetup(b *testing.B) (*program.Program, *relation.Database) {
	b.Helper()
	d := gen.Chain(5)
	attrs := d.Attrs().Attrs()
	x := schema.NewAttrSet(attrs[0], attrs[len(attrs)-1])
	i, _ := relation.RandomUniversal(d.U, d.Attrs(), 10000, 64, gen.RNG(10000))
	db := relation.URDatabase(d, i)
	tr, ok := qualgraph.QualTree(d)
	if !ok {
		b.Fatal("chain rejected")
	}
	plan, err := program.YannakakisRooted(d, x, tr, 0)
	if err != nil {
		b.Fatal(err)
	}
	return plan, db
}

// BenchmarkSemijoinProgramSerial runs that program through one reused
// execution context, as a pooled request does.
func BenchmarkSemijoinProgramSerial(b *testing.B) {
	plan, db := semijoinProgramSetup(b)
	ex := relation.NewExec()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, _, err := plan.Run(db, ex, program.Limits{}, relation.All); err != nil {
			b.Fatal(err)
		}
	}
}

// --- join-tree construction -------------------------------

func BenchmarkJoinTreeMST(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		d := gen.TreeSchema(gen.RNG(int64(n)*7), n, 2, 2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := qualgraph.QualTreeMST(d); !ok {
					b.Fatal("rejected")
				}
			}
		})
	}
}

func BenchmarkJoinTreeGYO(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		d := gen.TreeSchema(gen.RNG(int64(n)*7), n, 2, 2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := qualgraph.QualTreeGYO(d); !ok {
					b.Fatal("rejected")
				}
			}
		})
	}
}

// --- γ-acyclicity tests -----------------------------------

func BenchmarkGammaPolynomial(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		d := gen.TreeSchema(gen.RNG(int64(n)*11), n, 2, 2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gamma.IsGammaAcyclic(d)
			}
		})
	}
}

func BenchmarkGammaSubtreeClosure(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		d := gen.TreeSchema(gen.RNG(int64(n)*11), n, 2, 2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gamma.IsGammaAcyclicSubtree(d)
			}
		})
	}
}

func BenchmarkGammaCycleSearch(b *testing.B) {
	for _, n := range []int{4, 8} {
		d := gen.TreeSchema(gen.RNG(int64(n)*11), n, 2, 2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gamma.IsGammaAcyclicCycleSearch(d)
			}
		})
	}
}

// --- fixed treefication / bin packing ----------------------

func BenchmarkTreefyExactDP(b *testing.B) {
	for _, n := range []int{6, 10, 14} {
		bp := gen.BinPacking(gen.RNG(int64(n)), n, 7, n/2, 12)
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				treefy.SolveBinPacking(bp)
			}
		})
	}
}

func BenchmarkTreefyFFD(b *testing.B) {
	for _, n := range []int{6, 10, 14} {
		bp := gen.BinPacking(gen.RNG(int64(n)), n, 7, n/2, 12)
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				treefy.FirstFitDecreasing(bp.Sizes, bp.B)
			}
		})
	}
}

func BenchmarkTreefyReduction(b *testing.B) {
	bp := gen.BinPackingInstance{Sizes: []int{5, 4, 3, 3}, K: 2, B: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := treefy.FromBinPacking(bp)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := treefy.Solve(inst); !ok {
			b.Fatal("should be satisfiable")
		}
	}
}

// --- tree projection search (§3.2 example) -------------------------

func BenchmarkTreeProjectionSection32(b *testing.B) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd, de, ef, fg, gh, ha")
	dp := schema.MustParse(u, "abef, abch, cdgh, defg, ef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := treeproj.Exists(dp, d); !res.Found {
			b.Fatal("witness not found")
		}
	}
}

// --- end-to-end facade paths ---------------------------------------

func BenchmarkSolveByJoins(b *testing.B) {
	u := gyokit.NewUniverse()
	d := gyokit.MustParse(u, "abg, bcg, acf, ad, de, ea")
	x := u.Set("a", "b", "c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gyokit.SolveByJoins(d, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanQuery times one plan miss below the cache: GYO
// reduction, decomposition and emission (gyokit.Plan), on the chains
// plan_churn sends to /v1/plan, heads {first, middle attribute}, and on
// rings, heads {a₀, a_{n/2}}.
func BenchmarkPlanQuery(b *testing.B) {
	type query struct {
		name string
		d    *schema.Schema
		x    schema.AttrSet
	}
	var qs []query
	for _, n := range []int{4, 8, 19} {
		d := gen.Chain(n)
		attrs := d.Attrs().Attrs()
		qs = append(qs, query{fmt.Sprintf("chain%d", n), d, schema.NewAttrSet(attrs[0], attrs[len(attrs)/2])})
	}
	for _, n := range []int{3, 6} {
		d := gen.Ring(n)
		attrs := d.Attrs().Attrs()
		qs = append(qs, query{fmt.Sprintf("ring%d", n), d, schema.NewAttrSet(attrs[0], attrs[n/2])})
	}
	for _, q := range qs {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gyokit.Plan(q.d, q.x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- serving engine: plan cache, pooling, concurrency ---------------

// engineBenchQuery is the fixed (schema, X) pair the engine benchmarks
// share: the paper's §6 cyclic running example, whose planning cost
// (GYO reduction + the §4 treefy-then-Yannakakis build) is
// exactly what the plan cache is supposed to amortize.
func engineBenchQuery() (*schema.Schema, schema.AttrSet, *relation.Database) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "abg, bcg, acf, ad, de, ea")
	x := u.Set("a", "b", "c")
	i, _ := relation.RandomUniversal(u, d.Attrs(), 200, 6, gen.RNG(3))
	return d, x, relation.URDatabase(d, i)
}

// BenchmarkEngineParallel measures end-to-end Solve throughput with
// GOMAXPROCS goroutines sharing one engine: cached plan, pooled Exec
// contexts, one frozen snapshot. BenchmarkSolveInstrumented is its
// single-goroutine baseline.
func BenchmarkEngineParallel(b *testing.B) {
	d, x, db := engineBenchQuery()
	e := gyokit.NewEngine(gyokit.EngineOptions{})
	e.Swap(db)
	if _, _, err := e.Solve(d, x); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := e.Solve(d, x); err != nil {
				// FailNow must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSolveInstrumented is the cached-plan serial solve path with
// every instrument live (latency histogram observe, plan-cache
// counters, snapshot gauges registered): the whole metrics layer's cost
// on the hot path is in this number.
func BenchmarkSolveInstrumented(b *testing.B) {
	d, x, db := engineBenchQuery()
	e := gyokit.NewEngine(gyokit.EngineOptions{})
	e.Swap(db)
	if _, _, err := e.Solve(d, x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Solve(d, x); err != nil {
			b.Fatal(err)
		}
	}
}

// --- the §4 cyclic strategy --------------------------------

func BenchmarkEvalCyclicStrategy(b *testing.B) {
	d := gen.RingWithTails(3, 2)
	ringEdge := d.Rels[0].Attrs()
	lastTail := d.Rels[len(d.Rels)-1].Attrs()
	x := schema.NewAttrSet(ringEdge[0], lastTail[len(lastTail)-1])
	i, _ := relation.RandomUniversal(d.U, d.Attrs(), 30, 6, gen.RNG(5))
	db := relation.URDatabase(d, i)
	plan, err := program.CyclicPlan(d, x)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, _, err := plan.Eval(db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalNaiveOnCyclic(b *testing.B) {
	d := gen.RingWithTails(3, 2)
	ringEdge := d.Rels[0].Attrs()
	lastTail := d.Rels[len(d.Rels)-1].Attrs()
	x := schema.NewAttrSet(ringEdge[0], lastTail[len(lastTail)-1])
	i, _ := relation.RandomUniversal(d.U, d.Attrs(), 30, 6, gen.RNG(5))
	db := relation.URDatabase(d, i)
	plan, err := program.NaivePlan(d, x)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, _, err := plan.Eval(db); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation: join order ------------------------------------------

// The BenchmarkJoinOrderShuffledChain pair quantifies that plan shape
// (not just relation choice) matters: on a deliberately shuffled chain
// the greedy order avoids the cross products index order hits.
func BenchmarkJoinOrderShuffledChainIndex(b *testing.B) {
	d, x, db, inputs := shuffledChain()
	plan, err := program.JoinProject(d, x, inputs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, _, err := plan.Eval(db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinOrderShuffledChainGreedy(b *testing.B) {
	d, x, db, inputs := shuffledChain()
	idx := make([]int, len(inputs))
	for i := range idx {
		idx[i] = inputs[i].Rel
	}
	ordered := make([]program.InputRef, 0, len(inputs))
	for _, rel := range program.GreedyJoinOrder(d, idx) {
		ordered = append(ordered, program.InputRef{Rel: rel})
	}
	plan, err := program.JoinProject(d, x, ordered)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, _, err := plan.Eval(db); err != nil {
			b.Fatal(err)
		}
	}
}

// shuffledChain builds a 6-chain whose relation order interleaves the
// two ends, so index-order joining produces early cross products.
func shuffledChain() (*schema.Schema, schema.AttrSet, *relation.Database, []program.InputRef) {
	base := gen.Chain(6)
	perm := []int{0, 3, 1, 4, 2, 5}
	d := base.Restrict(perm)
	attrs := d.Attrs().Attrs()
	x := schema.NewAttrSet(attrs[0], attrs[len(attrs)-1])
	i, _ := relation.RandomUniversal(d.U, d.Attrs(), 60, 6, gen.RNG(9))
	db := relation.URDatabase(d, i)
	inputs := make([]program.InputRef, len(d.Rels))
	for k := range inputs {
		inputs[k] = program.InputRef{Rel: k}
	}
	return d, x, db, inputs
}
