package exp

import (
	"fmt"
	"io"
	"math/rand"

	"gyokit/internal/gen"
	"gyokit/internal/program"
	"gyokit/internal/qualgraph"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/tableau"
)

func init() {
	register(Experiment{ID: "perf4", Title: "Query evaluation: naive join vs CC-pruned vs Yannakakis", Run: runPerf4})
	register(Experiment{ID: "perf8", Title: "Cyclic strategy (§4): naive join vs treefy-then-Yannakakis", Run: runPerf8})
	register(Experiment{ID: "perf9", Title: "§6 cost accounting: per-statement tuples in/out and wall time", Run: runPerf9})
}

// runPerf4: end-to-end evaluation of (D, X) over UR databases on a
// chain schema: the naive full join, the CC-pruned join (Corollary
// 4.1), and the Yannakakis semijoin program (§6). All three must agree
// tuple-for-tuple; the interesting output is intermediate-result size.
func runPerf4(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-8s %14s %14s %14s\n", "tuples", "rels", "naive(max)", "cc(max)", "yann(max)")
	for _, tuples := range []int{50, 150, 400} {
		n := 5
		d := gen.Chain(n)
		attrs := d.Attrs().Attrs()
		// Target the front of the chain: GR(D, X) prunes the dangling
		// tail (relations past attrs[2]), so CC pruning is visible.
		x := schema.NewAttrSet(attrs[0], attrs[2])
		rng := rand.New(rand.NewSource(int64(tuples)))
		i, _ := relation.RandomUniversal(d.U, d.Attrs(), tuples, 8, rng)
		db := relation.URDatabase(d, i)

		naive, err := program.NaivePlan(d, x)
		if err != nil {
			return err
		}
		cc := tableau.CC(d, x)
		ccPlan, err := program.CCPlan(d, x, cc)
		if err != nil {
			return err
		}
		tr, _ := qualgraph.QualTree(d)
		yann, err := program.YannakakisRooted(d, x, tr, 0)
		if err != nil {
			return err
		}

		r1, s1, err := naive.Eval(db)
		if err != nil {
			return err
		}
		r2, s2, err := ccPlan.Eval(db)
		if err != nil {
			return err
		}
		r3, s3, err := yann.Eval(db)
		if err != nil {
			return err
		}
		if !r1.Equal(r2) || !r1.Equal(r3) {
			return fmt.Errorf("plans disagree at %d tuples", tuples)
		}
		fmt.Fprintf(w, "%-10d %-8d %14d %14d %14d\n",
			tuples, n, s1.MaxIntermediate, s2.MaxIntermediate, s3.MaxIntermediate)
	}
	fmt.Fprintln(w, "(all three plans return identical answers; Yannakakis bounds intermediates)")
	return nil
}

// runPerf9: the §6 cost theorems as observable numbers. The Yannakakis
// program over a chain schema is run at growing scale and its
// per-statement breakdown printed: the semijoin (reducer) statements
// must stay bounded by their inputs, while tuples produced grow only
// linearly — the Theorem 6.1/6.4 behavior the columnar engine's
// Stats.Detail makes directly visible.
func runPerf9(w io.Writer) error {
	d := gen.Chain(5)
	attrs := d.Attrs().Attrs()
	x := schema.NewAttrSet(attrs[0], attrs[len(attrs)-1])
	tr, ok := qualgraph.QualTree(d)
	if !ok {
		return fmt.Errorf("chain schema rejected as cyclic")
	}
	plan, err := program.YannakakisRooted(d, x, tr, 0)
	if err != nil {
		return err
	}
	for _, tuples := range []int{200, 2000, 20000} {
		i, _ := relation.RandomUniversal(d.U, d.Attrs(), tuples, 64, rand.New(rand.NewSource(int64(tuples))))
		db := relation.URDatabase(d, i)
		_, st, err := plan.Eval(db)
		if err != nil {
			return err
		}
		// Every semijoin must shrink (or keep) its left input, and the
		// totals must be internally consistent.
		sum := 0
		for _, dt := range st.Detail {
			if dt.Kind == program.Semijoin && dt.Out > dt.InLeft {
				return fmt.Errorf("semijoin grew its input: %+v", dt)
			}
			sum += dt.Out
		}
		if sum != st.TuplesProduced {
			return fmt.Errorf("Detail sums to %d, TuplesProduced %d", sum, st.TuplesProduced)
		}
		fmt.Fprintf(w, "--- Yannakakis on chain(5), %d universal tuples ---\n", tuples)
		fmt.Fprint(w, st.Table())
	}
	fmt.Fprintln(w, "(semijoin statements never exceed their inputs: the §6 full-reducer bound)")
	return nil
}

// runPerf8: the §4 cyclic strategy end to end — on Arings, the plan
// that materializes ∪GR(D) (Corollary 3.2) and then runs the
// full-reducer + Yannakakis pipeline, against the naive multiway join.
// Both must agree; the table reports intermediate sizes.
func runPerf8(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-8s %14s %14s\n", "schema", "tuples", "naive(max)", "cyclic(max)")
	// The naive multiway join explodes combinatorially on this family
	// (it is the baseline being indicted), so the sweep stays small.
	for _, n := range []int{3} {
		for _, tuples := range []int{30, 60} {
			// Ring core with 2-hop tails off every ring attribute: the
			// cyclic core is a small fraction of the schema, so the §4
			// strategy (join the core once, semijoin the rest) wins.
			d := gen.RingWithTails(n, 2)
			// Target: one ring attribute plus a tail-end attribute.
			ringEdge := d.Rels[0].Attrs()
			lastTail := d.Rels[len(d.Rels)-1].Attrs()
			x := schema.NewAttrSet(ringEdge[0], lastTail[len(lastTail)-1])
			i, _ := relation.RandomUniversal(d.U, d.Attrs(), tuples, 6, rand.New(rand.NewSource(int64(n*tuples))))
			db := relation.URDatabase(d, i)

			naive, err := program.NaivePlan(d, x)
			if err != nil {
				return err
			}
			cyc, err := program.CyclicPlan(d, x)
			if err != nil {
				return err
			}
			r1, s1, err := naive.Eval(db)
			if err != nil {
				return err
			}
			r2, s2, err := cyc.Eval(db)
			if err != nil {
				return err
			}
			if !r1.Equal(r2) {
				return fmt.Errorf("cyclic strategy disagrees with naive join on ring-with-tails(%d)", n)
			}
			fmt.Fprintf(w, "ring%d+t2   %-8d %14d %14d\n", n, tuples, s1.MaxIntermediate, s2.MaxIntermediate)
		}
	}
	fmt.Fprintln(w, "(identical answers; the cyclic strategy pays the core join once, then semijoins)")
	return nil
}
