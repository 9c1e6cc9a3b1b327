// Quickstart: parse a schema in the paper's notation, classify it,
// inspect its GYO reduction trace, and print a join tree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"gyokit"
	"gyokit/internal/gyo"
	"gyokit/internal/program"
)

func main() {
	u := gyokit.NewUniverse()

	// Figure 1's third schema: a tree schema with a non-obvious qual tree.
	d := gyokit.MustParse(u, "abc, cde, ace, afe")
	fmt.Println("schema:", d)

	cls, err := gyokit.Classify(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tree schema:", cls.Tree)
	fmt.Println("γ-acyclic:  ", cls.GammaAcyclic)

	// Watch the GYO reduction empty the schema (Corollary 3.1).
	res := gyokit.GYOReduce(d, gyokit.AttrSet{})
	fmt.Println("\nGYO reduction trace:")
	for i, op := range res.Trace {
		switch op.Kind {
		case gyo.AttrDelete:
			fmt.Printf("  %d. delete isolated attribute %s from R%d\n", i+1, u.Name(op.Attr), op.Rel)
		case gyo.SubsetEliminate:
			fmt.Printf("  %d. eliminate R%d, now contained in R%d\n", i+1, op.Rel, op.Into)
		}
	}
	fmt.Println("GR(D) empty:", res.Empty())

	// A qual tree realizes the tree structure (Figure 1 exhibits
	// abc—ace—afe with cde attached at ace).
	fmt.Println("\nqual tree:")
	for _, e := range cls.QualTree.Edges() {
		fmt.Printf("  %s — %s\n", u.FormatSet(d.Rels[e[0]]), u.FormatSet(d.Rels[e[1]]))
	}

	// Contrast with a cyclic schema: GYO gets stuck and Corollary 3.2
	// names the cheapest fix.
	ring := gyokit.MustParse(u, "ab, bc, cd, da")
	cls2, err := gyokit.Classify(ring)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s: tree=%v; add %s to treefy (Corollary 3.2)\n",
		ring, cls2.Tree, u.FormatSet(cls2.TreefyingRelation))

	// Evaluate a query and trace it: SpanTree turns a run's stats into
	// one span per executed statement, nested by data flow. Over HTTP
	// the same tree comes back from POST /solve with "trace": true.
	e := gyokit.NewEngine(gyokit.EngineOptions{})
	e.Swap(gyokit.RandomURDatabase(d, 200, 8, 1))
	x := u.Set("a", "f")
	sol, st, err := e.Solve(d, x)
	if err != nil {
		log.Fatal(err)
	}
	pl, err := e.Plan(d, x)
	if err != nil {
		log.Fatal(err)
	}
	root, err := pl.Prog.SpanTree(st)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrace of [%s] (%d tuples, %v):\n", u.FormatSet(x), sol.Card(), st.Elapsed)
	printSpan(root, "  ")

	// The same question as a conjunctive query. Predicates address stored
	// relations by attribute set (abc → attributes a, b, c), the head
	// names the output variables, and the compiler classifies the
	// hypergraph: here the head {A, F} sits inside the afe atom, so the
	// query is free-connex and the Yannakakis plan roots there, keeping
	// every intermediate within atom width. Over HTTP the same text goes
	// to POST /v1/query.
	const text = "ans(A, F) :- abc(A, B, C), cde(C, D, E), ace(A, C, E), afe(A, F, E)."
	cc, err := gyokit.CompileCQ(text)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconjunctive query: %s\n  kind: %s (reduction rooted at %s)\n",
		cc.Canonical, cc.Kind, cc.Atoms[cc.Dec.Root].Pred)

	qpl, err := e.PrepareQuery(text)
	if err != nil {
		log.Fatal(err)
	}
	qout, _, err := e.SolveQuery(qpl, 1, program.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  answer: %d tuples (attribute-set solve agrees: %v)\n",
		qout.Card(), qout.Card() == sol.Card())

	// Evaluation runs on rails: a gas budget (total tuples produced) and
	// a deadline, both checked at statement boundaries and inside every
	// join. A tripped rail
	// returns a typed error and no partial state — gyod exposes them as
	// -gas and -querytimeout.
	if _, _, err := e.SolveQuery(qpl, 1, program.Limits{MaxTuples: 1}); err != nil {
		fmt.Printf("  under a 1-tuple gas budget: %v\n", err)
	}
}

func printSpan(s *program.Span, indent string) {
	fmt.Printf("%s#%d %s %s: %d→%d (%v)\n",
		indent, s.ID, s.Op, s.Rel, s.InLeft, s.Out, time.Duration(s.ElapsedNs))
	for _, c := range s.Children {
		printSpan(c, indent+"  ")
	}
}
