package program

// Trace spans: the per-statement Detail a run already records, lifted
// into a structured tree. A /v1/solve or /v1/query with "trace": true
// returns this tree, making the §6 cost anatomy of a request (which
// semijoin filtered, which join dominated) inspectable per request
// instead of only in aggregate.

import (
	"fmt"
	"time"
)

// Span is one statement of a program run: the operation, the
// relation schema it produced, tuple counts in and out, wall time, and
// the operand statements as children. Operand ids (Left/Right) are
// always recorded; Children holds each operand statement's span exactly once
// — a statement consumed twice (e.g. a reduced root absorbed by every
// child in the full reducer's second pass) appears under its first
// consumer and is referenced by id elsewhere, so elapsed times sum
// correctly over the tree.
type Span struct {
	// ID is the statement's relation id (|D| + statement index).
	ID int `json:"id"`
	// Op is "join", "project", or "semijoin".
	Op string `json:"op"`
	// Rel is the produced relation's attribute set, formatted through
	// the program's universe.
	Rel string `json:"rel"`
	// Left and Right are operand relation ids; ids below |D| are input
	// relations. Right is -1 for projections.
	Left  int `json:"left"`
	Right int `json:"right"`
	// InLeft/InRight/Out are operand and result cardinalities; InRight
	// is -1 for projections.
	InLeft  int `json:"inLeft"`
	InRight int `json:"inRight"`
	Out     int `json:"out"`
	// ElapsedNs is the statement's wall time.
	ElapsedNs int64 `json:"elapsedNs"`
	// Streamed marks a statement of a chain fed straight into the next,
	// never materialized (see Program.Run): Out counts the rows that
	// passed through, and the chain's wall time is the ElapsedNs of its
	// last statement.
	Streamed bool `json:"streamed,omitempty"`
	// Counted marks the answer statement run counted: Out is the answer's
	// full cardinality, but only the rows the reply echoes were built.
	Counted bool `json:"counted,omitempty"`
	// Children are the operand statements' spans (first-consumer-owned;
	// see type comment).
	Children []*Span `json:"children,omitempty"`
}

// Each visits s and every descendant in depth-first pre-order.
func (s *Span) Each(fn func(*Span)) {
	fn(s)
	for _, c := range s.Children {
		c.Each(fn)
	}
}

// ElapsedSum returns the total statement wall time over the tree. Each
// statement appears exactly once, so this is the run's per-statement
// elapsed sum — always ≤ the run's total Elapsed (which additionally
// covers interpreter overhead between statements).
func (s *Span) ElapsedSum() time.Duration {
	var total time.Duration
	s.Each(func(sp *Span) { total += time.Duration(sp.ElapsedNs) })
	return total
}

// SpanTree builds the span tree of a completed run from its Stats: one
// span per statement — a statement an early-ending run skipped shows
// zero tuples and zero elapsed — rooted at the statement producing the
// program's answer. st must come from evaluating exactly this program
// (Detail aligned with Stmts index-for-index). Statements not reachable
// from the result via operand edges — possible in hand-built programs
// — are attached under the root so the tree always covers every
// statement.
func (p *Program) SpanTree(st *Stats) (*Span, error) {
	if len(st.Detail) != len(p.Stmts) {
		return nil, fmt.Errorf("program: stats cover %d statements, program has %d", len(st.Detail), len(p.Stmts))
	}
	if len(p.Stmts) == 0 {
		return nil, fmt.Errorf("program: empty program has no spans")
	}
	sch, err := p.schemas()
	if err != nil {
		return nil, err
	}
	n := len(p.D.Rels)
	spans := make([]*Span, len(p.Stmts))
	for i, s := range p.Stmts {
		d := st.Detail[i]
		sp := &Span{
			ID:        n + i,
			Op:        s.Kind.String(),
			Rel:       p.D.U.FormatSet(sch[n+i]),
			Left:      s.Left,
			Right:     s.Right,
			InLeft:    d.InLeft,
			InRight:   d.InRight,
			Out:       d.Out,
			ElapsedNs: d.Elapsed.Nanoseconds(),
			Streamed:  d.Streamed,
			Counted:   d.Counted,
		}
		if s.Kind == Project {
			sp.Right = -1
		}
		spans[i] = sp
	}
	claimed := make([]bool, len(p.Stmts))
	claim := func(parent *Span, id int) {
		if id < n || claimed[id-n] {
			return
		}
		claimed[id-n] = true
		parent.Children = append(parent.Children, spans[id-n])
	}
	for i, s := range p.Stmts {
		claim(spans[i], s.Left)
		if s.Kind != Project {
			claim(spans[i], s.Right)
		}
	}
	root := spans[len(spans)-1]
	for i := 0; i < len(spans)-1; i++ {
		if !claimed[i] {
			root.Children = append(root.Children, spans[i])
		}
	}
	return root, nil
}
