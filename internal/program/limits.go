package program

import (
	"errors"
	"fmt"
	"time"

	"gyokit/internal/relation"
)

// Limits bounds one program evaluation — the serving layer's
// multi-tenant safety rails. The zero value means unlimited.
//
// Both rails are checked at statement boundaries inside the evaluation
// loop, and while a join streams into its consumer (see Program.Run):
// the gas after each probe row's partners, the deadline every few
// thousand join rows. Other statements are never interrupted, so the
// overshoot past a deadline (or a gas budget) is bounded by one
// statement's work — a streamed join's by one probe row's partners. An
// aborted run returns a *LimitError and no relation; since evaluation
// never mutates the database, an abort leaves no partial state behind.
type Limits struct {
	// MaxTuples is the evaluation's gas: the total tuples all statements
	// may materialize (what Stats.TuplesProduced counts). Exceeding it
	// aborts the run with ErrGasExhausted. Zero or negative means
	// unlimited.
	MaxTuples int
	// Deadline, when nonzero, aborts the run with ErrDeadlineExceeded at
	// the first statement boundary past it — or, inside a streamed join,
	// within a few thousand join rows of it.
	Deadline time.Time
}

// active reports whether any rail is set; evaluation skips the
// per-statement checks entirely for zero Limits.
func (l Limits) active() bool { return l.MaxTuples > 0 || !l.Deadline.IsZero() }

// check enforces both rails at a statement boundary: si is the index of
// the last executed statement (or 0 before the first), produced the
// tuples materialized so far.
func (l Limits) check(si, produced int) error {
	if !l.Deadline.IsZero() && time.Now().After(l.Deadline) {
		return &LimitError{Reason: ErrDeadlineExceeded, Stmt: si, Produced: produced, Limits: l}
	}
	if l.MaxTuples > 0 && produced > l.MaxTuples {
		return &LimitError{Reason: ErrGasExhausted, Stmt: si, Produced: produced, Limits: l}
	}
	return nil
}

// budget is what is left of l for a join streamed after produced tuples
// were materialized: it stops the join once its rows pass the gas.
func (l Limits) budget(produced int) relation.Budget {
	b := relation.Budget{Deadline: l.Deadline}
	if l.MaxTuples > 0 {
		b.Rows = l.MaxTuples - produced + 1
	}
	return b
}

// stopped is the error of a join statement si that budget stopped with
// produced tuples counted: check's, which a spent budget always trips —
// the deadline, should the wall clock have stepped back since.
func (l Limits) stopped(si, produced int) error {
	if err := l.check(si, produced); err != nil {
		return err
	}
	return &LimitError{Reason: ErrDeadlineExceeded, Stmt: si, Produced: produced, Limits: l}
}

// Sentinel reasons a limited evaluation aborts with; match with
// errors.Is. The concrete error is always a *LimitError carrying where
// the rail tripped.
var (
	ErrGasExhausted     = errors.New("gas exhausted")
	ErrDeadlineExceeded = errors.New("deadline exceeded")
)

// LimitError reports which rail an evaluation hit and where.
type LimitError struct {
	Reason   error  // ErrGasExhausted or ErrDeadlineExceeded
	Stmt     int    // index of the statement at whose boundary the rail tripped
	Produced int    // tuples materialized before the abort
	Limits   Limits // the rails that were in force
}

func (e *LimitError) Error() string {
	if e.Reason == ErrGasExhausted {
		return fmt.Sprintf("program: gas exhausted at statement %d: %d tuples produced, budget %d",
			e.Stmt, e.Produced, e.Limits.MaxTuples)
	}
	return fmt.Sprintf("program: deadline exceeded at statement %d (%d tuples produced)",
		e.Stmt, e.Produced)
}

func (e *LimitError) Unwrap() error { return e.Reason }
