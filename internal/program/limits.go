package program

import (
	"errors"
	"fmt"
	"time"
)

// Limits bounds one program evaluation — the serving layer's
// multi-tenant safety rails. The zero value means unlimited.
//
// Both rails are checked at statement boundaries inside the evaluation
// loop: statements themselves are never interrupted, so the overshoot
// past a deadline (or a gas budget) is bounded by one statement's
// work. An aborted run returns a *LimitError and no relation; since
// evaluation never mutates the database, an abort leaves no partial
// state behind.
type Limits struct {
	// MaxTuples is the evaluation's gas: the total tuples all statements
	// may materialize (what Stats.TuplesProduced counts). Exceeding it
	// aborts the run with ErrGasExhausted. Zero or negative means
	// unlimited.
	MaxTuples int
	// Deadline, when nonzero, aborts the run with ErrDeadlineExceeded at
	// the first statement boundary past it.
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
