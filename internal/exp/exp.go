// Package exp contains the executable reproductions of the paper's
// figures, worked examples and theorems (fig1–fig7, §3.2, §4, §5.1, §6,
// Thm 4.2). Each experiment prints a human-readable report and returns
// an error if any assertion about the paper's claims fails, so the same
// code backs both `gyobench` and the test suite. No experiment is a
// benchmark: performance is measured by `go run ./bench` alone.
package exp

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one reproducible artifact.
type Experiment struct {
	ID    string // e.g. "fig1"
	Title string
	Run   func(w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment, ordered by ID registration.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunOne executes one experiment against w with the standard header.
func RunOne(e Experiment, w io.Writer) error {
	fmt.Fprintf(w, "=== %s — %s ===\n", e.ID, e.Title)
	if err := e.Run(w); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	return nil
}

// RunAll executes every experiment against w, stopping at the first
// failure.
func RunAll(w io.Writer) error {
	for _, e := range All() {
		if err := RunOne(e, w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
