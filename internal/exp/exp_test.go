package exp

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestAllExperimentsPass runs every registered experiment; each one
// asserts the paper's claims internally.
func TestAllExperimentsPass(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s failed: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no report", e.ID)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	want := []string{"fig1", "fig2", "fig45", "fig7", "perf4", "perf8", "perf9", "sec32", "sec51", "sec6", "thm42"}
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"fig1", "thm42", "sec6"} {
		if !strings.Contains(out, "=== "+id) {
			t.Errorf("RunAll output missing section %s", id)
		}
	}
}

var _ io.Writer = (*bytes.Buffer)(nil)
