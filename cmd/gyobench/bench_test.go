package main

import (
	"reflect"
	"testing"
)

func TestBenchFamilies(t *testing.T) {
	got := benchFamilies([]string{
		"JoinColumnar/n=50000",
		"JoinColumnar/n=10000",
		"SemijoinProgramSerial/n=10000",
		"QueryParse",
	})
	want := []string{"JoinColumnar", "QueryParse", "SemijoinProgramSerial"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("benchFamilies = %v, want %v", got, want)
	}
}

func TestPlural(t *testing.T) {
	if got := plural([]string{"a"}, "y", "ies"); got != "y" {
		t.Fatalf("plural(1) = %q, want \"y\"", got)
	}
	if got := plural([]string{"a", "b"}, "y", "ies"); got != "ies" {
		t.Fatalf("plural(2) = %q, want \"ies\"", got)
	}
}
