// Command gyobench runs the asserted reproductions of the paper's
// figures, worked examples and theorems (internal/exp); a wrong engine
// result makes it exit non-zero. It is not a benchmark: performance is
// measured by `go run ./bench` alone.
//
// Usage:
//
//	gyobench              run everything
//	gyobench -run sec6    run one experiment by id
//	gyobench -list        list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"

	"gyokit/internal/exp"
)

func main() {
	run := flag.String("run", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *run != "" {
		e, ok := exp.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "gyobench: unknown experiment %q (try -list)\n", *run)
			os.Exit(2)
		}
		if err := exp.RunOne(e, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
			os.Exit(1)
		}
		return
	}
	if err := exp.RunAll(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("all experiments passed")
}
