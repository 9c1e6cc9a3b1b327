// Command gyobench regenerates every experiment in EXPERIMENTS.md: the
// paper's figures and worked examples (asserted reproductions) plus
// the synthetic performance tables. With -json / -gate it is the
// benchmark-trajectory tool CI uses to record and police the
// `go test -bench` numbers. (Load against a running gyod — reads,
// durable writes, a replica — is `go run ./bench`.)
//
// Usage:
//
//	gyobench              run everything
//	gyobench -run sec6    run one experiment by id
//	gyobench -list        list experiment ids
//	gyobench -time        print per-experiment wall time
//	gyobench -json [-sha SHA] < bench.out > BENCH_SHA.json
//	                      convert `go test -bench` output to JSON
//	gyobench -gate BENCH_baseline.json [-gatepattern 'Join|Semijoin']
//	                      [-maxregress 1.2] < BENCH_SHA.json
//	                      fail if gated benchmarks regressed
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
	timed := flag.Bool("time", false, "print per-experiment wall time")
	emit := flag.Bool("json", false, "convert `go test -bench` output on stdin to BENCH json on stdout")
	sha := flag.String("sha", os.Getenv("GITHUB_SHA"), "commit sha recorded by -json")
	gateBaseline := flag.String("gate", "", "baseline BENCH json to gate stdin against")
	gatePattern := flag.String("gatepattern", "Join|Semijoin|ReplApply", "regexp selecting gated benchmarks")
	maxRegress := flag.Float64("maxregress", 1.20, "max allowed current/baseline ns-per-op ratio")
	flag.Parse()

	if *emit {
		if err := emitJSON(*sha); err != nil {
			fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
			os.Exit(1)
		}
		return
	}
	if *gateBaseline != "" {
		if err := gate(*gateBaseline, *gatePattern, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
			os.Exit(1)
		}
		return
	}
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
		if err := exp.RunOne(e, os.Stdout, *timed); err != nil {
			fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
			os.Exit(1)
		}
		return
	}
	if err := exp.RunAllTimed(os.Stdout, *timed); err != nil {
		fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("all experiments passed")
}
