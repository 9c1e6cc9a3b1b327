// Command bench is gyokit's end-to-end benchmark: it builds the real
// gyod, drives it over HTTP through four workloads that stress
// different layers, checks every answer, and attributes the time to
// layers from outside — traced requests, /v1/metrics scrapes and
// in-process probes around each layer's public functions. README.md in
// this directory is the metric catalogue and the reasoning behind each
// workload.
//
//	go run ./bench                      every workload, untraced then traced, 30 s each
//	go run ./bench -workload eval_read  one workload
//	go run ./bench -aa                  two sets of the same build, compared against the bounds
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                    one pass; the last stdout line is the BENCHMARK.json result object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// bench is one benchmark process: the gyod binary it built, the
// scratch directory it owns, and every child it started.
type bench struct {
	root    string // module root: where gyod is built from and workDir lives
	bin     string
	buildS  float64
	scratch string
	procs   procs
	// setupRepeats is how many times a run sets its workload up before
	// the untraced phase; setup_s is their median.
	setupRepeats int
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from a gyokit checkout")
		}
		dir = parent
	}
}

// newBench builds gyod and creates this process's scratch directory.
func newBench() (*bench, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	bin, took, err := buildGyod(root)
	if err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(filepath.Join(root, workDir), "run-")
	if err != nil {
		return nil, err
	}
	return &bench{root: root, bin: bin, buildS: took.Seconds(), scratch: scratch, setupRepeats: 3}, nil
}

// close kills every child still running and removes the scratch data.
func (b *bench) close() {
	b.procs.killAll()
	_ = os.RemoveAll(b.scratch) // best effort: scratch is ignored by git and unique per process
}

// runWorkload runs one workload: set-up, the untraced and/or traced
// measured phase, the integrity checks, and — after a traced phase —
// the span pass and the in-process probes.
func (b *bench) runWorkload(s spec, seed int64, d time.Duration, untraced, traced bool) (*result, error) {
	in, err := s.generate(seed)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: s.name, Seed: seed, Seconds: d.Seconds(), Samples: map[string]int{}}
	repeats := 1
	if untraced {
		repeats = b.setupRepeats
	}
	var setups []float64
	var sys *system
	for i := 0; i < repeats; i++ {
		if sys != nil {
			sys.teardown()
		}
		if sys, err = b.setup(s, in, seed); err != nil {
			return nil, err
		}
		setups = append(setups, sys.setupS)
	}
	defer sys.teardown()

	var fails failures
	var un, tr *phase
	if untraced {
		if un, err = b.measure(sys, d, false); err != nil {
			return nil, err
		}
		fails.merge(un.fails)
	}
	if traced {
		if tr, err = b.measure(sys, d, true); err != nil {
			return nil, err
		}
		fails.merge(tr.fails)
	}
	var rssMB float64
	for _, g := range sys.servers() {
		mb, err := g.rssPeakMB()
		if err != nil {
			return nil, err
		}
		rssMB += mb
	}
	recoverMs, replayed, err := b.integrity(sys, &fails)
	if err != nil {
		return nil, err
	}
	if untraced {
		res.endToEnd(s, setups, un, rssMB)
	}
	if traced {
		m := res.wireLayers(sys, tr, b.buildS)
		if recoverMs > 0 {
			m["storage.recover_ms"], m["storage.replayed_batches"] = recoverMs, replayed
		}
		maps.Copy(m, spanPass(sys, &fails))
		m["http.transport_us"] = transportUs(sys.leader.base, &fails)
		if err := probes(in, filepath.Join(sys.dir, "probe"), m, &fails); err != nil {
			return nil, err
		}
		res.PerLayer = m
	}
	res.Attempted, res.Failed, res.Failures = fails.attempted, fails.failed, fails.msgs
	if res.EndToEnd != nil {
		res.EndToEnd["fail_ratio"] = float64(fails.failed) / float64(fails.attempted)
	}
	return res, nil
}

// driverLine is the one-line result object BENCHMARK.json's contract
// asks for: exactly the gated metrics of the pass that ran.
func driverLine(res *result, traced bool) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, have := gated(endToEndDefs), res.EndToEnd
	if traced {
		defs, have = gated(perLayerDefs), res.PerLayer
	}
	out := map[string]mv{}
	for _, d := range defs {
		v, ok := have[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: gated metric %s was not measured", res.Workload, d.name)
		}
		out[d.name] = mv{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, out})
}

// history is one committed record of a full run.
type history struct {
	Issue     string    `json:"issue"`
	SHA       string    `json:"sha"`
	NProc     int       `json:"nproc"`
	GoVersion string    `json:"goVersion"`
	Kernel    string    `json:"kernel"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Results   []*result `json:"results"`
}

// writeHistory records a full run under bench/history.
func (b *bench) writeHistory(issue string, seed int64, seconds float64, results []*result) (string, error) {
	sha := "nogit"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = b.root
	if out, err := cmd.Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux: the record then says ""
	h := history{
		Issue: issue, SHA: sha, NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Kernel: strings.TrimSpace(string(kernel)), Seed: seed, Seconds: seconds, Results: results,
	}
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return "", err
	}
	dir := filepath.Join(b.root, "bench", "history")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, issue+"-"+sha+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSet runs the chosen workloads once each, printing as it goes.
func (b *bench) runSet(chosen []spec, seed int64, d time.Duration) ([]*result, error) {
	var results []*result
	for _, s := range chosen {
		fmt.Printf("== %s: %s\n", s.name, s.why)
		res, err := b.runWorkload(s, seed, d, true, true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Printf(" end to end (untraced phase, %.0f s):\n", d.Seconds())
		printMetrics(os.Stdout, res.EndToEnd, res.Samples)
		fmt.Printf(" per layer (traced phase, span pass, probes):\n")
		printMetrics(os.Stdout, res.PerLayer, res.Samples)
		for _, msg := range res.Failures {
			fmt.Printf(" FAILED: %s\n", msg)
		}
		results = append(results, res)
	}
	return results, nil
}

// compareSets prints, per workload and end-to-end metric, both sets'
// values, their ratio and the bound, and reports whether every pair
// agrees within its bound.
func compareSets(a, b []*result) bool {
	ok := true
	fmt.Printf("%-14s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "ratio", "bound")
	for i := range a {
		for _, d := range endToEndDefs {
			va, has := a[i].EndToEnd[d.name]
			vb := b[i].EndToEnd[d.name]
			if !has {
				continue
			}
			verdict := ""
			r := ratio(vb, va)
			if (va == 0 && vb != 0) || (va != 0 && (r > 1+d.bound || r < 1-d.bound)) {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("%-14s %-22s %14.4f %14.4f %8.3f %6.2f%s\n", a[i].Workload, d.name, va, vb, r, d.bound, verdict)
		}
	}
	return ok
}

func anyFailed(results []*result) bool {
	for _, res := range results {
		if res.Failed > 0 {
			return true
		}
	}
	return false
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "seed of every generated dataset and request list")
	seconds := flag.Int("seconds", 30, "length of each measured phase")
	trace := flag.Int("trace", -1, "0 or 1: run one pass (untraced or traced) and end with the BENCHMARK.json result line; default both")
	aa := flag.Bool("aa", false, "run two sets back to back and fail when they disagree by more than a bound")
	issue := flag.String("issue", "local", "issue number naming the bench/history record of a full run")
	flag.Parse()

	chosen := specs
	if *workload != "" {
		s, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		chosen = []spec{s}
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 || (*trace >= 0 && len(chosen) != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive; -trace 0|1 needs -workload")
		return 2
	}
	d := time.Duration(*seconds) * time.Second
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	b, err := newBench()
	if err != nil {
		return fail(err)
	}
	defer b.close()
	// Children live in their own process groups, so a signal or a hang
	// reaches them only through here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	limit := time.Duration(len(chosen)) * (4*d + 2*time.Minute)
	if *trace >= 0 {
		limit = 170 * time.Second // the contract's per-run cap, less a margin
	}
	go func() {
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "bench: interrupted")
		case <-time.After(limit):
			fmt.Fprintf(os.Stderr, "bench: still running after %v, giving up\n", limit)
		}
		b.close()
		os.Exit(3)
	}()

	if *trace >= 0 {
		res, err := b.runWorkload(chosen[0], *seed, d, *trace == 0, *trace == 1)
		if err != nil {
			return fail(err)
		}
		for _, msg := range res.Failures {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", msg)
		}
		line, err := driverLine(res, *trace == 1)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if res.Failed > 0 {
			return 1
		}
		return 0
	}

	first, err := b.runSet(chosen, *seed, d)
	if err != nil {
		return fail(err)
	}
	code := 0
	if anyFailed(first) {
		code = 1
	}
	if len(chosen) == len(specs) {
		path, err := b.writeHistory(*issue, *seed, d.Seconds(), first)
		if err != nil {
			return fail(err)
		}
		fmt.Println("recorded", path)
	}
	if *aa {
		second, err := b.runSet(chosen, *seed, d)
		if err != nil {
			return fail(err)
		}
		if anyFailed(second) || !compareSets(first, second) {
			code = 1
		}
	}
	out, err := json.Marshal(first)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	return code
}
