package main

import (
	"encoding/json"
	"fmt"
	"time"

	"gyokit/internal/engine"
	"gyokit/internal/program"
)

// spanPass asks the read server for every read of the workload's mix,
// one at a time, without and then with "trace": true, and adds up where
// the server says evaluation went: per-statement span times by
// operator, tuples produced per result tuple, the largest intermediate,
// and what asking for the trace cost on the wire. One client and no
// concurrent load, so the counts repeat exactly and the times are the
// server's own, free of queueing. It runs after the measured phase and
// the integrity checks, when the data is static again.
func spanPass(sys *system, f *failures) metrics {
	c := newClient()
	reads := sys.in.reads
	passes := 1
	if len(reads) < 100 {
		passes = 3 // nine shapes: a few passes steady the means
	}
	var n, evalNs, produced, cards, maxInter, plainMs, tracedMs float64
	opNs := map[string]float64{}
	evalByID := map[string]series{}
	for p := 0; p < passes; p++ {
		for i, r := range reads {
			// Whichever of the pair goes second finds the plan the first
			// one compiled, so the order alternates.
			var ans readAnswer
			var plain, traced float64
			var err error
			for k := 0; k < 2; k++ {
				if (i+k)%2 == 0 {
					_, plain, err = doRead(c, sys.readBase, r, sys.want[i])
				} else {
					ans, traced, err = doRead(c, sys.readBase, r.withTrace(), sys.want[i])
				}
				f.check(err)
			}
			if ans.Stats == nil {
				continue
			}
			plainMs += plain
			tracedMs += traced
			n++
			evalNs += float64(ans.Stats.ElapsedNs)
			evalByID[r.id] = append(evalByID[r.id], float64(ans.Stats.ElapsedNs)/1e6)
			produced += float64(ans.Stats.TuplesProduced)
			cards += float64(*ans.Card)
			if v := float64(ans.Stats.MaxIntermediate); v > maxInter {
				maxInter = v
			}
			if ans.Trace != nil {
				ans.Trace.Each(func(sp *program.Span) { opNs[sp.Op] += float64(sp.ElapsedNs) })
			}
		}
	}
	m := metrics{}
	if n == 0 {
		return m
	}
	m["program.eval_ms"] = evalNs / n / 1e6
	m["program.trace_overhead_pct"] = (tracedMs - plainMs) / plainMs * 100
	for _, op := range []string{"semijoin", "join", "project"} {
		m["relation."+op+"_ms"] = opNs[op] / n / 1e6
	}
	if cards > 0 {
		m["program.tuples_per_result"] = produced / cards
	}
	m["program.max_intermediate"] = maxInter
	for id, ms := range evalByID {
		m["program.eval."+id+"_ms"] = ms.mean()
	}

	// The mix's first conjunctive query, serial against parallelism 2.
	for _, r := range reads {
		if r.path != "/v1/query" {
			continue
		}
		var body map[string]any
		if err := json.Unmarshal(r.body, &body); err != nil {
			break
		}
		for _, par := range []int{1, 2} {
			body["parallelism"] = par
			pr := request{id: r.id, path: r.path, body: mustJSON(body), wantCard: -1}
			var ms []float64
			for i := 0; i < 5; i++ {
				ans, _, err := doRead(c, sys.readBase, pr, -1)
				f.check(err)
				if err == nil && ans.Stats != nil {
					ms = append(ms, float64(ans.Stats.ElapsedNs)/1e6)
				}
			}
			m[fmt.Sprintf("program.eval_par%d_ms", par)] = median(ms)
		}
		break
	}
	return m
}

// transportUs is the fixed cost of the wire: the median latency of the
// cheapest request the API has (a cached two-relation classify) sent to
// base, minus the median time the same handler takes in process.
func transportUs(base string, f *failures) float64 {
	body := mustJSON(map[string]any{"schema": "ab, bc"})
	h := engine.NewServer(engine.New(engine.Options{}), nil, nil).Handler()
	c := newClient()
	var wire, handle []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		_, err := post(c, base+"/v1/classify", body)
		wire = append(wire, float64(time.Since(t0).Nanoseconds())/1e3)
		f.check(err)
		_, us := serve(h, "/v1/classify", body)
		handle = append(handle, us)
	}
	return median(wire) - median(handle)
}
