// Package obs is a zero-dependency observability core: an atomic
// counter/gauge/histogram registry with Prometheus text-format
// exposition (version 0.0.4), shared by the engine, the storage layer,
// and the gyod serving surface.
//
// Design constraints, in order:
//
//   - hot-path cost: Observe/Add/Inc are one or two atomic operations
//     and allocate nothing, so instrumenting the cached-plan solve path
//     and the WAL append path stays within the CI-gated overhead budget;
//   - no dependencies: the encoder writes the text exposition format
//     directly, and fixed-bucket histograms make p50/p95/p99 derivable
//     by any Prometheus-compatible scraper (histogram_quantile) or by
//     Histogram.Quantile locally;
//   - nil-safety: every instrument method is a no-op on a nil receiver,
//     so layers can hold optional handles ("metrics not configured")
//     without branching at each call site.
//
// A Registry is safe for concurrent use: registration takes a lock,
// instrument updates are lock-free, and WriteText observes each series
// atomically (per-value; a scrape concurrent with writes sees counts
// that are each valid, monotone snapshots).
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta. No-op on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: counts per upper bound plus a
// +Inf bucket, a running sum, and a total count. Buckets are cumulative
// only at exposition time; Observe touches exactly one bucket counter,
// the sum, and the count.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

// Observe records v. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound ≥ v; ~22 bounds means ≤ 5
	// probes, no allocation.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear
// interpolation within the bucket holding the target rank — the same
// estimate Prometheus's histogram_quantile computes. Observations in
// the +Inf bucket report the largest finite bound. Returns 0 with no
// observations or a nil receiver.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		bucket := float64(h.counts[i].Load())
		if cum+bucket >= rank {
			if i == len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if bucket == 0 {
				return h.bounds[i]
			}
			return lower + (h.bounds[i]-lower)*((rank-cum)/bucket)
		}
		cum += bucket
	}
	return h.bounds[len(h.bounds)-1]
}

// LatencyBuckets returns the default latency bounds in seconds: 1µs to
// 10s, a 1-2.5-5 decade ladder. Covers sub-microsecond cached plan
// lookups at one end and multi-second cold cyclic joins at the other.
func LatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// SizeBuckets returns exponential size bounds: base, base·factor, …,
// n bounds total. Use for byte and tuple-count histograms.
func SizeBuckets(base, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := base
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metricType is the TYPE line value of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labeled instance of a family.
type series struct {
	labels string // pre-encoded {k="v",…} or ""
	ctr    *Counter
	gauge  *Gauge
	gfn    func() float64 // GaugeFunc / CounterFunc
	hist   *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name, help string
	typ        metricType
	series     []*series
	byLabels   map[string]bool
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order, for stable output
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register adds a series, panicking on wiring errors (type clash or
// duplicate name+labels): these are programmer mistakes in static
// metric declarations, not runtime conditions.
func (r *Registry) register(name, help string, typ metricType, s *series, labels []string) {
	s.labels = encodeLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabels: map[string]bool{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	if f.byLabels[s.labels] {
		panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
	}
	f.byLabels[s.labels] = true
	f.series = append(f.series, s)
}

// Counter registers and returns a counter series. labels are
// alternating key, value pairs; registering the same name+labels twice
// panics (an observability wiring bug). Nil receiver returns a nil
// (no-op) counter, so optional registries need no call-site branches.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, typeCounter, &series{ctr: c}, labels)
	return c
}

// Gauge registers and returns a settable gauge series. Nil receiver
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(name, help, typeGauge, &series{gauge: g}, labels)
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// fn must be safe to call concurrently. No-op on a nil receiver.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.register(name, help, typeGauge, &series{gfn: fn}, labels)
}

// CounterFunc registers a counter whose value is computed at scrape
// time, for a total some other structure already keeps. fn must be safe
// to call concurrently. No-op on a nil receiver.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.register(name, help, typeCounter, &series{gfn: fn}, labels)
}

// Histogram registers and returns a histogram series with the given
// upper bounds (strictly increasing; a +Inf bucket is implicit). Nil
// receiver returns a nil (no-op) histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing at %d", name, i))
		}
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bound", name))
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.register(name, help, typeHistogram, &series{hist: h}, labels)
	return h
}

// WriteText renders every family in the Prometheus text exposition
// format, in registration order, series in registration order within a
// family. No-op on a nil receiver.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	for i, name := range r.order {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		writeHeader(bw, f.name, f.help, string(f.typ))
		for _, s := range f.series {
			switch {
			case s.ctr != nil:
				writeSample(bw, f.name, "", s.labels, "", float64(s.ctr.Value()))
			case s.gauge != nil:
				writeSample(bw, f.name, "", s.labels, "", s.gauge.Value())
			case s.gfn != nil:
				writeSample(bw, f.name, "", s.labels, "", s.gfn())
			case s.hist != nil:
				writeHistogram(bw, f.name, s.labels, s.hist)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram emits the _bucket/_sum/_count series of one
// histogram. Bucket counts are read once each and accumulated, so the
// emitted buckets are cumulative and non-decreasing even if Observe
// calls race the scrape.
func writeHistogram(w *bufio.Writer, name, labels string, h *Histogram) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(w, name, "_bucket", labels, formatLe(bound), float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(w, name, "_bucket", labels, "+Inf", float64(cum))
	writeSample(w, name, "_sum", labels, "", h.Sum())
	// The total count must match the +Inf bucket of this scrape, not a
	// fresher read of h.count, or a concurrent Observe between the two
	// reads makes the exposition internally inconsistent.
	writeSample(w, name, "_count", labels, "", float64(cum))
}

func writeHeader(w *bufio.Writer, name, help, typ string) {
	w.WriteString("# HELP ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(help))
	w.WriteByte('\n')
	w.WriteString("# TYPE ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(typ)
	w.WriteByte('\n')
}

// writeSample writes one sample line: name+suffix, labels (with le
// merged in for buckets), and the value.
func writeSample(w *bufio.Writer, name, suffix, labels, le string, v float64) {
	w.WriteString(name)
	w.WriteString(suffix)
	if le != "" {
		if labels == "" {
			w.WriteString(`{le="` + le + `"}`)
		} else {
			w.WriteString(labels[:len(labels)-1] + `,le="` + le + `"}`)
		}
	} else {
		w.WriteString(labels)
	}
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

// WriteSeries writes one complete single-sample family (HELP, TYPE,
// sample) to w — for scrape-time computed values (process uptime,
// goroutine count) that a handler appends after a registry dump
// without registering closures.
func WriteSeries(w io.Writer, name, help, typ string, v float64, labels ...string) {
	bw := bufio.NewWriter(w)
	writeHeader(bw, name, help, typ)
	writeSample(bw, name, "", encodeLabels(labels), "", v)
	bw.Flush()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLe renders a bucket bound the way Prometheus clients do.
func formatLe(bound float64) string {
	return strconv.FormatFloat(bound, 'g', -1, 64)
}

// encodeLabels renders alternating key, value pairs as {k="v",…}.
// Panics on an odd count (a wiring bug).
func encodeLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	esc := strings.NewReplacer("\\", `\\`, `"`, `\"`, "\n", `\n`)
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(esc.Replace(labels[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// ParseText parses a Prometheus text exposition into a map from series
// (name plus label block, exactly as written) to value. It validates
// line shape and numeric values, returning an error on any malformed
// line — the scrape-parseability assertion the race tests rely on.
// HELP/TYPE comments and blank lines are skipped but HELP/TYPE must
// precede their family's samples.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	typed := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, fmt.Errorf("obs: line %d: malformed TYPE comment %q", lineNo, line)
			}
			typed[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// name{labels} value  |  name value
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("obs: line %d: malformed sample %q", lineNo, line)
		}
		key, valText := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valText, 64)
		if err != nil && valText != "+Inf" && valText != "-Inf" && valText != "NaN" {
			return nil, fmt.Errorf("obs: line %d: bad value %q", lineNo, valText)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				return nil, fmt.Errorf("obs: line %d: unterminated label block %q", lineNo, key)
			}
			name = key[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			return nil, fmt.Errorf("obs: line %d: sample %q precedes its TYPE comment", lineNo, name)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("obs: line %d: duplicate series %q", lineNo, key)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
