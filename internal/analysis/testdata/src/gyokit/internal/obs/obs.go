// Package obs is the analysistest stand-in for the metrics registry.
package obs

import "io"

// Counter mirrors the monotonic counter instrument.
type Counter struct{}

// Gauge mirrors the gauge instrument.
type Gauge struct{}

// Histogram mirrors the histogram instrument.
type Histogram struct{}

// Registry mirrors the metric registry; registration panics on
// duplicate series at runtime, which metricname catches statically.
type Registry struct{}

// Counter registers a counter series.
func (r *Registry) Counter(name, help string, labels ...string) *Counter { return &Counter{} }

// CounterFunc registers a counter backed by fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {}

// Gauge registers a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge { return &Gauge{} }

// GaugeFunc registers a gauge backed by fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {}

// Histogram registers a histogram series.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return &Histogram{}
}

// WriteSeries writes one ad-hoc exposition series.
func WriteSeries(w io.Writer, name, help, typ string, v float64, labels ...string) {}
