// Package obs is the simulator's observability layer: a labeled metrics
// registry (counters, gauges, histograms) and a cycle-stamped event tracer
// with exporters to Chrome trace-event JSON (loadable in about:tracing and
// Perfetto) and CSV.
//
// The package is a leaf — it imports only the standard library — so every
// simulator layer (internal/sim, internal/sched, internal/mem,
// internal/core) can hook into it without import cycles. All hooks hang off
// a *Sink that is nil-checkable: every Sink method is safe to call on a nil
// receiver and returns immediately, so a disabled sink costs one branch per
// hook site. The simulator is single-goroutine per GPU, so neither the
// registry's hot-path updates nor the tracer take locks.
//
// Metric naming scheme: snake_case families ending in _total for counters
// (Prometheus convention), with at most one label identifying the hardware
// unit (sm, part, chan) plus an optional qualifier label (reason, kind).
// Examples: cta_launch_total{sm="3"}, pref_drop_total{sm="0",reason="stale"},
// dram_row_hit_total{chan="5"}.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Label is one name=value pair attached to a metric at registration time.
type Label struct {
	Key, Value string
}

// labelString renders labels in registration order as {k="v",...}; empty
// for unlabeled metrics.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing metric. The hot-path Add/Inc are a
// single integer add — no locks, no allocation (the simulator is
// single-goroutine per run). Like stats.Sim counters, obs counters
// accumulate monotonically at the collection site; corrections belong in
// this package behind a documented accessor, never at a hook site.
//
//caps:shared observability
type Counter struct {
	name   string
	labels []Label
	v      int64
}

// Inc adds one.
//
//caps:shared-sync obs-metrics
func (c *Counter) Inc() { c.v++ }

// Add adds n (n must be non-negative to preserve monotonicity).
//
//caps:shared-sync obs-metrics
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Name returns the metric family name.
func (c *Counter) Name() string { return c.name }

// Gauge is a point-in-time value (e.g. final cycle count, queue depth).
//
//caps:shared observability
type Gauge struct {
	name   string
	labels []Label
	v      int64
}

// Set overwrites the gauge.
//
//caps:shared-sync obs-metrics
func (g *Gauge) Set(v int64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Histogram is a fixed-geometry linear-bucket histogram. Observe is
// allocation-free: the bucket slice is sized at registration.
//
//caps:shared observability
type Histogram struct {
	name        string
	labels      []Label
	bucketWidth int64
	counts      []int64
	overflow    int64
	total       int64
	sum         int64
}

// Observe records one sample; negatives clamp to bucket zero.
//
//caps:shared-sync obs-metrics
func (h *Histogram) Observe(v int64) {
	h.total++
	h.sum += v
	if v < 0 {
		v = 0
	}
	i := v / h.bucketWidth
	if i >= int64(len(h.counts)) {
		h.overflow++
		return
	}
	h.counts[i]++
}

// Total returns the number of samples.
func (h *Histogram) Total() int64 { return h.total }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean of all samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Registry holds every registered metric. Registration happens at sink
// construction (never on the hot path); lookups by handle only. The
// registry keeps metrics in registration order and Snapshot sorts, so no
// map is ever iterated (detlint-clean by construction).
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	names    map[string]bool // full name+labels, duplicate registration guard
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) claim(name string, labels []Label) {
	full := name + labelString(labels)
	if r.names[full] {
		panic(fmt.Sprintf("obs: duplicate metric registration %s", full))
	}
	r.names[full] = true
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	r.claim(name, labels)
	c := &Counter{name: name, labels: labels}
	r.counters = append(r.counters, c)
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	r.claim(name, labels)
	g := &Gauge{name: name, labels: labels}
	r.gauges = append(r.gauges, g)
	return g
}

// Histogram registers and returns a linear histogram with n buckets of the
// given width.
func (r *Registry) Histogram(name string, bucketWidth int64, n int, labels ...Label) *Histogram {
	if bucketWidth <= 0 || n <= 0 {
		panic(fmt.Sprintf("obs: histogram %s needs positive geometry, got width=%d buckets=%d", name, bucketWidth, n))
	}
	r.claim(name, labels)
	h := &Histogram{name: name, labels: labels, bucketWidth: bucketWidth, counts: make([]int64, n)}
	r.hists = append(r.hists, h)
	return h
}

// SampleKind identifies what a snapshot sample was expanded from, so readers
// can tell counters from gauges and histogram expansions without parsing
// metric names.
type SampleKind uint8

// Sample kinds.
const (
	SampleCounter SampleKind = iota
	SampleGauge
	SampleBucket    // one cumulative histogram bucket (carries an le label)
	SampleHistSum   // histogram _sum
	SampleHistCount // histogram _count
)

// Sample is one metric value in a snapshot.
type Sample struct {
	Name   string // metric family name (with _bucket/_sum/_count suffix for histograms)
	Labels string // rendered label set, "" when unlabeled
	Kind   SampleKind
	Value  int64
}

// FullName returns name+labels.
func (s Sample) FullName() string { return s.Name + s.Labels }

// Snapshot returns a point-in-time copy of every metric, in deterministic
// order: sorted by name, then by rendered label set, regardless of
// registration order. Histograms expand into per-bucket samples
// (le="<upper>" plus le="+Inf" for overflow) and _sum/_count samples,
// Prometheus style. The CSV export and golden tests rely on the ordering
// being stable across runs.
func (r *Registry) Snapshot() []Sample {
	var out []Sample
	for _, c := range r.counters {
		out = append(out, Sample{Name: c.name, Labels: labelString(c.labels), Kind: SampleCounter, Value: c.v})
	}
	for _, g := range r.gauges {
		out = append(out, Sample{Name: g.name, Labels: labelString(g.labels), Kind: SampleGauge, Value: g.v})
	}
	for _, h := range r.hists {
		cum := int64(0)
		for i, c := range h.counts {
			cum += c
			le := Label{Key: "le", Value: fmt.Sprintf("%d", int64(i+1)*h.bucketWidth)}
			ls := append(append([]Label(nil), h.labels...), le)
			out = append(out, Sample{Name: h.name + "_bucket", Labels: labelString(ls), Kind: SampleBucket, Value: cum})
		}
		inf := append(append([]Label(nil), h.labels...), Label{Key: "le", Value: "+Inf"})
		out = append(out, Sample{Name: h.name + "_bucket", Labels: labelString(inf), Kind: SampleBucket, Value: cum + h.overflow})
		out = append(out, Sample{Name: h.name + "_sum", Labels: labelString(h.labels), Kind: SampleHistSum, Value: h.sum})
		out = append(out, Sample{Name: h.name + "_count", Labels: labelString(h.labels), Kind: SampleHistCount, Value: h.total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// SumCounters returns the summed value of every counter sample in the
// family (across all label sets). Tests use it to reconcile obs counters
// against stats.Sim totals.
func SumCounters(samples []Sample, name string) int64 {
	var sum int64
	for _, s := range samples {
		if s.Kind == SampleCounter && s.Name == name {
			sum += s.Value
		}
	}
	return sum
}

// WriteCSV dumps a snapshot as "metric,labels,value" rows with a header.
func WriteCSV(w io.Writer, samples []Sample) error {
	if _, err := io.WriteString(w, "metric,labels,value\n"); err != nil {
		return err
	}
	for _, s := range samples {
		// Labels contain commas and quotes; CSV-quote the field.
		lab := strings.ReplaceAll(s.Labels, `"`, `""`)
		if _, err := fmt.Fprintf(w, "%s,\"%s\",%d\n", s.Name, lab, s.Value); err != nil {
			return err
		}
	}
	return nil
}
