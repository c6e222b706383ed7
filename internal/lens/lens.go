// Package lens holds what every streaming profiler ("lens") of a run
// shares: the log2 histogram, the entropy and fraction helpers, the
// drops-only regression gate, the JSON file round trip and the HTML report
// scaffolding (page head, bar and histogram charts). The stall-stack
// profile, memlens, schedlens and hostprof build on it. It imports nothing
// from the simulator.
package lens

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"math"
	"math/bits"
	"os"
	"strings"
)

// Buckets is the size of the log2 histograms (covers any int64).
const Buckets = 64

// Hist is a log2-bucketed histogram: value v lands in bucket
// bits.Len64(v), so bucket i holds values in [2^(i-1), 2^i).
type Hist struct {
	counts [Buckets]int64
	sum    int64
	n      int64
}

// Observe folds one value; negatives count as 0.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))]++
	h.sum += v
	h.n++
}

// HistBucket is one non-empty log2 histogram bucket: Count values were
// <= Le (and greater than the previous bucket's Le).
type HistBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Histo is an exported log2-bucketed histogram.
type Histo struct {
	Buckets []HistBucket `json:"buckets,omitempty"`
	Count   int64        `json:"count"`
	Mean    float64      `json:"mean"`
}

// Export renders the accumulated histogram.
func (h *Hist) Export() Histo {
	out := Histo{Count: h.n}
	if h.n > 0 {
		out.Mean = float64(h.sum) / float64(h.n)
	}
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		le := int64(math.MaxInt64)
		if i < 63 {
			le = (int64(1) << i) - 1 // bucket i holds values with bits.Len == i
		}
		out.Buckets = append(out.Buckets, HistBucket{Le: le, Count: n})
	}
	return out
}

// Percentile returns the upper bound of the bucket containing the p-th
// percentile (0 < p <= 1) — an upper estimate, exact to log2 resolution.
func (h Histo) Percentile(p float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(h.Count)))
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.Le
		}
	}
	return h.Buckets[len(h.Buckets)-1].Le
}

// Entropy computes the Shannon entropy (bits) of a count distribution.
func Entropy(counts []int64) float64 {
	var tot int64
	for _, n := range counts {
		tot += n
	}
	if tot == 0 {
		return 0
	}
	var h float64
	for _, n := range counts {
		if n == 0 {
			continue
		}
		pr := float64(n) / float64(tot)
		h -= pr * math.Log2(pr)
	}
	return h
}

// NormEntropy is Entropy normalized by the maximum for `slots` outcomes
// (1.0 = perfectly even spread).
func NormEntropy(counts []int64, slots int) float64 {
	if slots <= 1 {
		return 0
	}
	return Entropy(counts) / math.Log2(float64(slots))
}

// Frac is n/d, or 0 when d is 0.
func Frac(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Or returns v, or def when v is zero: a zero threshold selects its
// default.
func Or(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// Regression is one gated finding from a lens Diff.
type Regression struct {
	Dimension string  `json:"dimension"`
	Detail    string  `json:"detail"`
	Base      float64 `json:"base"`
	Cur       float64 `json:"cur"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%-12s %s (base %.3g, cur %.3g)", r.Dimension, r.Detail, r.Base, r.Cur)
}

// Drop is the drops-only gate: it appends a finding when a metric with a
// positive baseline fell by more than abs (absolute points). A rise never
// gates, and neither does a NaN current value.
func Drop(regs []Regression, dim, what string, base, cur, abs float64) []Regression {
	if base > 0 && base-cur > abs && !math.IsNaN(cur) {
		regs = append(regs, Regression{
			Dimension: dim,
			Detail:    fmt.Sprintf("%s dropped %.1f points", what, (base-cur)*100),
			Base:      base,
			Cur:       cur,
		})
	}
	return regs
}

// WriteFile writes v as indented JSON.
func WriteFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a P written by WriteFile; pkg prefixes a parse error. A
// JSON null is an error, not an empty profile, and so is a field P does
// not have: another lens's profile or a bench report is not a P.
func ReadFile[P any](path, pkg string) (*P, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var p *P
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("%s: parse %s: %w", pkg, path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%s: parse %s: data after the profile", pkg, path)
	}
	if p == nil {
		return nil, fmt.Errorf("%s: %s holds no profile (JSON null)", pkg, path)
	}
	return p, nil
}

// WriteHead opens a self-contained HTML report in b: the page head with
// the shared stylesheet, then title as the heading. warn adds the style of
// the ledger-truncation warnings.
func WriteHead(b *strings.Builder, title string, warn bool) {
	t := html.EscapeString(title)
	fmt.Fprintf(b, "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n<title>%s</title>\n", t)
	b.WriteString(`<style>
body { font-family: system-ui, sans-serif; margin: 2em auto; max-width: 780px; color: #222; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #ddd; padding: 4px 10px; text-align: right; font-size: 13px; }
th:first-child, td:first-child { text-align: left; }
svg.chart { display: block; margin: 1em 0; }
.note { color: #666; font-size: 12px; }
`)
	if warn {
		b.WriteString(".warn { color: #b33; font-size: 13px; font-weight: bold; }\n")
	}
	fmt.Fprintf(b, "</style></head><body>\n<h1>%s</h1>\n", t)
}

// WriteHistSVG renders one log2 histogram as a bar chart (bucket upper
// bounds on the x axis); an empty histogram renders nothing.
func WriteHistSVG(w io.Writer, title string, h Histo) error {
	if h.Count == 0 {
		return nil
	}
	labels := make([]string, len(h.Buckets))
	vals := make([]float64, len(h.Buckets))
	for i, bk := range h.Buckets {
		labels[i] = fmt.Sprintf("≤%d", bk.Le)
		vals[i] = float64(bk.Count)
	}
	return WriteBarChartSVG(w, fmt.Sprintf("%s — mean %.0f over %d", title, h.Mean, h.Count), labels,
		[]ChartSeries{{Name: "count", Color: "#4878a8", Values: vals}}, nil)
}
