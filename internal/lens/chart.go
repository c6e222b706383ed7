package lens

import (
	"fmt"
	"html"
	"io"
	"math"
	"strings"
)

// ChartSeries is one bar group in a grouped bar chart: Values aligns with
// the chart's label axis; NaN marks a missing value (no bar drawn).
type ChartSeries struct {
	Name   string
	Color  string
	Values []float64
}

// RefLine is a dashed horizontal reference line (e.g. a paper-reported
// mean) drawn across the full chart width.
type RefLine struct {
	Name  string
	Color string
	Value float64
}

// WriteBarChartSVG renders a self-contained grouped bar chart as inline
// SVG: one bar cluster per label, one bar per series, optional dashed
// reference lines, a legend, and a y axis auto-scaled to the data. The
// output embeds directly into HTML reports and dashboards (no external
// assets), in the same style as the capsprof stall-stack SVGs.
func WriteBarChartSVG(w io.Writer, title string, labels []string, series []ChartSeries, refs []RefLine) error {
	const (
		width    = 720.0
		height   = 260.0
		left     = 48.0 // y-axis gutter
		bottom   = 36.0 // x labels
		top      = 26.0 // title
		plotH    = height - top - bottom
		maxTicks = 5
	)
	for _, s := range series {
		if len(s.Values) != len(labels) {
			return fmt.Errorf("profile: series %q has %d values for %d labels", s.Name, len(s.Values), len(labels))
		}
	}

	// Scale to the data (and reference lines), zero-based.
	maxV := 0.0
	for _, s := range series {
		for _, v := range s.Values {
			if !math.IsNaN(v) && v > maxV {
				maxV = v
			}
		}
	}
	for _, r := range refs {
		if r.Value > maxV {
			maxV = r.Value
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	maxV *= 1.08 // headroom so the tallest bar never touches the title

	var b strings.Builder
	legendH := 18
	fmt.Fprintf(&b, `<svg class="chart" width="%d" height="%d" role="img" aria-label="%s">`,
		int(width), int(height)+legendH, html.EscapeString(title))
	fmt.Fprintf(&b, `<text x="%f" y="16" font-weight="bold">%s</text>`, left, html.EscapeString(title))

	y := func(v float64) float64 { return top + plotH*(1-v/maxV) }

	// Gridlines and y-axis ticks.
	step := niceStep(maxV, maxTicks)
	for v := 0.0; v <= maxV; v += step {
		fmt.Fprintf(&b, `<line x1="%f" y1="%f" x2="%f" y2="%f" stroke="#eee"/>`, left, y(v), width, y(v))
		fmt.Fprintf(&b, `<text x="%f" y="%f" text-anchor="end" font-size="10" fill="#666">%s</text>`,
			left-4, y(v)+3, trimFloat(v))
	}
	fmt.Fprintf(&b, `<line x1="%f" y1="%f" x2="%f" y2="%f" stroke="#999"/>`, left, top, left, top+plotH)
	fmt.Fprintf(&b, `<line x1="%f" y1="%f" x2="%f" y2="%f" stroke="#999"/>`, left, top+plotH, width, top+plotH)

	// Bars: one cluster per label.
	if len(labels) > 0 {
		cluster := (width - left) / float64(len(labels))
		barW := cluster * 0.8 / float64(max(len(series), 1))
		for li, lab := range labels {
			x0 := left + cluster*float64(li) + cluster*0.1
			for si, s := range series {
				v := s.Values[li]
				if math.IsNaN(v) {
					continue
				}
				h := plotH * v / maxV
				fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s %s: %.4f</title></rect>`,
					x0+barW*float64(si), y(v), barW, h, s.Color,
					html.EscapeString(lab), html.EscapeString(s.Name), v)
			}
			fmt.Fprintf(&b, `<text x="%.1f" y="%f" text-anchor="middle" font-size="10">%s</text>`,
				x0+cluster*0.4, top+plotH+14, html.EscapeString(lab))
		}
	}

	// Reference lines over the bars.
	for _, r := range refs {
		fmt.Fprintf(&b, `<line x1="%f" y1="%f" x2="%f" y2="%f" stroke="%s" stroke-dasharray="6 3"><title>%s: %.4f</title></line>`,
			left, y(r.Value), width, y(r.Value), r.Color, html.EscapeString(r.Name), r.Value)
	}

	// Legend row under the plot.
	x := left
	for _, s := range series {
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="10" height="10" fill="%s"/>`, x, int(height)+3, s.Color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11">%s</text>`, x+14, int(height)+12, html.EscapeString(s.Name))
		x += 18 + 7*float64(len(s.Name)) + 16
	}
	for _, r := range refs {
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="%s" stroke-dasharray="6 3"/>`,
			x, int(height)+8, x+14, int(height)+8, r.Color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11">%s</text>`, x+18, int(height)+12, html.EscapeString(r.Name))
		x += 22 + 7*float64(len(r.Name)) + 16
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// niceStep picks a 1/2/5×10^k gridline step yielding at most maxTicks
// lines.
func niceStep(maxV float64, maxTicks int) float64 {
	raw := maxV / float64(maxTicks)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	for _, m := range []float64{1, 2, 5, 10} {
		if mag*m >= raw {
			return mag * m
		}
	}
	return mag * 10
}

// trimFloat formats a tick value without trailing zero noise.
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
