package schedlens

import (
	"fmt"
	"html"
	"io"
	"strings"

	"caps/internal/lens"
)

// WriteText renders the profile as an aligned terminal report.
func (p *Profile) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "sched profile: %s", p.Meta.Bench)
	if p.Meta.Prefetcher != "" {
		fmt.Fprintf(&b, " / %s", p.Meta.Prefetcher)
	}
	if p.Meta.Scheduler != "" {
		fmt.Fprintf(&b, " / %s", p.Meta.Scheduler)
	}
	fmt.Fprintf(&b, "  (%d cycles)\n", p.Meta.Cycles)

	tl := &p.Timelines
	fmt.Fprintf(&b, "  cta timelines: %d launched, %d retired, balance %.2f over %d SMs\n",
		tl.Launches, tl.Retires, tl.Balance, len(tl.PerSMRetires))
	fmt.Fprintf(&b, "    launch→first-issue mean %.0f cy (p90≤%d), launch→base-ready mean %.0f cy, lifetime mean %.0f cy (p90≤%d)\n",
		tl.LaunchToFirstIssue.Mean, tl.LaunchToFirstIssue.Percentile(0.90),
		tl.LaunchToBaseReady.Mean, tl.Lifetime.Mean, tl.Lifetime.Percentile(0.90))
	if tl.Retires > 0 {
		fmt.Fprintf(&b, "    tail: cta %d on SM %d retired last at cycle %d, %d cycles after the rest\n",
			tl.TailCTA, tl.TailSM, tl.LastRetire, tl.TailCycles)
	}
	if tl.TruncatedCTAs > 0 {
		fmt.Fprintf(&b, "    WARNING: %d CTA launches untracked for timelines (ledger cap %d); phase tallies stay exact\n",
			tl.TruncatedCTAs, maxCTAs)
	}

	pk := &p.Picks
	fmt.Fprintf(&b, "  scheduler decisions (%s): %d promotes, %d demotes, %d wakeups\n",
		pk.Scheduler, pk.Promotes, pk.Demotes, pk.Wakeups)
	for _, o := range pk.Outcomes {
		fmt.Fprintf(&b, "    %-18s %10d\n", o.Name, o.Count)
	}
	if pk.LeadingPromotedFrac > 0 {
		fmt.Fprintf(&b, "    leading-warp promotion taken on %.1f%% of leading refills\n", pk.LeadingPromotedFrac*100)
	}

	tb := &p.Table
	if len(tb.Ops) > 0 {
		fmt.Fprintf(&b, "  cap/dist tables: DIST hit rate %.1f%%, CAP hit rate %.1f%%, verify-bad rate %.1f%%\n",
			tb.DistHitRate*100, tb.CTAHitRate*100, tb.VerifyBadRate*100)
		for _, o := range tb.Ops {
			fmt.Fprintf(&b, "    %-18s %10d\n", o.Name, o.Count)
		}
		fmt.Fprintf(&b, "    mispredict streaks: max %d, mean %.1f over %d closed; CAP occupancy mean %.1f (p90≤%d)\n",
			tb.MaxMispredictStreak, tb.MispredictStreaks.Mean, tb.MispredictStreaks.Count,
			tb.CAPOccupancy.Mean, tb.CAPOccupancy.Percentile(0.90))
	}

	lw := &p.LeadingWarp
	if lw.Candidates > 0 {
		fmt.Fprintf(&b, "  leading warp: %d candidates, %d anchored (%d by leading warp, %d re-anchored), effectiveness %.1f%%\n",
			lw.Candidates, lw.Anchored, lw.SeededByLeading, lw.Reanchored, lw.Effectiveness*100)
		fmt.Fprintf(&b, "    %.1f%% of launched CTAs established a θ/Δ base\n", lw.BaseReadyFrac*100)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteHTML renders the profile as a self-contained HTML report with
// inline SVG charts, including the per-CTA lifetime timelines.
func (p *Profile) WriteHTML(w io.Writer) error {
	var b strings.Builder
	lens.WriteHead(&b, "capsprof sched: "+p.Meta.Bench, true)
	fmt.Fprintf(&b, "<p class=\"note\">%s · %s · %d cycles</p>\n",
		html.EscapeString(p.Meta.Prefetcher), html.EscapeString(p.Meta.Scheduler), p.Meta.Cycles)

	// CTA timelines.
	tl := &p.Timelines
	b.WriteString("<h2>CTA lifetime timelines</h2>\n")
	fmt.Fprintf(&b, "<p>%d CTAs launched, %d retired; per-SM retire balance %.2f (1.0 = perfectly even).</p>\n",
		tl.Launches, tl.Retires, tl.Balance)
	if tl.Retires > 0 {
		fmt.Fprintf(&b, "<p>tail: CTA %d on SM %d retired last at cycle %d, %d cycles after every other CTA.</p>\n",
			tl.TailCTA, tl.TailSM, tl.LastRetire, tl.TailCycles)
	}
	writeTimelineSVG(&b, tl.CTAs, p.Meta.Cycles)
	if tl.OmittedCTAs > 0 {
		fmt.Fprintf(&b, "<p class=\"note\">%d later-launched CTAs tracked but omitted from the chart (export cap %d).</p>\n",
			tl.OmittedCTAs, maxExportCTAs)
	}
	if tl.TruncatedCTAs > 0 {
		fmt.Fprintf(&b, "<p class=\"warn\">⚠ %d CTA launches untracked for timelines (ledger cap %d); phase tallies stay exact</p>\n",
			tl.TruncatedCTAs, maxCTAs)
	}
	for _, h := range []struct {
		name string
		h    lens.Histo
	}{
		{"launch→first-issue latency (cycles)", tl.LaunchToFirstIssue},
		{"launch→base-ready latency (cycles)", tl.LaunchToBaseReady},
		{"drain→retire tail (cycles)", tl.DrainToRetire},
		{"CTA lifetime (cycles)", tl.Lifetime},
	} {
		if err := lens.WriteHistSVG(&b, h.name, h.h); err != nil {
			return err
		}
	}

	// Scheduler decisions.
	pk := &p.Picks
	b.WriteString("<h2>Scheduler decision provenance</h2>\n")
	fmt.Fprintf(&b, "<p>%s: %d promotes, %d demotes, %d wakeups; leading-warp promotion taken on %.1f%% of leading refills.</p>\n",
		html.EscapeString(pk.Scheduler), pk.Promotes, pk.Demotes, pk.Wakeups, pk.LeadingPromotedFrac*100)
	if len(pk.Outcomes) > 0 {
		if err := writeCountsSVG(&b, "decision outcomes", pk.Outcomes); err != nil {
			return err
		}
	}

	// Table dynamics.
	tb := &p.Table
	if len(tb.Ops) > 0 {
		b.WriteString("<h2>CAP/DIST table dynamics</h2>\n")
		fmt.Fprintf(&b, "<p>DIST hit rate %.1f%%, CAP hit rate %.1f%%, verify-bad rate %.1f%%; max mispredict streak %d; CAP occupancy mean %.1f.</p>\n",
			tb.DistHitRate*100, tb.CTAHitRate*100, tb.VerifyBadRate*100,
			tb.MaxMispredictStreak, tb.CAPOccupancy.Mean)
		if err := writeCountsSVG(&b, "table operations", tb.Ops); err != nil {
			return err
		}
		if err := lens.WriteHistSVG(&b, "mispredict streak length", tb.MispredictStreaks); err != nil {
			return err
		}
		if err := lens.WriteHistSVG(&b, "CAP occupancy at mutation", tb.CAPOccupancy); err != nil {
			return err
		}
	}

	// Leading-warp effectiveness.
	lw := &p.LeadingWarp
	if lw.Candidates > 0 {
		b.WriteString("<h2>Leading-warp effectiveness</h2>\n")
		fmt.Fprintf(&b, "<p>%d prefetch candidates; %d anchored — %d (%.1f%%) seeded by the designated leading warp, %d re-anchored by trailing warps. %.1f%% of launched CTAs established a θ/Δ base.</p>\n",
			lw.Candidates, lw.Anchored, lw.SeededByLeading, lw.Effectiveness*100, lw.Reanchored, lw.BaseReadyFrac*100)
		if lw.Anchored > 0 {
			if err := lens.WriteBarChartSVG(&b, "θ/Δ seed attribution", []string{"leading warp", "re-anchor"},
				[]lens.ChartSeries{{Name: "candidates", Color: "#4878a8",
					Values: []float64{float64(lw.SeededByLeading), float64(lw.Reanchored)}}}, nil); err != nil {
				return err
			}
		}
	}

	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// timelineRows caps the CTA-timeline chart height.
const timelineRows = 64

// writeTimelineSVG renders the tracked CTA lifetimes as horizontal span
// bars: launch→first-issue (queued, light), first-issue→drain (running),
// drain→retire (draining, dark), with a tick at the base-ready cycle.
func writeTimelineSVG(b *strings.Builder, ctas []CTATimeline, cycles int64) {
	if len(ctas) == 0 {
		return
	}
	rows := ctas
	if len(rows) > timelineRows {
		rows = rows[:timelineRows]
	}
	var span int64 = cycles
	for _, r := range rows {
		if r.Retire > span {
			span = r.Retire
		}
	}
	if span <= 0 {
		return
	}
	const (
		width  = 720.0
		left   = 60.0
		rowH   = 8.0
		rowGap = 2.0
		topPad = 18.0
	)
	x := func(cy int64) float64 {
		if cy < 0 {
			cy = span
		}
		return left + (width-left)*float64(cy)/float64(span)
	}
	h := topPad + float64(len(rows))*(rowH+rowGap) + 6
	fmt.Fprintf(b, "<svg class=\"chart\" width=\"%g\" height=\"%g\" viewBox=\"0 0 %g %g\" xmlns=\"http://www.w3.org/2000/svg\">\n",
		width, h, width, h)
	fmt.Fprintf(b, "<text x=\"0\" y=\"12\" font-size=\"12\">CTA timelines (first %d by launch; x = cycle 0…%d)</text>\n", len(rows), span)
	for i, r := range rows {
		y := topPad + float64(i)*(rowH+rowGap)
		end := r.Retire
		if end < 0 {
			end = span // still resident at run end
		}
		fmt.Fprintf(b, "<text x=\"0\" y=\"%g\" font-size=\"7\" fill=\"#666\">s%d c%d</text>\n", y+rowH-1, r.SM, r.CTA)
		seg := func(from, to int64, color string) {
			if from < 0 || to < from {
				return
			}
			w := x(to) - x(from)
			if w < 0.5 {
				w = 0.5
			}
			fmt.Fprintf(b, "<rect x=\"%.1f\" y=\"%g\" width=\"%.1f\" height=\"%g\" fill=\"%s\"/>\n",
				x(from), y, w, rowH, color)
		}
		if r.FirstIssue >= 0 {
			seg(r.Launch, r.FirstIssue, "#c9d7e8")
			if r.Drain >= 0 {
				seg(r.FirstIssue, r.Drain, "#4878a8")
				seg(r.Drain, end, "#2a4a6a")
			} else {
				seg(r.FirstIssue, end, "#4878a8")
			}
		} else {
			seg(r.Launch, end, "#c9d7e8")
		}
		if r.BaseReady >= 0 {
			fmt.Fprintf(b, "<rect x=\"%.1f\" y=\"%g\" width=\"1.5\" height=\"%g\" fill=\"#c44e52\"/>\n",
				x(r.BaseReady), y-1, rowH+2)
		}
	}
	b.WriteString("</svg>\n")
	b.WriteString("<p class=\"note\">light: launched, not yet issued · blue: running · dark: draining · red tick: leading warp's θ/Δ base established.</p>\n")
}

// writeCountsSVG renders named counts as a bar chart.
func writeCountsSVG(b *strings.Builder, title string, counts []OutcomeCount) error {
	labels := make([]string, len(counts))
	vals := make([]float64, len(counts))
	for i, c := range counts {
		labels[i] = c.Name
		vals[i] = float64(c.Count)
	}
	return lens.WriteBarChartSVG(b, title, labels,
		[]lens.ChartSeries{{Name: "count", Color: "#4878a8", Values: vals}}, nil)
}
