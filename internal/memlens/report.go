package memlens

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
	fmt.Fprintf(&b, "mem profile: %s", p.Meta.Bench)
	if p.Meta.Prefetcher != "" {
		fmt.Fprintf(&b, " / %s", p.Meta.Prefetcher)
	}
	fmt.Fprintf(&b, "  (%d cycles)\n", p.Meta.Cycles)

	a := &p.AddrStructure
	fmt.Fprintf(&b, "  address structure: %.1f%% of warp addresses explained by θ(CTA) + Δ·warpInCTA, %.1f%% indirect, %d load PCs\n",
		a.ExplainedFrac*100, a.IndirectFrac*100, len(a.PCs))
	for _, pc := range a.PCs {
		fmt.Fprintf(&b, "    pc %#06x: %8d obs  Δ=%-6d explained %5.1f%%  indirect %5.1f%%  residual-entropy %.2f bits\n",
			pc.PC, pc.Observations, pc.Delta, pc.ExplainedFrac*100,
			lens.Frac(pc.Indirect, pc.Observations)*100, pc.ResidualEntropy)
	}
	if a.TruncatedPCs > 0 {
		fmt.Fprintf(&b, "    WARNING: %d load-PC observations dropped (ledger cap %d)\n", a.TruncatedPCs, maxPCs)
	}

	t := &p.Timeliness
	fmt.Fprintf(&b, "  prefetch timeliness: %d admits, %d fills, %d accurate, %d late, %d early-evict, %d useless\n",
		t.Admits, t.Fills, t.Consumes, t.Lates, t.EarlyEvicts, t.Useless)
	fmt.Fprintf(&b, "    issue→fill mean %.0f cy (p50≤%d p99≤%d), fill→use mean %.0f cy, issue→use mean %.0f cy\n",
		t.IssueToFill.Mean, t.IssueToFill.Percentile(0.50), t.IssueToFill.Percentile(0.99),
		t.FillToUse.Mean, t.IssueToUse.Mean)
	if t.TruncatedLines > 0 {
		fmt.Fprintf(&b, "    WARNING: %d prefetch admits untracked for latency (in-flight cap %d); counters stay exact\n",
			t.TruncatedLines, maxInPref)
	}

	for _, r := range p.Reuse {
		fmt.Fprintf(&b, "  %s reuse: %d accesses, %d sampled, %d reused (%.1f%%), mean interval %.0f accesses (p50≤%d p90≤%d)\n",
			r.Level, r.Accesses, r.Sampled, r.Reused, lens.Frac(r.Reused, r.Sampled)*100,
			r.Hist.Mean, r.Hist.Percentile(0.50), r.Hist.Percentile(0.90))
		if r.Truncated > 0 {
			fmt.Fprintf(&b, "    WARNING: %d reuse samples skipped (tracking cap %d)\n", r.Truncated, maxTracked)
		}
	}

	l := &p.Locality
	fmt.Fprintf(&b, "  dram: row-buffer hit rate %.1f%% (%d hits / %d misses), bank spread %.2f over %d active banks\n",
		l.RowHitRate*100, l.RowHits, l.RowMisses, l.BankSpread, len(l.Banks))
	for _, q := range l.Queues {
		fmt.Fprintf(&b, "    queue %-12s mean %6.1f  p50≤%-4d p90≤%-4d p99≤%-4d (%d samples)\n",
			q.Queue, q.Mean, q.P50, q.P90, q.P99, q.Samples)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteHTML renders the profile as a self-contained HTML report with
// inline SVG charts.
func (p *Profile) WriteHTML(w io.Writer) error {
	var b strings.Builder
	lens.WriteHead(&b, "capsprof mem: "+p.Meta.Bench, true)
	fmt.Fprintf(&b, "<p class=\"note\">%s · %d cycles</p>\n", html.EscapeString(p.Meta.Prefetcher), p.Meta.Cycles)

	// Address structure.
	a := &p.AddrStructure
	b.WriteString("<h2>Address structure (θ/Δ decomposition)</h2>\n")
	fmt.Fprintf(&b, "<p>%.1f%% of testable warp addresses explained by θ(CTA) + Δ·warpInCTA; %.1f%% of loads indirect.</p>\n",
		a.ExplainedFrac*100, a.IndirectFrac*100)
	if len(a.PCs) > 0 {
		labels := make([]string, len(a.PCs))
		expl := make([]float64, len(a.PCs))
		ind := make([]float64, len(a.PCs))
		b.WriteString("<table><tr><th>pc</th><th>obs</th><th>Δ (bytes)</th><th>explained</th><th>indirect</th><th>residual entropy</th></tr>\n")
		for i, pc := range a.PCs {
			labels[i] = fmt.Sprintf("%#x", pc.PC)
			expl[i] = pc.ExplainedFrac * 100
			ind[i] = lens.Frac(pc.Indirect, pc.Observations) * 100
			fmt.Fprintf(&b, "<tr><td>%#06x</td><td>%d</td><td>%d</td><td>%.1f%%</td><td>%.1f%%</td><td>%.2f bits</td></tr>\n",
				pc.PC, pc.Observations, pc.Delta, expl[i], ind[i], pc.ResidualEntropy)
		}
		b.WriteString("</table>\n")
		if err := lens.WriteBarChartSVG(&b, "per-PC affine explainability (%)", labels,
			[]lens.ChartSeries{
				{Name: "explained", Color: "#55a868", Values: expl},
				{Name: "indirect", Color: "#c44e52", Values: ind},
			}, nil); err != nil {
			return err
		}
	}
	if a.TruncatedPCs > 0 {
		fmt.Fprintf(&b, "<p class=\"warn\">⚠ %d load-PC observations dropped (ledger cap %d)</p>\n", a.TruncatedPCs, maxPCs)
	}

	// Timeliness.
	t := &p.Timeliness
	b.WriteString("<h2>Prefetch timeliness</h2>\n")
	b.WriteString("<table><tr><th>outcome</th><th>count</th></tr>\n")
	for _, row := range []struct {
		name string
		n    int64
	}{
		{"admitted to memory", t.Admits},
		{"filled into L1", t.Fills},
		{"accurate (used after fill)", t.Consumes},
		{"late (demand merged in flight)", t.Lates},
		{"early evict (unused)", t.EarlyEvicts},
		{"useless (resident, never used)", t.Useless},
	} {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td></tr>\n", row.name, row.n)
	}
	b.WriteString("</table>\n")
	for _, h := range []struct {
		name string
		h    lens.Histo
	}{
		{"issue→fill latency (cycles)", t.IssueToFill},
		{"fill→first-use latency (cycles)", t.FillToUse},
		{"issue→first-use distance (cycles)", t.IssueToUse},
	} {
		if err := lens.WriteHistSVG(&b, h.name, h.h); err != nil {
			return err
		}
	}
	if t.TruncatedLines > 0 {
		fmt.Fprintf(&b, "<p class=\"warn\">⚠ %d prefetch admits untracked for latency histograms (in-flight cap %d); outcome counters stay exact</p>\n",
			t.TruncatedLines, maxInPref)
	}

	// Reuse.
	b.WriteString("<h2>Reuse distance</h2>\n")
	for _, r := range p.Reuse {
		fmt.Fprintf(&b, "<p>%s: %d accesses, %d sampled (every %dth untracked line), %d reused (%.1f%%).</p>\n",
			html.EscapeString(r.Level), r.Accesses, r.Sampled, int64(reuseSampleEvery), r.Reused, lens.Frac(r.Reused, r.Sampled)*100)
		if err := lens.WriteHistSVG(&b, r.Level+" reuse interval (accesses between touches)", r.Hist); err != nil {
			return err
		}
		if r.Truncated > 0 {
			fmt.Fprintf(&b, "<p class=\"warn\">⚠ %d reuse samples skipped (tracking cap %d)</p>\n", r.Truncated, maxTracked)
		}
	}

	// Locality.
	l := &p.Locality
	b.WriteString("<h2>DRAM &amp; interconnect locality</h2>\n")
	fmt.Fprintf(&b, "<p>row-buffer hit rate %.1f%% (%d hits, %d misses); bank spread %.2f (1.0 = perfectly even).</p>\n",
		l.RowHitRate*100, l.RowHits, l.RowMisses, l.BankSpread)
	if len(l.Banks) > 0 {
		labels := make([]string, len(l.Banks))
		hits := make([]float64, len(l.Banks))
		misses := make([]float64, len(l.Banks))
		for i, bk := range l.Banks {
			labels[i] = fmt.Sprintf("c%db%d", bk.Channel, bk.Bank)
			hits[i] = float64(bk.Hits)
			misses[i] = float64(bk.Misses)
		}
		if err := lens.WriteBarChartSVG(&b, "row-buffer outcomes per bank", labels,
			[]lens.ChartSeries{
				{Name: "hits", Color: "#55a868", Values: hits},
				{Name: "misses", Color: "#c44e52", Values: misses},
			}, nil); err != nil {
			return err
		}
	}
	if len(l.Queues) > 0 {
		b.WriteString("<table><tr><th>queue</th><th>samples</th><th>mean</th><th>p50</th><th>p90</th><th>p99</th></tr>\n")
		for _, q := range l.Queues {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%.1f</td><td>≤%d</td><td>≤%d</td><td>≤%d</td></tr>\n",
				html.EscapeString(q.Queue), q.Samples, q.Mean, q.P50, q.P90, q.P99)
		}
		b.WriteString("</table>\n")
		b.WriteString("<p class=\"note\">queue depths sampled at the progress beat; percentiles are log2-bucket upper bounds.</p>\n")
	}

	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
