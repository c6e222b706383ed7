package profile

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"

	"caps/internal/obs"
)

// classColors gives each stall-stack bucket a fixed color across reports
// (issue green, memory causes warm, idle gray).
var classColors = [obs.NumCycleClasses]string{
	obs.CycleIssue:         "#4caf50",
	obs.CycleMemStructural: "#e53935",
	obs.CycleBarrier:       "#ffb300",
	obs.CycleEmptyReady:    "#fb8c00",
	obs.CycleDrain:         "#90a4ae",
	obs.CycleIdle:          "#cfd8dc",
}

// topPCs is how many load PCs WriteText lists.
const topPCs = 5

// WriteText renders a terminal summary: the headline metrics, the
// machine-wide stall stack as shares of SM cycles, and the load PCs with
// the most prefetch candidates.
func (p *Profile) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "stall profile: %s / %s / %s  (%d cycles, %d SMs)\n",
		p.Meta.Bench, p.Meta.Prefetcher, p.Meta.Scheduler, p.TotalCycles, len(p.SMs))
	fmt.Fprintf(&b, "  IPC %.4f over %d instructions; prefetch coverage %.1f%%, accuracy %.1f%%, early-evict %.1f%%, mean distance %.0f cy\n",
		p.IPC, p.Instructions, p.Coverage*100, p.Accuracy*100, p.EarlyEvictRatio*100, p.MeanDistance)
	b.WriteString("  stall stack (share of SM cycles):\n")
	for c := obs.CycleClass(0); c < obs.NumCycleClasses; c++ {
		name := c.String()
		fmt.Fprintf(&b, "    %-16s %12d  %5.1f%%\n", name, p.StallStack[name], stallShare(p, name)*100)
	}
	pcs := append([]PCEntry(nil), p.PCs...)
	sort.SliceStable(pcs, func(i, j int) bool { return pcs[i].Candidates > pcs[j].Candidates })
	if len(pcs) > topPCs {
		pcs = pcs[:topPCs]
	}
	fmt.Fprintf(&b, "  top load PCs by prefetch candidates (%d of %d):\n", len(pcs), len(p.PCs))
	for _, e := range pcs {
		fmt.Fprintf(&b, "    pc %#06x: %8d candidates  %8d admits  %8d consumes  accuracy %5.1f%%  mean distance %.0f cy\n",
			e.PC, e.Candidates, e.Admits, e.Consumes, e.Accuracy*100, e.MeanDistance)
	}
	if p.TruncatedPCs > 0 || p.TruncatedCTAs > 0 {
		fmt.Fprintf(&b, "  WARNING: ledger cap reached — %d PC and %d CTA events uncounted\n", p.TruncatedPCs, p.TruncatedCTAs)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteHTML renders a self-contained report: headline metrics, an SVG
// stall stack per SM (plus the machine aggregate), and the per-PC prefetch
// ledger table. No external assets, so the file can be archived with run
// results and opened anywhere.
func (p *Profile) WriteHTML(w io.Writer) error {
	var b strings.Builder
	title := fmt.Sprintf("capsprof — %s / %s / %s", p.Meta.Bench, p.Meta.Prefetcher, p.Meta.Scheduler)
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>")
	b.WriteString(html.EscapeString(title))
	b.WriteString(`</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 70em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; width: 100%; }
th, td { border: 1px solid #ddd; padding: 0.3em 0.6em; text-align: right; }
th { background: #f5f5f5; } td:first-child, th:first-child { text-align: left; }
.warn { color: #b33; background: #fdecea; padding: 0.4em 0.8em; border-left: 3px solid #b33; }
.legend span { display: inline-block; margin-right: 1.2em; }
.legend i { display: inline-block; width: 0.9em; height: 0.9em; margin-right: 0.3em; vertical-align: -0.1em; }
.stack { margin: 0.2em 0; }
.stack text { font: 11px system-ui, sans-serif; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(title))

	b.WriteString("<h2>Headline metrics</h2>\n<table><tr><th>metric</th><th>value</th></tr>\n")
	rows := []struct {
		name string
		val  string
	}{
		{"cycles", fmt.Sprintf("%d", p.TotalCycles)},
		{"instructions", fmt.Sprintf("%d", p.Instructions)},
		{"IPC", fmt.Sprintf("%.4f", p.IPC)},
		{"prefetch coverage", fmt.Sprintf("%.4f", p.Coverage)},
		{"prefetch accuracy", fmt.Sprintf("%.4f", p.Accuracy)},
		{"early-evict ratio", fmt.Sprintf("%.4f", p.EarlyEvictRatio)},
		{"mean prefetch distance (cycles)", fmt.Sprintf("%.1f", p.MeanDistance)},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td></tr>\n", html.EscapeString(r.name), r.val)
	}
	b.WriteString("</table>\n")

	b.WriteString("<h2>Stall-cycle stacks</h2>\n<div class=\"legend\">")
	for c := obs.CycleClass(0); c < obs.NumCycleClasses; c++ {
		fmt.Fprintf(&b, `<span><i style="background:%s"></i>%s</span>`, classColors[c], html.EscapeString(c.String()))
	}
	b.WriteString("</div>\n")

	writeStackSVG(&b, "all SMs", p.StallStack, p.TotalCycles*int64(max(len(p.SMs), 1)))
	for _, sm := range p.SMs {
		writeStackSVG(&b, fmt.Sprintf("SM %d", sm.SM), sm.Classes, p.TotalCycles)
	}

	b.WriteString("<h2>Per-PC prefetch ledger</h2>\n")
	if len(p.PCs) == 0 {
		b.WriteString("<p>No prefetch activity recorded.</p>\n")
	} else {
		b.WriteString("<table><tr><th>PC</th><th>candidates</th><th>admits</th><th>fills</th><th>consumes</th><th>lates</th><th>early evicts</th><th>accuracy</th><th>mean dist</th><th>drops</th></tr>\n")
		for _, e := range p.PCs {
			fmt.Fprintf(&b, "<tr><td>%#x</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%.3f</td><td>%.1f</td><td style=\"text-align:left\">%s</td></tr>\n",
				e.PC, e.Candidates, e.Admits, e.Fills, e.Consumes, e.Lates, e.EarlyEvicts, e.Accuracy, e.MeanDistance,
				html.EscapeString(dropSummary(e.Drops)))
		}
		b.WriteString("</table>\n")
	}
	if p.TruncatedPCs > 0 || p.TruncatedCTAs > 0 {
		fmt.Fprintf(&b, "<p class=\"warn\">WARNING: ledger cap reached — %d PC and %d CTA events uncounted; per-PC/per-CTA rows above understate activity (headline metrics are unaffected).</p>\n",
			p.TruncatedPCs, p.TruncatedCTAs)
	}

	if len(p.CTAs) > 0 {
		b.WriteString("<h2>Per-CTA prefetch ledger</h2>\n<table><tr><th>CTA</th><th>candidates</th><th>admits</th><th>consumes</th><th>accuracy</th><th>drops</th></tr>\n")
		for _, e := range p.CTAs {
			fmt.Fprintf(&b, "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%.3f</td><td style=\"text-align:left\">%s</td></tr>\n",
				e.CTA, e.Candidates, e.Admits, e.Consumes, e.Accuracy, html.EscapeString(dropSummary(e.Drops)))
		}
		b.WriteString("</table>\n")
	}

	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeStackSVG draws one horizontal stacked bar; total scales the bar so
// every SM renders on the same axis.
func writeStackSVG(b *strings.Builder, label string, classes map[string]int64, total int64) {
	const width, height, labelW = 640.0, 22, 80
	fmt.Fprintf(b, `<svg class="stack" width="%d" height="%d" role="img" aria-label="%s stall stack">`,
		int(width)+labelW, height, html.EscapeString(label))
	fmt.Fprintf(b, `<text x="0" y="15">%s</text>`, html.EscapeString(label))
	if total > 0 {
		x := float64(labelW)
		for c := obs.CycleClass(0); c < obs.NumCycleClasses; c++ {
			n := classes[c.String()]
			if n == 0 {
				continue
			}
			wpx := width * float64(n) / float64(total)
			fmt.Fprintf(b, `<rect x="%.1f" y="2" width="%.1f" height="%d" fill="%s"><title>%s: %d cycles (%.1f%%)</title></rect>`,
				x, wpx, height-4, classColors[c], html.EscapeString(c.String()), n, 100*float64(n)/float64(total))
			x += wpx
		}
	}
	b.WriteString("</svg>\n")
}

// dropSummary renders the non-zero drop reasons compactly, in canonical
// reason order.
func dropSummary(drops map[string]int64) string {
	if len(drops) == 0 {
		return "—"
	}
	var parts []string
	for r := 0; r < obs.NumDropReasons; r++ {
		name := obs.DropReason(r).String()
		if n := drops[name]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", name, n))
		}
	}
	return strings.Join(parts, " ")
}
