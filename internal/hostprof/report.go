package hostprof

import (
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"

	"caps/internal/lens"
	"caps/internal/profile"
)

// WriteText renders the profile as an aligned terminal report.
func (pr *Profile) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "host profile: %s", pr.Bench)
	if pr.Prefetcher != "" {
		fmt.Fprintf(&b, " / %s", pr.Prefetcher)
	}
	b.WriteByte('\n')
	c := pr.Host
	fmt.Fprintf(&b, "  host: %s %s/%s, %d cpus, GOMAXPROCS %d, workers %d, idle-skip %v\n",
		c.GoVersion, c.GOOS, c.GOARCH, c.NumCPU, c.GOMAXPROCS, c.Workers, c.IdleSkip)
	fmt.Fprintf(&b, "  wall %.2fms over %d steps (%d sampled, every %d)\n",
		float64(pr.WallNS)/1e6, pr.Steps, pr.SampledSteps, pr.SampleEvery)
	if pr.OutlierSteps > 0 {
		fmt.Fprintf(&b, "  %d sampled steps over the %.0fms outlier bound left out of the extrapolation (%.2fms)\n",
			pr.OutlierSteps, float64(OutlierStepNS)/1e6, float64(pr.OutlierNS)/1e6)
	}

	b.WriteString("  phases:\n")
	for _, ph := range pr.Phases {
		fmt.Fprintf(&b, "    %-8s %10.2fms  %5.1f%%\n", ph.Name, float64(ph.NS)/1e6, ph.Share*100)
	}

	if len(pr.Workers) > 0 {
		b.WriteString("  workers (busy / wait of SM phase):\n")
		for _, wk := range pr.Workers {
			fmt.Fprintf(&b, "    w%-3d %10.2fms / %.2fms  util %5.1f%%  ticks %d\n",
				wk.ID, float64(wk.BusyNS)/1e6, float64(wk.WaitNS)/1e6, wk.Util*100, wk.Ticks)
		}
	}

	if imb := pr.Imbalance(); len(pr.SMs) > 0 {
		fmt.Fprintf(&b, "  sm tick imbalance (max-mean)/mean: %.1f%%", imb*100)
		if hot := pr.hottestSM(); hot >= 0 {
			fmt.Fprintf(&b, "  (hottest sm%d at %dns EWMA)", hot, pr.SMs[hot].TickEWMANS)
		}
		b.WriteByte('\n')
	}

	s := pr.Skip
	fmt.Fprintf(&b, "  skip: %d cycles ticked\n", s.TickedSteps)
	fmt.Fprintf(&b, "        windows full %d / issue %d / stall %d; aborts fill %d / launch %d / retire %d\n",
		s.FullWindows, s.IssueWindows, s.StallWindows, s.AbortFill, s.AbortLaunch, s.AbortRetire)
	fmt.Fprintf(&b, "        slept cycles full %d / issue %d / stall-replay %d; replay cost %d flushes, %d picks\n",
		s.FullSleepCycles, s.IssueSleepCycles, s.StallReplayCycles, s.ReplayFlushes, s.ReplayPicks)
	_, err := io.WriteString(w, b.String())
	return err
}

func (pr *Profile) hottestSM() int {
	hot, best := -1, int64(0)
	for i, sm := range pr.SMs {
		if sm.TickEWMANS > best {
			hot, best = i, sm.TickEWMANS
		}
	}
	return hot
}

// WriteHTML renders the profile as a self-contained HTML report with
// inline SVG charts. sim, when non-nil, is the same run's simulated
// profile; the report then adds the unified view splitting the SM phase's
// wall-clock by the simulated stall-stack shares — where does a second of
// wall-clock go, and which simulated behavior caused it.
func (pr *Profile) WriteHTML(w io.Writer, sim *profile.Profile) error {
	var b strings.Builder
	lens.WriteHead(&b, "capsprof host: "+pr.Bench, false)
	c := pr.Host
	fmt.Fprintf(&b, "<p class=\"note\">%s %s/%s · %d cpus · GOMAXPROCS %d · workers %d · idle-skip %v · wall %.2fms · %d steps (%d sampled, every %d)</p>\n",
		html.EscapeString(c.GoVersion), c.GOOS, c.GOARCH, c.NumCPU, c.GOMAXPROCS, c.Workers, c.IdleSkip,
		float64(pr.WallNS)/1e6, pr.Steps, pr.SampledSteps, pr.SampleEvery)

	// Phase breakdown.
	b.WriteString("<h2>Wall-clock by phase</h2>\n")
	labels := make([]string, len(pr.Phases))
	vals := make([]float64, len(pr.Phases))
	for i, ph := range pr.Phases {
		labels[i] = ph.Name
		vals[i] = float64(ph.NS) / 1e6
	}
	if err := lens.WriteBarChartSVG(&b, "phase wall-clock (ms)", labels,
		[]lens.ChartSeries{{Name: "ms", Color: "#4878a8", Values: vals}}, nil); err != nil {
		return err
	}

	// Worker busy/wait.
	if len(pr.Workers) > 0 {
		b.WriteString("<h2>Workers</h2>\n")
		wl := make([]string, len(pr.Workers))
		busy := make([]float64, len(pr.Workers))
		wait := make([]float64, len(pr.Workers))
		for i, wk := range pr.Workers {
			wl[i] = fmt.Sprintf("w%d", wk.ID)
			busy[i] = float64(wk.BusyNS) / 1e6
			wait[i] = float64(wk.WaitNS) / 1e6
		}
		if err := lens.WriteBarChartSVG(&b, "worker busy vs barrier wait (ms)", wl,
			[]lens.ChartSeries{
				{Name: "busy", Color: "#55a868", Values: busy},
				{Name: "wait", Color: "#c44e52", Values: wait},
			}, nil); err != nil {
			return err
		}
	}

	// Per-SM tick EWMA (imbalance histogram).
	if len(pr.SMs) > 0 {
		b.WriteString("<h2>SM tick-time imbalance</h2>\n")
		sl := make([]string, len(pr.SMs))
		ewma := make([]float64, len(pr.SMs))
		var mean float64
		n := 0
		for i, sm := range pr.SMs {
			sl[i] = fmt.Sprintf("%d", sm.ID)
			ewma[i] = float64(sm.TickEWMANS)
			if sm.TickEWMANS > 0 {
				mean += ewma[i]
				n++
			}
		}
		var refs []lens.RefLine
		if n > 0 {
			refs = []lens.RefLine{{Name: "mean", Color: "#937860", Value: mean / float64(n)}}
		}
		if err := lens.WriteBarChartSVG(&b, "per-SM tick duration EWMA (ns)", sl,
			[]lens.ChartSeries{{Name: "ns", Color: "#8172b2", Values: ewma}}, refs); err != nil {
			return err
		}
		fmt.Fprintf(&b, "<p class=\"note\">imbalance (max−mean)/mean: %.1f%%</p>\n", pr.Imbalance()*100)
	}

	// Skip machinery.
	b.WriteString("<h2>Fast-forward</h2>\n<table><tr><th></th><th>count</th></tr>\n")
	s := pr.Skip
	for _, row := range [][2]interface{}{
		{"cycles ticked", s.TickedSteps},
		{"full windows", s.FullWindows},
		{"issue windows", s.IssueWindows},
		{"stall windows", s.StallWindows},
		{"aborts (fill)", s.AbortFill},
		{"aborts (launch)", s.AbortLaunch},
		{"aborts (retire)", s.AbortRetire},
		{"replay flushes", s.ReplayFlushes},
		{"replay picks", s.ReplayPicks},
	} {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td></tr>\n", row[0], row[1])
	}
	b.WriteString("</table>\n")

	// Unified host×sim view.
	if sim != nil {
		if err := pr.writeJoined(&b, sim); err != nil {
			return err
		}
	}

	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeJoined renders the unified view: the SM phase's extrapolated
// wall-clock split by the simulated stall-stack shares. Slept and
// replayed cycles carry stall classes but near-zero host cost, so the
// split reads as "of the time the host spent ticking SMs, which simulated
// behavior was being modeled" — an attribution, not a causal measurement.
func (pr *Profile) writeJoined(b *strings.Builder, sim *profile.Profile) error {
	var smNS int64
	for _, ph := range pr.Phases {
		if ph.Name == PhaseSM.String() {
			smNS = ph.NS
		}
	}
	var total int64
	for _, v := range sim.StallStack { //simcheck:allow detlint order-insensitive sum
		total += v
	}
	if total == 0 || smNS == 0 {
		return nil
	}
	b.WriteString("<h2>Unified view: SM-phase wall-clock by simulated cycle class</h2>\n")
	names := make([]string, 0, len(sim.StallStack))
	for name := range sim.StallStack {
		names = append(names, name)
	}
	// Largest first; equal classes (several are often zero) by name, so
	// the page does not follow the map's iteration order.
	sort.Slice(names, func(i, j int) bool {
		if a, b := sim.StallStack[names[i]], sim.StallStack[names[j]]; a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	labels := make([]string, len(names))
	ms := make([]float64, len(names))
	b.WriteString("<table><tr><th>cycle class</th><th>sim cycles</th><th>share</th><th>host ms</th></tr>\n")
	for i, name := range names {
		share := float64(sim.StallStack[name]) / float64(total)
		hostMS := share * float64(smNS) / 1e6
		labels[i] = name
		ms[i] = hostMS
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%.1f%%</td><td>%.2f</td></tr>\n",
			html.EscapeString(name), sim.StallStack[name], share*100, hostMS)
	}
	b.WriteString("</table>\n")
	if err := lens.WriteBarChartSVG(b, "SM-phase host time by cycle class (ms)", labels,
		[]lens.ChartSeries{{Name: "ms", Color: "#4878a8", Values: ms}}, nil); err != nil {
		return err
	}
	b.WriteString("<p class=\"note\">host cost attributed proportionally to simulated cycle-class shares; slept and replayed cycles keep their class but cost ~0 host time, so classes the fast-forward absorbs are over-weighted here.</p>\n")
	return nil
}

// Coverage is EstimatedNS/WallNS — how much of the measured wall-clock
// the sampled Step extrapolation explains.
func (pr *Profile) Coverage() float64 {
	if pr.WallNS <= 0 {
		return math.NaN()
	}
	return float64(pr.EstimatedNS) / float64(pr.WallNS)
}
