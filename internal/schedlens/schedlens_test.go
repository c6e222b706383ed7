package schedlens

import (
	"path/filepath"
	"strings"
	"testing"

	"caps/internal/lens"
	"caps/internal/obs"
	"caps/internal/stats"
)

func testCollector() *Collector {
	return NewCollector(Config{SMs: 2})
}

// Event constructors mirror the obs.Sink emitter shapes (sink.go), so the
// fold sees exactly what a live run would hand it.

func phaseEvent(sm int16, cta int32, cycle int64, p obs.CTAPhase) obs.Event {
	return obs.Event{Cycle: cycle, Kind: obs.EvCTAPhase, Dom: obs.DomSM, Track: sm, Warp: -1, CTA: cta, Arg: uint8(p)}
}

func pickEvent(sm int16, o obs.PickOutcome) obs.Event {
	return obs.Event{Kind: obs.EvPickOutcome, Dom: obs.DomSM, Track: sm, CTA: -1, Arg: uint8(o)}
}

func tableEvent(sm int16, op obs.TableOp) obs.Event {
	return obs.Event{Kind: obs.EvTableOp, Dom: obs.DomSM, Track: sm, Warp: -1, Arg: uint8(op)}
}

func candEvent(cta int32, seedWarp int64) obs.Event {
	return obs.Event{Kind: obs.EvPrefCandidate, Dom: obs.DomSM, CTA: cta, Val: seedWarp}
}

// runLifetime folds one complete CTA lifetime through the collector.
func runLifetime(c *Collector, sm int16, cta int32, launch, firstIssue, baseReady, drain, retire int64) {
	c.Consume(phaseEvent(sm, cta, launch, obs.CTAPhaseLaunch))
	c.Consume(phaseEvent(sm, cta, firstIssue, obs.CTAPhaseFirstIssue))
	c.Consume(phaseEvent(sm, cta, baseReady, obs.CTAPhaseBaseReady))
	c.Consume(phaseEvent(sm, cta, drain, obs.CTAPhaseDrain))
	c.Consume(phaseEvent(sm, cta, retire, obs.CTAPhaseRetire))
}

func TestTimelineFold(t *testing.T) {
	c := testCollector()
	runLifetime(c, 0, 0, 100, 110, 150, 300, 320)
	runLifetime(c, 1, 1, 100, 120, 160, 340, 380)

	p := c.Build(Meta{Bench: "tl"})
	tl := p.Timelines
	if tl.Launches != 2 || tl.FirstIssues != 2 || tl.BaseReadies != 2 || tl.Drains != 2 || tl.Retires != 2 {
		t.Fatalf("phase tallies: %+v", tl)
	}
	if tl.LaunchToFirstIssue.Mean != 15 {
		t.Errorf("launch→first-issue mean %.1f, want 15", tl.LaunchToFirstIssue.Mean)
	}
	if tl.DrainToRetire.Mean != 30 {
		t.Errorf("drain→retire mean %.1f, want 30", tl.DrainToRetire.Mean)
	}
	if tl.Lifetime.Mean != 250 {
		t.Errorf("lifetime mean %.1f, want 250", tl.Lifetime.Mean)
	}
	if len(tl.PerSMRetires) != 2 || tl.PerSMRetires[0] != 1 || tl.PerSMRetires[1] != 1 {
		t.Errorf("per-SM retires %v, want [1 1]", tl.PerSMRetires)
	}
	if tl.Balance != 1.0 {
		t.Errorf("balance %.3f, want 1.0 for an even spread", tl.Balance)
	}
	if tl.TailSM != 1 || tl.TailCTA != 1 || tl.LastRetire != 380 || tl.TailCycles != 60 {
		t.Errorf("tail attribution sm=%d cta=%d last=%d tail=%d, want 1/1/380/60",
			tl.TailSM, tl.TailCTA, tl.LastRetire, tl.TailCycles)
	}
	if len(tl.CTAs) != 2 || tl.CTAs[0].CTA != 0 || tl.CTAs[1].CTA != 1 {
		t.Fatalf("exported timelines: %+v", tl.CTAs)
	}
	if got := tl.CTAs[1]; got.SM != 1 || got.Launch != 100 || got.FirstIssue != 120 ||
		got.BaseReady != 160 || got.Drain != 340 || got.Retire != 380 {
		t.Errorf("CTA 1 timeline: %+v", got)
	}
}

func TestPickOutcomeFold(t *testing.T) {
	c := testCollector()
	for i := 0; i < 3; i++ {
		c.Consume(pickEvent(0, obs.PickLeadingPromoted))
	}
	c.Consume(pickEvent(0, obs.PickLeadingBypassed))
	c.Consume(pickEvent(1, obs.PickWakeupEager))
	c.Consume(obs.Event{Kind: obs.EvSchedPromote, Dom: obs.DomSM, Track: 0})
	c.Consume(obs.Event{Kind: obs.EvSchedDemote, Dom: obs.DomSM, Track: 0})
	c.Consume(obs.Event{Kind: obs.EvSchedWakeup, Dom: obs.DomSM, Track: 1})

	p := c.Build(Meta{Scheduler: "pas"})
	pk := p.Picks
	if pk.Scheduler != "pas" {
		t.Errorf("scheduler %q, want pas", pk.Scheduler)
	}
	// Zero outcomes are skipped: exactly the three observed kinds export.
	if len(pk.Outcomes) != 3 {
		t.Fatalf("outcomes: %+v, want 3 non-zero entries", pk.Outcomes)
	}
	counts := map[string]int64{}
	for _, o := range pk.Outcomes {
		counts[o.Name] = o.Count
	}
	if counts[obs.PickLeadingPromoted.String()] != 3 || counts[obs.PickLeadingBypassed.String()] != 1 {
		t.Errorf("leading outcome counts: %v", counts)
	}
	if pk.Promotes != 1 || pk.Demotes != 1 || pk.Wakeups != 1 {
		t.Errorf("promote/demote/wakeup = %d/%d/%d, want 1/1/1", pk.Promotes, pk.Demotes, pk.Wakeups)
	}
	if pk.LeadingPromotedFrac != 0.75 {
		t.Errorf("leading-promoted frac %.3f, want 0.75 (3 of 4)", pk.LeadingPromotedFrac)
	}
}

func TestTableDynamicsFold(t *testing.T) {
	c := testCollector()
	// DIST: 1 fill, 3 hits → hit rate 0.75.
	c.Consume(tableEvent(0, obs.TableDistFill))
	for i := 0; i < 3; i++ {
		c.Consume(tableEvent(0, obs.TableDistHit))
	}
	// CAP: 2 fills, 2 hits, 1 evict → hit rate 0.5, occupancy peaks at 2.
	c.Consume(tableEvent(0, obs.TableCTAFill))
	c.Consume(tableEvent(0, obs.TableCTAFill))
	c.Consume(tableEvent(0, obs.TableCTAHit))
	c.Consume(tableEvent(0, obs.TableCTAHit))
	c.Consume(tableEvent(0, obs.TableCTAEvict))
	// Verify: a 3-long bad streak on SM 0 closed by an ok; an unrelated
	// 1-long streak on SM 1 left open.
	for i := 0; i < 3; i++ {
		c.Consume(tableEvent(0, obs.TableVerifyBad))
	}
	c.Consume(tableEvent(0, obs.TableVerifyOK))
	c.Consume(tableEvent(1, obs.TableVerifyBad))

	p := c.Build(Meta{})
	tb := p.Table
	if tb.DistHitRate != 0.75 {
		t.Errorf("DIST hit rate %.3f, want 0.75", tb.DistHitRate)
	}
	if tb.CTAHitRate != 0.5 {
		t.Errorf("CAP hit rate %.3f, want 0.5", tb.CTAHitRate)
	}
	if tb.VerifyBadRate != 0.8 {
		t.Errorf("verify-bad rate %.3f, want 0.8 (4 of 5)", tb.VerifyBadRate)
	}
	if tb.MaxMispredictStreak != 3 {
		t.Errorf("max streak %d, want 3", tb.MaxMispredictStreak)
	}
	// Only the closed streak lands in the histogram; the open one on SM 1
	// contributes to the max alone... and SM 1's streak of 1 never beats 3.
	if tb.MispredictStreaks.Count != 1 || tb.MispredictStreaks.Mean != 3 {
		t.Errorf("streak hist count=%d mean=%.1f, want 1/3", tb.MispredictStreaks.Count, tb.MispredictStreaks.Mean)
	}
	if tb.CAPOccupancy.Count != 3 {
		t.Errorf("occupancy samples %d, want 3 (two fills, one evict)", tb.CAPOccupancy.Count)
	}
}

func TestLeadingWarpAttribution(t *testing.T) {
	c := testCollector()
	c.Consume(phaseEvent(0, 7, 10, obs.CTAPhaseLaunch))
	c.Consume(candEvent(7, 0))  // designated leading warp
	c.Consume(candEvent(7, 0))  //
	c.Consume(candEvent(7, 3))  // trailing re-anchor
	c.Consume(candEvent(9, 0))  // untracked CTA: global tallies only
	c.Consume(candEvent(7, -1)) // baseline prefetcher, no anchor concept

	p := c.Build(Meta{})
	lw := p.LeadingWarp
	if lw.Candidates != 5 || lw.Anchored != 4 || lw.SeededByLeading != 3 || lw.Reanchored != 1 || lw.Unanchored != 1 {
		t.Fatalf("leading warp tallies: %+v", lw)
	}
	if lw.Effectiveness != 0.75 {
		t.Errorf("effectiveness %.3f, want 0.75 (3 of 4 anchored)", lw.Effectiveness)
	}
	if len(p.Timelines.CTAs) != 1 {
		t.Fatalf("exported CTAs: %+v", p.Timelines.CTAs)
	}
	if got := p.Timelines.CTAs[0]; got.SeedLeading != 2 || got.SeedReanchor != 1 {
		t.Errorf("per-CTA seeds lead=%d re=%d, want 2/1", got.SeedLeading, got.SeedReanchor)
	}
}

func TestLedgerTruncation(t *testing.T) {
	c := testCollector()
	for cta := int32(0); cta < maxCTAs+10; cta++ {
		c.Consume(phaseEvent(0, cta, int64(cta), obs.CTAPhaseLaunch))
	}
	p := c.Build(Meta{})
	tl := p.Timelines
	// The exact phase tally keeps counting past the cap.
	if tl.Launches != maxCTAs+10 {
		t.Errorf("launches=%d, want %d", tl.Launches, maxCTAs+10)
	}
	if tl.TruncatedCTAs != 10 {
		t.Errorf("truncated=%d, want 10", tl.TruncatedCTAs)
	}
	if len(tl.CTAs) != maxExportCTAs {
		t.Errorf("exported=%d, want cap %d", len(tl.CTAs), maxExportCTAs)
	}
	if tl.OmittedCTAs != maxCTAs-maxExportCTAs {
		t.Errorf("omitted=%d, want %d", tl.OmittedCTAs, maxCTAs-maxExportCTAs)
	}
}

func TestValidateReconciles(t *testing.T) {
	c := testCollector()
	runLifetime(c, 0, 0, 10, 20, 30, 40, 50)
	c.Consume(obs.Event{Kind: obs.EvWarpFinish, Dom: obs.DomSM, Track: 0})
	c.Consume(obs.Event{Kind: obs.EvWarpFinish, Dom: obs.DomSM, Track: 0})
	c.Consume(obs.Event{Kind: obs.EvPrefAdmit, Dom: obs.DomSM, Track: 0, CTA: 0})
	c.Consume(obs.Event{Kind: obs.EvPrefDrop, Dom: obs.DomSM, Track: 0, CTA: 0})
	c.Consume(pickEvent(0, obs.PickWakeupEager))
	c.Consume(tableEvent(0, obs.TableVerifyOK))
	c.Consume(tableEvent(0, obs.TableVerifyBad))

	st := &stats.Sim{
		CTAsDone: 1, WarpsDone: 2,
		PrefIssued: 1, PrefDropped: 1,
		WakeupPromotions: 1,
		PrefVerifyOK:     1, PrefVerifyBad: 1,
	}
	p := c.Build(Meta{})
	if err := p.Validate(st); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Any drifted stat must be caught by name.
	st.WarpsDone = 3
	if err := p.Validate(st); err == nil || !strings.Contains(err.Error(), "warp finishes") {
		t.Fatalf("want warp-finish mismatch, got %v", err)
	}
	st.WarpsDone = 2
	st.PrefVerifyBad = 0
	if err := p.Validate(st); err == nil || !strings.Contains(err.Error(), "verify bad") {
		t.Fatalf("want verify-bad mismatch, got %v", err)
	}
}

func TestValidateCatchesPhaseOrderViolation(t *testing.T) {
	c := testCollector()
	// A retire with no preceding drain breaks the lifetime chain.
	c.Consume(phaseEvent(0, 0, 10, obs.CTAPhaseLaunch))
	c.Consume(phaseEvent(0, 0, 20, obs.CTAPhaseFirstIssue))
	c.Consume(phaseEvent(0, 0, 50, obs.CTAPhaseRetire))
	p := c.Build(Meta{})
	st := &stats.Sim{CTAsDone: 1}
	if err := p.Validate(st); err == nil || !strings.Contains(err.Error(), "phase order") {
		t.Fatalf("want phase-order violation, got %v", err)
	}
}

func TestProfileRoundTripAndReports(t *testing.T) {
	c := testCollector()
	runLifetime(c, 0, 0, 100, 110, 150, 300, 320)
	runLifetime(c, 1, 1, 100, 120, 160, 340, 380)
	c.Consume(pickEvent(0, obs.PickLeadingPromoted))
	c.Consume(obs.Event{Kind: obs.EvSchedPromote, Dom: obs.DomSM, Track: 0})
	c.Consume(tableEvent(0, obs.TableDistFill))
	c.Consume(tableEvent(0, obs.TableDistHit))
	c.Consume(tableEvent(0, obs.TableCTAFill))
	c.Consume(candEvent(0, 0))
	c.Consume(candEvent(0, 2))

	p := c.Build(Meta{Bench: "rt", Prefetcher: "caps", Scheduler: "pas", Cycles: 1000})
	path := filepath.Join(t.TempDir(), "sched.json")
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != p.Meta || got.Timelines.Retires != 2 || len(got.Timelines.CTAs) != 2 ||
		got.LeadingWarp.Effectiveness != p.LeadingWarp.Effectiveness {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	var text strings.Builder
	if err := p.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sched profile: rt", "cta timelines", "scheduler decisions", "cap/dist tables", "leading warp"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}
	var htm strings.Builder
	if err := p.WriteHTML(&htm); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "CTA lifetime timelines", "Scheduler decision provenance", "CAP/DIST table dynamics", "Leading-warp effectiveness"} {
		if !strings.Contains(htm.String(), want) {
			t.Fatalf("html report missing %q", want)
		}
	}
}

func TestTruncationWarningsSurface(t *testing.T) {
	c := testCollector()
	for cta := int32(0); cta < maxCTAs+1; cta++ {
		c.Consume(phaseEvent(0, cta, int64(cta), obs.CTAPhaseLaunch))
	}
	p := c.Build(Meta{Bench: "trunc"})
	var text, htm strings.Builder
	if err := p.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "WARNING") {
		t.Fatal("text report must surface ledger truncation")
	}
	if err := p.WriteHTML(&htm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(htm.String(), "class=\"warn\"") {
		t.Fatal("html report must surface ledger truncation")
	}
}

func TestDiffGatesDrops(t *testing.T) {
	mk := func(eff, promoted, ctaHit, distHit, balance float64) *Profile {
		return &Profile{
			Timelines:   Timelines{Retires: 10, Balance: balance},
			Picks:       PickOutcomes{Promotes: 10, LeadingPromotedFrac: promoted},
			Table:       TableDynamics{Ops: []OutcomeCount{{Name: "dist_hit", Count: 1}}, CTAHitRate: ctaHit, DistHitRate: distHit},
			LeadingWarp: LeadingWarp{Anchored: 100, Effectiveness: eff},
		}
	}
	base := mk(0.80, 0.60, 0.90, 0.95, 0.98)
	same := mk(0.79, 0.59, 0.89, 0.94, 0.97)
	if regs := Diff(base, same, Thresholds{}); len(regs) != 0 {
		t.Fatalf("within-threshold diff should pass, got %v", regs)
	}
	bad := mk(0.50, 0.30, 0.60, 0.65, 0.40)
	regs := Diff(base, bad, Thresholds{})
	dims := make(map[string]bool)
	for _, r := range regs {
		dims[r.Dimension] = true
	}
	for _, want := range []string{"leading", "picks", "table", "balance"} {
		if !dims[want] {
			t.Fatalf("missing %q regression in %v", want, regs)
		}
	}
	// Improvements never gate.
	if regs := Diff(bad, base, Thresholds{}); len(regs) != 0 {
		t.Fatalf("improvement must not gate: %v", regs)
	}
	// Dimensions absent on either side are skipped, not zero-regressions:
	// a baseline prefetcher has no anchored candidates and an LRR run no
	// PAS refills.
	noDims := &Profile{Timelines: Timelines{Retires: 10, Balance: 0.98}}
	if regs := Diff(base, noDims, Thresholds{}); len(regs) != 0 {
		t.Fatalf("absent dimensions must be skipped: %v", regs)
	}
}

func TestHistPercentiles(t *testing.T) {
	var h lens.Hist
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	e := h.Export()
	if e.Percentile(0.50) != 1 || e.Percentile(0.90) != 1 {
		t.Fatalf("p50=%d p90=%d, want 1/1", e.Percentile(0.50), e.Percentile(0.90))
	}
	if e.Percentile(0.99) != 1023 {
		t.Fatalf("p99=%d, want 1023", e.Percentile(0.99))
	}
}
