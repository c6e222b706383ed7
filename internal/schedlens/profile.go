package schedlens

import (
	"fmt"
	"sort"

	"caps/internal/lens"
	"caps/internal/obs"
	"caps/internal/stats"
)

// Meta labels the run a profile was folded from.
type Meta struct {
	Bench      string `json:"bench,omitempty"`
	Prefetcher string `json:"prefetcher,omitempty"`
	Scheduler  string `json:"scheduler,omitempty"`
	Cycles     int64  `json:"cycles"`
}

// CTATimeline is one tracked CTA's lifetime record. Phase cycles are -1
// when the phase never fired (a CTA past MaxInsts never drains).
type CTATimeline struct {
	SM         int   `json:"sm"`
	CTA        int   `json:"cta"`
	Launch     int64 `json:"launch"`
	FirstIssue int64 `json:"first_issue"`
	BaseReady  int64 `json:"base_ready"`
	Drain      int64 `json:"drain"`
	Retire     int64 `json:"retire"`
	// SeedLeading / SeedReanchor attribute the prefetch candidates
	// generated FOR this CTA to the warp that anchored their θ/Δ base.
	SeedLeading  int64 `json:"seed_leading,omitempty"`
	SeedReanchor int64 `json:"seed_reanchor,omitempty"`
}

// Timelines aggregates the CTA lifetime evidence: exact phase tallies,
// phase-interval histograms over the tracked subset, per-SM retire
// balance, and tail-CTA attribution (which CTA the run waited on last).
type Timelines struct {
	Launches    int64 `json:"launches"`
	FirstIssues int64 `json:"first_issues"`
	BaseReadies int64 `json:"base_readies"`
	Drains      int64 `json:"drains"`
	Retires     int64 `json:"retires"`

	LaunchToFirstIssue lens.Histo `json:"launch_to_first_issue"`
	LaunchToBaseReady  lens.Histo `json:"launch_to_base_ready"`
	DrainToRetire      lens.Histo `json:"drain_to_retire"`
	Lifetime           lens.Histo `json:"lifetime"`

	PerSMRetires []int64 `json:"per_sm_retires,omitempty"`
	// Balance is the normalized entropy of retires over SMs: 1.0 means
	// perfectly even CTA throughput, 0 means one SM did all the work.
	Balance float64 `json:"balance"`

	// Tail attribution: the last CTA to retire and how long it ran after
	// every other CTA had already retired.
	TailSM     int   `json:"tail_sm"`
	TailCTA    int   `json:"tail_cta"`
	LastRetire int64 `json:"last_retire"`
	TailCycles int64 `json:"tail_cycles"`

	CTAs          []CTATimeline `json:"ctas,omitempty"`
	OmittedCTAs   int64         `json:"omitted_ctas,omitempty"`   // tracked but not exported
	TruncatedCTAs int64         `json:"truncated_ctas,omitempty"` // launched past the ledger cap
}

// OutcomeCount is one named enum tally (pick outcomes, table ops).
type OutcomeCount struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
}

// PickOutcomes is the scheduler decision provenance: how often each
// decision class fired for the run's scheduler, plus the queue-movement
// totals they decompose.
type PickOutcomes struct {
	Scheduler string         `json:"scheduler,omitempty"`
	Outcomes  []OutcomeCount `json:"outcomes,omitempty"`
	Promotes  int64          `json:"promotes"`
	Demotes   int64          `json:"demotes"`
	Wakeups   int64          `json:"wakeups"`
	// LeadingPromotedFrac is leading_promoted/(leading_promoted +
	// leading_bypassed): how often PAS's leading-warp priority actually
	// reordered a refill.
	LeadingPromotedFrac float64 `json:"leading_promoted_frac"`
}

// TableDynamics is the CAP/DIST prediction-table behaviour profile.
type TableDynamics struct {
	Ops []OutcomeCount `json:"ops,omitempty"`
	// DistHitRate is dist_hit over DIST lookups (hit + fill + reclaim +
	// full — every lookup ends in exactly one of the four).
	DistHitRate float64 `json:"dist_hit_rate"`
	// CTAHitRate is cta_hit over CAP lookups (hit + fill).
	CTAHitRate float64 `json:"cta_hit_rate"`
	// VerifyBadRate is verify_bad over verifications.
	VerifyBadRate float64 `json:"verify_bad_rate"`
	// MispredictStreaks histograms runs of consecutive verify_bad per SM,
	// closed by the next verify_ok; MaxMispredictStreak includes streaks
	// still open at run end.
	MispredictStreaks   lens.Histo `json:"mispredict_streaks"`
	MaxMispredictStreak int64      `json:"max_mispredict_streak"`
	// CAPOccupancy samples the live-entry estimate (fills minus
	// evictions/invalidations) at every CAP mutation.
	CAPOccupancy lens.Histo `json:"cap_occupancy"`
}

// LeadingWarp is the leading-warp effectiveness profile: of the prefetch
// candidates whose θ/Δ base came from some warp's observation, how many
// were anchored by the CTA's designated leading warp (warp-in-CTA 0, the
// warp PAS prioritizes) versus re-anchored by a trailing warp.
type LeadingWarp struct {
	Candidates      int64 `json:"candidates"`
	Anchored        int64 `json:"anchored"`
	SeededByLeading int64 `json:"seeded_by_leading"`
	Reanchored      int64 `json:"reanchored"`
	Unanchored      int64 `json:"unanchored,omitempty"` // baselines: no anchor concept
	// Effectiveness is seeded_by_leading/anchored — 1.0 means every
	// prediction base came from the designated leading warp.
	Effectiveness float64 `json:"effectiveness"`
	// BaseReadyFrac is the fraction of launched CTAs whose leading warp
	// issued its base-establishing blocking load.
	BaseReadyFrac float64 `json:"base_ready_frac"`
}

// Reconcile carries the exact tallies Validate checks against stats.Sim.
type Reconcile struct {
	WarpDispatches int64 `json:"warp_dispatches"`
	WarpFinishes   int64 `json:"warp_finishes"`
	Retires        int64 `json:"retires"`
	Admits         int64 `json:"admits"`
	Drops          int64 `json:"drops"`
	WakeupEager    int64 `json:"wakeup_eager"`
	VerifyOK       int64 `json:"verify_ok"`
	VerifyBad      int64 `json:"verify_bad"`
}

// Profile is the finished scheduler/CTA-decision profile for one run.
type Profile struct {
	Meta        Meta          `json:"meta"`
	Timelines   Timelines     `json:"timelines"`
	Picks       PickOutcomes  `json:"picks"`
	Table       TableDynamics `json:"table"`
	LeadingWarp LeadingWarp   `json:"leading_warp"`
	Reconcile   Reconcile     `json:"reconcile"`
}

// Build renders the folded state as an immutable Profile. The collector
// stays usable (Build does not reset it).
func (c *Collector) Build(meta Meta) *Profile {
	p := &Profile{Meta: meta}

	// Timelines: exact phase tallies, then the tracked-subset derivations.
	tl := &p.Timelines
	tl.Launches = c.phases[obs.CTAPhaseLaunch]
	tl.FirstIssues = c.phases[obs.CTAPhaseFirstIssue]
	tl.BaseReadies = c.phases[obs.CTAPhaseBaseReady]
	tl.Drains = c.phases[obs.CTAPhaseDrain]
	tl.Retires = c.phases[obs.CTAPhaseRetire]
	tl.TruncatedCTAs = c.truncCTAs

	type idRec struct {
		id int32
		r  *ctaRec
	}
	recs := make([]idRec, 0, len(c.ctas))
	for id, r := range c.ctas { //simcheck:allow detlint records sorted below
		recs = append(recs, idRec{id, r})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].r.launch != recs[j].r.launch {
			return recs[i].r.launch < recs[j].r.launch
		}
		return recs[i].id < recs[j].id
	})

	var toIssue, toBase, toRetire, life lens.Hist
	var lastRetire, secondLast int64 = -1, -1
	tl.TailSM, tl.TailCTA = -1, -1
	for _, ir := range recs {
		r := ir.r
		if r.firstIssue >= 0 {
			toIssue.Observe(r.firstIssue - r.launch)
		}
		if r.baseReady >= 0 {
			toBase.Observe(r.baseReady - r.launch)
		}
		if r.retire >= 0 {
			life.Observe(r.retire - r.launch)
			if r.drain >= 0 {
				toRetire.Observe(r.retire - r.drain)
			}
			if r.retire > lastRetire {
				secondLast = lastRetire
				lastRetire = r.retire
				tl.TailSM, tl.TailCTA = int(r.sm), int(ir.id)
			} else if r.retire > secondLast {
				secondLast = r.retire
			}
		}
	}
	tl.LaunchToFirstIssue = toIssue.Export()
	tl.LaunchToBaseReady = toBase.Export()
	tl.DrainToRetire = toRetire.Export()
	tl.Lifetime = life.Export()
	if lastRetire >= 0 {
		tl.LastRetire = lastRetire
		if secondLast >= 0 {
			tl.TailCycles = lastRetire - secondLast
		}
	}
	tl.PerSMRetires = append([]int64(nil), c.perSMRetires...)
	tl.Balance = lens.NormEntropy(c.perSMRetires, len(c.perSMRetires))

	export := recs
	if len(export) > maxExportCTAs {
		tl.OmittedCTAs = int64(len(export) - maxExportCTAs)
		export = export[:maxExportCTAs]
	}
	for _, ir := range export {
		r := ir.r
		tl.CTAs = append(tl.CTAs, CTATimeline{
			SM:           int(r.sm),
			CTA:          int(ir.id),
			Launch:       r.launch,
			FirstIssue:   r.firstIssue,
			BaseReady:    r.baseReady,
			Drain:        r.drain,
			Retire:       r.retire,
			SeedLeading:  r.seedLead,
			SeedReanchor: r.seedRe,
		})
	}

	// Scheduler decision provenance.
	pk := &p.Picks
	pk.Scheduler = meta.Scheduler
	for o := obs.PickOutcome(0); int(o) < obs.NumPickOutcomes; o++ {
		if c.picks[o] == 0 {
			continue
		}
		pk.Outcomes = append(pk.Outcomes, OutcomeCount{Name: o.String(), Count: c.picks[o]})
	}
	pk.Promotes, pk.Demotes, pk.Wakeups = c.promotes, c.demotes, c.wakeups
	lead := c.picks[obs.PickLeadingPromoted]
	if t := lead + c.picks[obs.PickLeadingBypassed]; t > 0 {
		pk.LeadingPromotedFrac = float64(lead) / float64(t)
	}

	// CAP/DIST table dynamics.
	tb := &p.Table
	for o := obs.TableOp(0); int(o) < obs.NumTableOps; o++ {
		if c.tableOps[o] == 0 {
			continue
		}
		tb.Ops = append(tb.Ops, OutcomeCount{Name: o.String(), Count: c.tableOps[o]})
	}
	distHits := c.tableOps[obs.TableDistHit]
	if t := distHits + c.tableOps[obs.TableDistFill] + c.tableOps[obs.TableDistReclaim] + c.tableOps[obs.TableDistFull]; t > 0 {
		tb.DistHitRate = float64(distHits) / float64(t)
	}
	ctaHits := c.tableOps[obs.TableCTAHit]
	if t := ctaHits + c.tableOps[obs.TableCTAFill]; t > 0 {
		tb.CTAHitRate = float64(ctaHits) / float64(t)
	}
	bad := c.tableOps[obs.TableVerifyBad]
	if t := bad + c.tableOps[obs.TableVerifyOK]; t > 0 {
		tb.VerifyBadRate = float64(bad) / float64(t)
	}
	tb.MispredictStreaks = c.streakHist.Export()
	tb.MaxMispredictStreak = c.maxStreak
	tb.CAPOccupancy = c.capOccupancy.Export()

	// Leading-warp effectiveness.
	lw := &p.LeadingWarp
	lw.Candidates = c.candidates
	lw.Anchored, lw.SeededByLeading, lw.Reanchored = c.anchored, c.seedLead, c.seedRe
	lw.Unanchored = c.unanchored
	if c.anchored > 0 {
		lw.Effectiveness = float64(c.seedLead) / float64(c.anchored)
	}
	if tl.Launches > 0 {
		lw.BaseReadyFrac = float64(tl.BaseReadies) / float64(tl.Launches)
	}

	// Reconciliation tallies.
	rc := &p.Reconcile
	rc.WarpDispatches = c.warpDispatches
	rc.WarpFinishes = c.warpFinishes
	rc.Retires = tl.Retires
	rc.Admits = c.admits
	rc.Drops = c.drops
	rc.WakeupEager = c.picks[obs.PickWakeupEager]
	rc.VerifyOK = c.tableOps[obs.TableVerifyOK]
	rc.VerifyBad = c.tableOps[obs.TableVerifyBad]
	return p
}

// Validate checks the profile's exact reconciliation invariants against
// the run's statistics: every scheduler decision, CTA retirement and
// prefetch lifecycle event schedlens counted must match the corresponding
// stats.Sim totals. Truncated ledgers never affect these tallies (the
// counters are plain fields, not map entries), so any mismatch means an
// instrumentation point was lost or double-fired. Phase ordering is also
// checked: no phase can outnumber the one before it in the lifetime.
func (p *Profile) Validate(st *stats.Sim) error {
	if st == nil {
		return fmt.Errorf("schedlens: Validate needs the run's stats")
	}
	rc := &p.Reconcile
	type eq struct {
		name string
		got  int64
		want int64
	}
	checks := []eq{
		{"cta retires", rc.Retires, st.CTAsDone},
		{"warp finishes", rc.WarpFinishes, st.WarpsDone},
		{"prefetch admits", rc.Admits, st.PrefIssued},
		{"prefetch drops", rc.Drops, st.PrefDropped},
		{"eager wakeups", rc.WakeupEager, st.WakeupPromotions},
		{"verify ok", rc.VerifyOK, st.PrefVerifyOK},
		{"verify bad", rc.VerifyBad, st.PrefVerifyBad},
	}
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("schedlens: %s: profile folded %d, stats counted %d", c.name, c.got, c.want)
		}
	}
	// The lifetime is a chain: each phase fires at most once per CTA and
	// only after its predecessor, so the tallies must be monotone.
	tl := &p.Timelines
	for _, ord := range []struct {
		name        string
		late, early int64
	}{
		{"first-issues vs launches", tl.FirstIssues, tl.Launches},
		{"base-readies vs first-issues", tl.BaseReadies, tl.FirstIssues},
		{"drains vs first-issues", tl.Drains, tl.FirstIssues},
		{"retires vs drains", tl.Retires, tl.Drains},
	} {
		if ord.late > ord.early {
			return fmt.Errorf("schedlens: phase order violated: %s (%d > %d)", ord.name, ord.late, ord.early)
		}
	}
	return nil
}

// WriteFile writes the profile as indented JSON.
func (p *Profile) WriteFile(path string) error { return lens.WriteFile(path, p) }

// ReadFile loads a profile written by WriteFile.
func ReadFile(path string) (*Profile, error) { return lens.ReadFile[Profile](path, "schedlens") }
