// Package schedlens folds the obs event stream into a scheduler- and
// CTA-decision profile: per-CTA lifetime timelines (launch → first-issue →
// leading-warp-base-established → drain → retire, with per-SM balance and
// tail-CTA attribution), scheduler decision provenance (per-PickOutcome
// counters — PAS leading-warp promotions taken vs bypassed, long-latency
// demotions, eager wake-ups, GTO age inversions), CAP/DIST prediction-table
// dynamics (fills, hits, aliasing evictions, misprediction streaks,
// occupancy over time) and leading-warp effectiveness (the fraction of
// prefetch candidates whose θ/Δ base was anchored by the CTA's designated
// leading warp rather than a trailing re-anchor). Like memlens it is a
// streaming obs.Consumer with bounded memory: a 30M-cycle run is folded
// online, never buffered, and every folded counter reconciles exactly
// against stats.Sim (Profile.Validate).
//
// Every emission site schedlens subscribes to is an executor-invariant
// state transition (see obs.PickOutcome), so the folded profile is
// byte-identical across worker counts and with or without the per-SM
// fast-forward.
package schedlens

import (
	"caps/internal/config"
	"caps/internal/lens"
	"caps/internal/obs"
)

// Bounds on the collector's ledger maps. Past a cap new keys are counted
// as truncated instead of growing without bound; the exact reconciliation
// counters keep counting regardless, so Profile.Validate is unaffected by
// truncation.
const (
	maxCTAs       = 8192 // tracked per-CTA timeline records
	maxExportCTAs = 256  // timeline records exported into the Profile JSON
)

// ctaRec is one CTA's tracked lifetime: the cycle each phase fired (-1
// until observed) plus its prefetch-seed attribution tallies.
type ctaRec struct {
	sm                                           int16
	launch, firstIssue, baseReady, drain, retire int64
	seedLead, seedRe                             int64
}

// Collector is the streaming scheduler/CTA-decision profiler. Attach it before
// the first simulated cycle (sim.WithConsumer), Build its Profile after the run
// and Validate that against the run's statistics; internal/lenses does all
// three. It implements obs.StreamFilter to decline the cycle-class stream,
// so the sink never constructs per-cycle events on its behalf.
type Collector struct {
	cfg Config

	// CTA lifetime ledger, keyed by logical grid CTA id (unique per run).
	ctas      map[int32]*ctaRec
	truncCTAs int64
	// One-entry ledger cache: a CTA's phase and candidate events cluster
	// in time, and every fold starts with the same lookup.
	lastCTA int32
	lastRec *ctaRec

	phases       [obs.NumCTAPhases]int64
	perSMRetires []int64

	picks    [obs.NumPickOutcomes]int64
	promotes int64
	demotes  int64
	wakeups  int64

	tableOps [obs.NumTableOps]int64
	// Misprediction streaks: consecutive verify_bad per SM, closed by the
	// next verify_ok (each SM's CAPS engine verifies independently).
	streak       []int64
	maxStreak    int64
	streakHist   lens.Hist
	capLive      int64 // live CAP entries estimate: fills - evictions
	capOccupancy lens.Hist

	candidates int64
	anchored   int64 // SeedWarp >= 0
	seedLead   int64 // SeedWarp == 0: designated leading warp anchored the base
	seedRe     int64 // SeedWarp > 0: a trailing warp re-anchored
	unanchored int64 // SeedWarp < 0: prefetcher has no anchor concept

	// Exact reconciliation tallies (Profile.Validate vs stats.Sim).
	warpDispatches int64
	warpFinishes   int64
	admits         int64
	drops          int64
}

// Config sizes the collector for one GPU.
type Config struct {
	SMs int
}

// NewCollector builds a collector sized for the machine.
func NewCollector(cfg Config) *Collector {
	cfg.SMs = max(cfg.SMs, 0)
	return &Collector{
		cfg:          cfg,
		ctas:         make(map[int32]*ctaRec, maxCTAs),
		perSMRetires: make([]int64, cfg.SMs),
		streak:       make([]int64, cfg.SMs),
	}
}

// ForConfig builds a collector sized for a GPU configuration.
func ForConfig(cfg config.GPUConfig) *Collector {
	return NewCollector(Config{SMs: cfg.NumSMs})
}

var _ obs.Consumer = (*Collector)(nil)
var _ obs.StreamFilter = (*Collector)(nil)
var _ obs.KindFilter = (*Collector)(nil)

// WantsCycleClass opts out of the per-SM-per-cycle class stream: schedlens
// needs none of it, and subscribing would force the executor to keep
// constructing it.
func (c *Collector) WantsCycleClass() bool { return false }

// WantsKind implements obs.KindFilter: the sink drops the collector from
// the dispatch lists of every kind the Consume switch would discard —
// load issues and cache accesses outnumber scheduler events by orders of
// magnitude, and without the filter each one costs an interface call just
// to fall through the switch.
func (c *Collector) WantsKind(k obs.Kind) bool {
	switch k {
	case obs.EvCTAPhase, obs.EvPickOutcome, obs.EvTableOp,
		obs.EvSchedPromote, obs.EvSchedDemote, obs.EvSchedWakeup,
		obs.EvWarpDispatch, obs.EvWarpFinish,
		obs.EvPrefCandidate, obs.EvPrefAdmit, obs.EvPrefDrop:
		return true
	}
	return false
}

// ctaLedger returns the tracked record for a CTA id, or nil when the CTA
// is not tracked (launched past the cap, or its launch predates attach).
func (c *Collector) ctaLedger(cta int32) *ctaRec {
	if c.lastRec != nil && c.lastCTA == cta {
		return c.lastRec
	}
	r, ok := c.ctas[cta]
	if !ok {
		return nil
	}
	c.lastCTA, c.lastRec = cta, r
	return r
}

// Consume implements obs.Consumer. Every branch is O(1): map lookups on a
// bounded map, fixed-size counter and histogram increments.
//
//caps:hotpath
func (c *Collector) Consume(e obs.Event) {
	switch e.Kind {
	case obs.EvCTAPhase:
		c.foldPhase(e)
	case obs.EvPickOutcome:
		if int(e.Arg) < obs.NumPickOutcomes {
			c.picks[e.Arg]++
		}
	case obs.EvTableOp:
		c.foldTable(e)
	case obs.EvSchedPromote:
		c.promotes++
	case obs.EvSchedDemote:
		c.demotes++
	case obs.EvSchedWakeup:
		c.wakeups++
	case obs.EvWarpDispatch:
		c.warpDispatches++
	case obs.EvWarpFinish:
		c.warpFinishes++
	case obs.EvPrefCandidate:
		c.foldCandidate(e)
	case obs.EvPrefAdmit:
		c.admits++
	case obs.EvPrefDrop:
		c.drops++
	}
}

// foldPhase advances one CTA's tracked timeline and the exact phase
// tallies.
func (c *Collector) foldPhase(e obs.Event) {
	if int(e.Arg) >= obs.NumCTAPhases {
		return
	}
	phase := obs.CTAPhase(e.Arg)
	c.phases[phase]++
	if phase == obs.CTAPhaseRetire {
		if sm := int(e.Track); sm >= 0 && sm < len(c.perSMRetires) {
			c.perSMRetires[sm]++
		}
	}
	if phase == obs.CTAPhaseLaunch {
		if len(c.ctas) >= maxCTAs {
			c.truncCTAs++
			return
		}
		r := &ctaRec{sm: e.Track, launch: e.Cycle, firstIssue: -1, baseReady: -1, drain: -1, retire: -1} //caps:alloc-ok bounded by maxCTAs; timeline ledger
		c.ctas[e.CTA] = r
		c.lastCTA, c.lastRec = e.CTA, r
		return
	}
	r := c.ctaLedger(e.CTA)
	if r == nil {
		return
	}
	switch phase {
	case obs.CTAPhaseFirstIssue:
		r.firstIssue = e.Cycle
	case obs.CTAPhaseBaseReady:
		r.baseReady = e.Cycle
	case obs.CTAPhaseDrain:
		r.drain = e.Cycle
	case obs.CTAPhaseRetire:
		r.retire = e.Cycle
	}
}

// foldTable folds one CAP/DIST table operation: the per-op tally plus the
// misprediction-streak and occupancy derivations.
func (c *Collector) foldTable(e obs.Event) {
	if int(e.Arg) >= obs.NumTableOps {
		return
	}
	op := obs.TableOp(e.Arg)
	c.tableOps[op]++
	switch op {
	case obs.TableVerifyBad:
		if sm := int(e.Track); sm >= 0 && sm < len(c.streak) {
			c.streak[sm]++
			if c.streak[sm] > c.maxStreak {
				c.maxStreak = c.streak[sm]
			}
		}
	case obs.TableVerifyOK:
		if sm := int(e.Track); sm >= 0 && sm < len(c.streak) && c.streak[sm] > 0 {
			c.streakHist.Observe(c.streak[sm])
			c.streak[sm] = 0
		}
	case obs.TableCTAFill:
		c.capLive++
		c.capOccupancy.Observe(c.capLive)
	case obs.TableCTAEvict, obs.TableCTAInvalidate:
		if c.capLive > 0 {
			c.capLive--
		}
		c.capOccupancy.Observe(c.capLive)
	}
}

// foldCandidate attributes one generated prefetch to its seeding warp
// (Event.Val carries Candidate.SeedWarp).
func (c *Collector) foldCandidate(e obs.Event) {
	c.candidates++
	switch {
	case e.Val == 0:
		c.anchored++
		c.seedLead++
	case e.Val > 0:
		c.anchored++
		c.seedRe++
	default:
		c.unanchored++
		return
	}
	if r := c.ctaLedger(e.CTA); r != nil {
		if e.Val == 0 {
			r.seedLead++
		} else {
			r.seedRe++
		}
	}
}
