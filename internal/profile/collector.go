// Package profile folds the obs event stream into CPI-style stall-cycle
// stacks and a per-load-PC prefetch ledger, entirely online: the Collector
// is an obs.Consumer with bounded memory, so profiling a 30M-cycle run
// never buffers the trace. Build validates the core invariant — every SM
// cycle is attributed to exactly one stall-stack bucket, and per SM the
// buckets sum to the run's total cycles — and renders an immutable Profile
// that can be serialized, diffed against another run (the CI perf gate),
// or rendered as an HTML report.
package profile

import (
	"fmt"
	"sort"

	"caps/internal/obs"
	"caps/internal/stats"
)

// maxLedgers bounds the per-PC and per-CTA maps. Real kernels have a
// handful of static loads and at most a few thousand CTAs; past the cap
// new keys are counted as truncated instead of growing without bound.
const maxLedgers = 4096

// ledger accumulates the prefetch lifecycle for one key (a load PC or a
// CTA). Fills/Lates/EarlyEvicts stay zero for CTA keys: those events carry
// no CTA attribution (the line has left the CTA's context by then).
type ledger struct {
	candidates  int64
	drops       [obs.NumDropReasons]int64
	admits      int64
	fills       int64
	consumes    int64
	lates       int64
	earlyEvicts int64
	distanceSum int64
}

// Collector is the streaming profiler. Attach it to a sink before the
// first simulated cycle:
//
//	col := profile.NewCollector(cfg.NumSMs)
//	snk.Attach(col)
//	... run ...
//	p, err := col.Build(meta, st)
type Collector struct {
	classes [][obs.NumCycleClasses]int64 // per-SM stall-stack buckets

	pcs  map[uint32]*ledger
	ctas map[int32]*ledger

	truncPCs  int64 // events lost to the maxLedgers cap, by key kind
	truncCTAs int64
}

// NewCollector sizes a collector for numSMs cores.
func NewCollector(numSMs int) *Collector {
	if numSMs < 0 {
		numSMs = 0
	}
	return &Collector{
		classes: make([][obs.NumCycleClasses]int64, numSMs),
		pcs:     make(map[uint32]*ledger),
		ctas:    make(map[int32]*ledger),
	}
}

var _ obs.Consumer = (*Collector)(nil)
var _ obs.KindFilter = (*Collector)(nil)
var _ obs.RunFolder = (*Collector)(nil)

// FoldsCycleRuns implements obs.RunFolder: the stall stack only sums each
// SM's cycles per class, so a settled run folds as its length.
func (c *Collector) FoldsCycleRuns() bool { return true }

// WantsKind implements obs.KindFilter: exactly the kinds the Consume switch
// folds. Declining the rest keeps them dead on a sink with no other
// subscriber, so a profiled run does not build, say, the tens of millions
// of reservation-fail events a memory-bound benchmark produces.
func (c *Collector) WantsKind(k obs.Kind) bool {
	switch k {
	case obs.EvCycleClass, obs.EvPrefCandidate, obs.EvPrefDrop,
		obs.EvPrefAdmit, obs.EvPrefFill, obs.EvPrefConsume,
		obs.EvPrefLate, obs.EvPrefEarlyEvict:
		return true
	}
	return false
}

// pcLedger returns the ledger for a load PC, or nil once the cap is hit.
func (c *Collector) pcLedger(pc uint32) *ledger {
	if l, ok := c.pcs[pc]; ok {
		return l
	}
	if len(c.pcs) >= maxLedgers {
		c.truncPCs++
		return nil
	}
	l := &ledger{}
	c.pcs[pc] = l
	return l
}

// ctaLedger returns the ledger for a CTA (negative IDs mean "unknown" and
// are not tracked), or nil once the cap is hit.
func (c *Collector) ctaLedger(cta int32) *ledger {
	if cta < 0 {
		return nil
	}
	if l, ok := c.ctas[cta]; ok {
		return l
	}
	if len(c.ctas) >= maxLedgers {
		c.truncCTAs++
		return nil
	}
	l := &ledger{}
	c.ctas[cta] = l
	return l
}

// Consume implements obs.Consumer. It folds one event and returns; every
// branch is O(1) so profiling cannot slow the stream down asymptotically.
func (c *Collector) Consume(e obs.Event) {
	switch e.Kind {
	case obs.EvCycleClass:
		sm := int(e.Track)
		if sm >= 0 && sm < len(c.classes) && int(e.Arg) < int(obs.NumCycleClasses) {
			c.classes[sm][e.Arg] += e.Cycles()
		}
	case obs.EvPrefCandidate:
		if l := c.pcLedger(e.PC); l != nil {
			l.candidates++
		}
		if l := c.ctaLedger(e.CTA); l != nil {
			l.candidates++
		}
	case obs.EvPrefDrop:
		if int(e.Arg) >= obs.NumDropReasons {
			return
		}
		if l := c.pcLedger(e.PC); l != nil {
			l.drops[e.Arg]++
		}
		if l := c.ctaLedger(e.CTA); l != nil {
			l.drops[e.Arg]++
		}
	case obs.EvPrefAdmit:
		if l := c.pcLedger(e.PC); l != nil {
			l.admits++
		}
		if l := c.ctaLedger(e.CTA); l != nil {
			l.admits++
		}
	case obs.EvPrefFill:
		if l := c.pcLedger(e.PC); l != nil {
			l.fills++
		}
	case obs.EvPrefConsume:
		if l := c.pcLedger(e.PC); l != nil {
			l.consumes++
			l.distanceSum += e.Val
		}
		if l := c.ctaLedger(e.CTA); l != nil {
			l.consumes++
			l.distanceSum += e.Val
		}
	case obs.EvPrefLate:
		if l := c.pcLedger(e.PC); l != nil {
			l.lates++
		}
	case obs.EvPrefEarlyEvict:
		if l := c.pcLedger(e.PC); l != nil {
			l.earlyEvicts++
		}
	}
}

// Build validates the stall-stack invariant against the run's statistics
// and renders the folded state as a Profile. The collector stays usable
// (Build does not reset it), but a profile is a snapshot: keep feeding
// events and Build again for a later view.
func (c *Collector) Build(meta Meta, st *stats.Sim) (*Profile, error) {
	if st == nil {
		return nil, fmt.Errorf("profile: Build needs the run's stats")
	}
	p := &Profile{
		Meta:            meta,
		TotalCycles:     st.Cycles,
		Instructions:    st.Instructions,
		IPC:             st.IPC(),
		Coverage:        st.Coverage(),
		Accuracy:        st.Accuracy(),
		EarlyEvictRatio: st.EarlyPrefetchRatio(),
		MeanDistance:    st.MeanPrefetchDistance(),
		StallStack:      make(map[string]int64, int(obs.NumCycleClasses)),
		TruncatedPCs:    c.truncPCs,
		TruncatedCTAs:   c.truncCTAs,
	}
	for sm := range c.classes {
		stack := SMStack{SM: sm, Classes: make(map[string]int64, int(obs.NumCycleClasses))}
		var sum int64
		for cl := obs.CycleClass(0); cl < obs.NumCycleClasses; cl++ {
			n := c.classes[sm][cl]
			sum += n
			stack.Classes[cl.String()] = n
			p.StallStack[cl.String()] += n
		}
		if sum != st.Cycles {
			return nil, fmt.Errorf("profile: SM %d stall stack sums to %d cycles, run has %d — a cycle went unclassified or double-counted",
				sm, sum, st.Cycles)
		}
		p.SMs = append(p.SMs, stack)
	}

	pcKeys := make([]uint32, 0, len(c.pcs))
	for pc := range c.pcs { //simcheck:allow detlint keys sorted below
		pcKeys = append(pcKeys, pc)
	}
	sort.Slice(pcKeys, func(i, j int) bool { return pcKeys[i] < pcKeys[j] })
	for _, pc := range pcKeys {
		p.PCs = append(p.PCs, PCEntry{PC: pc, LedgerCounts: c.pcs[pc].counts()})
	}

	ctaKeys := make([]int32, 0, len(c.ctas))
	for cta := range c.ctas { //simcheck:allow detlint keys sorted below
		ctaKeys = append(ctaKeys, cta)
	}
	sort.Slice(ctaKeys, func(i, j int) bool { return ctaKeys[i] < ctaKeys[j] })
	for _, cta := range ctaKeys {
		p.CTAs = append(p.CTAs, CTAEntry{CTA: cta, LedgerCounts: c.ctas[cta].counts()})
	}
	return p, nil
}

// counts converts the internal accumulator into the exported JSON shape
// shared by PC and CTA entries.
func (l *ledger) counts() LedgerCounts {
	lc := LedgerCounts{
		Candidates:  l.candidates,
		Admits:      l.admits,
		Fills:       l.fills,
		Consumes:    l.consumes,
		Lates:       l.lates,
		EarlyEvicts: l.earlyEvicts,
		Drops:       make(map[string]int64),
	}
	for r := 0; r < obs.NumDropReasons; r++ {
		if n := l.drops[r]; n != 0 {
			lc.Drops[obs.DropReason(r).String()] = n
		}
	}
	if l.admits > 0 {
		lc.Accuracy = float64(l.consumes+l.lates) / float64(l.admits)
	}
	if l.consumes > 0 {
		lc.MeanDistance = float64(l.distanceSum) / float64(l.consumes)
	}
	return lc
}
