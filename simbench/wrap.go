package main

import (
	"fmt"
	"hash"
	"time"

	"caps/internal/config"
	"caps/internal/invariant"
	"caps/internal/obs"
	"caps/internal/prefetch"
	"caps/internal/sched"
	"caps/internal/stats"
)

// The traced run selects probed variants of the scheduler and prefetcher
// by registry name. Each probe forwards to the registered original and
// counts its calls; one call in sampleEvery is timed. The probes live
// only in this benchmark, so the simulator carries no tracing of its own.
const (
	probePrefix = "simbench-"
	sampleEvery = 64
	sampleMask  = sampleEvery - 1
	// maxSampleNS drops a timed call that absorbed a host stall (a
	// descheduling or GC pause): kept, it would be multiplied by
	// sampleEvery. No probed call takes anywhere near this long.
	maxSampleNS = int64(time.Millisecond)
)

// probedScheds and probedPrefs are the registry names the benchmark's
// workloads use; each gets a probed twin named probePrefix+name.
var (
	probedScheds = []string{"pas", "tlv"}
	probedPrefs  = []string{"caps", "none"}
)

// probes collects the probe instances sim.New builds for one run. GPU
// construction happens on the caller's goroutine, so the factories append
// without locking; the counters inside each probe belong to the goroutine
// that ticks its SM and are read only after Run returns.
type probes struct {
	scheds []*schedProbe
	prefs  []*prefProbe
}

// current receives the probes built by the next sim.New; nil outside a
// traced run, when the probed names are not selected at all.
var current *probes

func init() {
	for _, name := range probedScheds {
		name := name
		sched.Register(probePrefix+name, func(cfg config.GPUConfig) sched.Scheduler {
			inner, err := sched.New(name, cfg)
			if err != nil {
				panic(err) // registered at init above; a miss is a bug
			}
			return newSchedProbe(inner)
		})
	}
	for _, name := range probedPrefs {
		name := name
		prefetch.Register(probePrefix+name, func(cfg config.GPUConfig, st *stats.Sim) prefetch.Prefetcher {
			inner, err := prefetch.New(name, cfg, st)
			if err != nil {
				panic(err)
			}
			return wrapPrefetcher(inner)
		})
	}
}

// fullScheduler is every interface internal/sim asserts on a scheduler:
// sleep windows need Quiescer, stall replay needs StallRunner and
// StallCoster, obs wiring needs AttachObs and ObsTick, and the
// determinism checkpoints need HashState. Embedding it forwards all of
// them, so a probe cannot silently disable a fast-forward path.
type fullScheduler interface {
	sched.Scheduler
	sched.Quiescer
	sched.StallRunner
	sched.StallCoster
	AttachObs(*obs.Sink, int)
	ObsTick(now int64)
	HashState(h hash.Hash64)
}

// schedProbe counts Pick and OnWake calls and times sampled Picks.
type schedProbe struct {
	fullScheduler
	picks, pickSampled, pickNS int64
	wakes, promotions          int64
}

func newSchedProbe(inner sched.Scheduler) *schedProbe {
	full, ok := inner.(fullScheduler)
	if !ok {
		panic(fmt.Sprintf("simbench: scheduler %q lacks an interface internal/sim asserts", inner.Name()))
	}
	p := &schedProbe{fullScheduler: full}
	if current != nil {
		current.scheds = append(current.scheds, p)
	}
	return p
}

// Pick implements sched.Scheduler.
func (p *schedProbe) Pick(now int64, v sched.View) int {
	p.picks++
	if p.picks&sampleMask != 0 {
		return p.fullScheduler.Pick(now, v)
	}
	t0 := time.Now()
	slot := p.fullScheduler.Pick(now, v)
	if d := int64(time.Since(t0)); d < maxSampleNS {
		p.pickNS += d
		p.pickSampled++
	}
	return slot
}

// OnWake implements sched.Scheduler.
func (p *schedProbe) OnWake(slot int) bool {
	p.wakes++
	promoted := p.fullScheduler.OnWake(slot)
	if promoted {
		p.promotions++
	}
	return promoted
}

// prefExtras is every optional interface internal/sim asserts on a
// prefetcher. A prefetcher either has all of them (CAPS) or none (the
// baselines); the probe mirrors whichever it wraps.
type prefExtras interface {
	HashState(h hash.Hash64)
	invariant.Checker
	AttachObs(*obs.Sink, int)
}

// prefProbe counts OnLoad and OnMiss calls and times sampled ones.
type prefProbe struct {
	prefetch.Prefetcher
	loads, loadSampled, loadNS  int64
	misses, missSampled, missNS int64
}

// prefProbeFull is a prefProbe around a prefetcher with prefExtras.
type prefProbeFull struct {
	*prefProbe
	prefExtras
}

// wrapPrefetcher returns a probe that forwards exactly the optional
// interfaces inner implements.
func wrapPrefetcher(inner prefetch.Prefetcher) prefetch.Prefetcher {
	p := &prefProbe{Prefetcher: inner}
	if current != nil {
		current.prefs = append(current.prefs, p)
	}
	if ex, ok := inner.(prefExtras); ok {
		return prefProbeFull{prefProbe: p, prefExtras: ex}
	}
	_, h := inner.(interface{ HashState(hash.Hash64) })
	_, c := inner.(invariant.Checker)
	_, a := inner.(interface{ AttachObs(*obs.Sink, int) })
	if h || c || a {
		panic(fmt.Sprintf("simbench: prefetcher %q implements only part of the optional interfaces", inner.Name()))
	}
	return p
}

// OnLoad implements prefetch.Prefetcher.
func (p *prefProbe) OnLoad(o *prefetch.Observation) []prefetch.Candidate {
	p.loads++
	if p.loads&sampleMask != 0 {
		return p.Prefetcher.OnLoad(o)
	}
	t0 := time.Now()
	out := p.Prefetcher.OnLoad(o)
	if d := int64(time.Since(t0)); d < maxSampleNS {
		p.loadNS += d
		p.loadSampled++
	}
	return out
}

// OnMiss implements prefetch.Prefetcher.
func (p *prefProbe) OnMiss(now int64, line uint64, pc uint32) []prefetch.Candidate {
	p.misses++
	if p.misses&sampleMask != 0 {
		return p.Prefetcher.OnMiss(now, line, pc)
	}
	t0 := time.Now()
	out := p.Prefetcher.OnMiss(now, line, pc)
	if d := int64(time.Since(t0)); d < maxSampleNS {
		p.missNS += d
		p.missSampled++
	}
	return out
}

// probeTotals is the sum of one run's probes, with sampled times
// extrapolated to every call.
type probeTotals struct {
	Picks, Wakes, Promotions, ReplayPicks int64
	Loads, Misses                         int64
	PickNS, LoadNS, MissNS                float64
}

// totals sums the probes. clockNS, the cost of one clock read, is taken
// off every timed span before extrapolating.
func (ps *probes) totals(clockNS float64) probeTotals {
	var t probeTotals
	var pickNS, loadNS, missNS float64
	var pickS, loadS, missS int64
	for _, p := range ps.scheds {
		t.Picks += p.picks
		t.Wakes += p.wakes
		t.Promotions += p.promotions
		t.ReplayPicks += p.StallCost().Picks
		pickNS += float64(p.pickNS) - clockNS*float64(p.pickSampled)
		pickS += p.pickSampled
	}
	for _, p := range ps.prefs {
		t.Loads += p.loads
		t.Misses += p.misses
		loadNS += float64(p.loadNS) - clockNS*float64(p.loadSampled)
		missNS += float64(p.missNS) - clockNS*float64(p.missSampled)
		loadS += p.loadSampled
		missS += p.missSampled
	}
	t.PickNS = extrapolate(pickNS, pickS, t.Picks)
	t.LoadNS = extrapolate(loadNS, loadS, t.Loads)
	t.MissNS = extrapolate(missNS, missS, t.Misses)
	return t
}

func extrapolate(ns float64, sampled, calls int64) float64 {
	if sampled == 0 || ns < 0 {
		return 0
	}
	return ns * float64(calls) / float64(sampled)
}

// clockCost calibrates one clock read, the part of it a timed span
// includes: the minimum over a few batches, so a descheduling inflates one
// batch and not the result.
func clockCost() float64 {
	const batches, per = 8, 256
	best := float64(1 << 62)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			_ = time.Since(t0)
		}
		if d := float64(time.Since(t0)) / per; d < best {
			best = d
		}
	}
	return best
}
