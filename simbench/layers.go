package main

import (
	"fmt"
	"math"
	"os"

	"caps/internal/hostprof"
	"caps/internal/stats"
)

// traced is the per-layer run. It makes these passes over the workload:
//
//   - plain: the workload as measure runs it, for trace.overhead_pct;
//   - hostprof: plain plus hostprof only (the lensed workload already
//     attaches it, so plain serves), the reference fast-forward ledger;
//   - traced: plain plus hostprof, the probed scheduler and prefetcher
//     and heap counters, which gives every sim/sched/core/prefetch/mem
//     metric;
//   - one pass per lens variant over the workload's Probe runs: no sink,
//     bare sink, then the bare sink plus one lens each, for the obs
//     metrics.
//
// Every run's digest is checked; the traced pass must also reproduce the
// reference ledger run for run, and its probe and hostprof times must
// reconcile. A failed check counts as a failed operation.
func traced(c *ctx, seed int64) outcome {
	res := outcome{Metrics: map[string]metric{}}
	root := c.tr.begin("workload", 0, map[string]string{"workload": c.w.Name, "seed": fmt.Sprint(seed)})
	defer c.tr.end(root)
	runs := c.w.order(seed)

	pass := func(specs []spec, a attach, label string) []result {
		out := make([]result, 0, len(specs))
		for _, s := range specs {
			r := c.execute(s, a, root, label)
			res.Attempted++
			if r.err != nil {
				res.Failed++
				fmt.Fprintln(os.Stderr, "simbench:", label, r.err)
			}
			out = append(out, r)
		}
		return out
	}
	fail := func(format string, args ...any) {
		res.Failed++
		fmt.Fprintf(os.Stderr, "simbench: "+format+"\n", args...)
	}

	plain := pass(runs, c.w.attach(), "plain")
	ref := plain
	if !c.w.Lensed {
		ref = pass(runs, attach{hostprof: true}, "hostprof")
	}
	ta := c.w.attach()
	ta.hostprof, ta.probed, ta.heap = true, true, true
	tp := pass(runs, ta, "traced")

	for i, r := range tp {
		if r.err != nil || ref[i].err != nil {
			continue
		}
		if got, want := ledger(r.host), ledger(ref[i].host); got != want {
			fail("%s: traced fast-forward ledger %+v differs from hostprof-only %+v", r.spec.key(), got, want)
		}
		if err := reconcile(r, c.w.Workers); err != nil {
			fail("%s: %v", r.spec.key(), err)
		}
	}

	m := res.Metrics
	c.simLayers(m, tp)
	c.modelLayers(m, tp)
	m["trace.overhead_pct"] = metric{pct(wallNS(tp), wallNS(plain)), "%"}
	c.obsLayers(m, pass)
	res.Correct = res.Failed == 0
	return res
}

// ffLedger is the fast-forward outcome of one run; it is deterministic,
// so any attachment that leaves it changed has altered the executor.
type ffLedger struct {
	TickedSteps, SleepCycles, StallReplayCycles, SkippedCycles int64
}

func ledger(p *hostprof.Profile) ffLedger {
	if p == nil {
		return ffLedger{}
	}
	s := p.Skip
	return ffLedger{s.TickedSteps, s.FullSleepCycles + s.IssueSleepCycles, s.StallReplayCycles, s.SkippedCycles}
}

// smNS is the SM phase as the probes see it: its wall-clock when serial,
// the workers' summed busy time when parallel (the probes sum over
// workers).
func smNS(p *hostprof.Profile, workers int) float64 {
	if workers <= 1 {
		return phaseNS(p, "sm")
	}
	var busy float64
	for _, w := range p.Workers {
		busy += float64(w.BusyNS)
	}
	return busy
}

func phaseNS(p *hostprof.Profile, name string) float64 {
	for _, ph := range p.Phases {
		if ph.Name == name {
			return float64(ph.NS)
		}
	}
	return 0
}

// reconcile checks that the probed calls fit inside the SM phase and
// that hostprof's phases add up to the simulate span within hostprof's
// own tolerance. A run whose host profile missed that tolerance already
// (see validateHost) is counted there, not here.
func reconcile(r result, workers int) error {
	probed := r.probes.PickNS + r.probes.LoadNS + r.probes.MissNS
	if sm := smNS(r.host, workers); probed > sm {
		return fmt.Errorf("probed sched+prefetch time %.0fns exceeds the SM phase %.0fns", probed, sm)
	}
	if r.coverageMiss {
		return nil
	}
	var sum float64
	for _, ph := range r.host.Phases {
		sum += float64(ph.NS)
	}
	if d := math.Abs(sum-float64(r.simNS)) / float64(r.simNS); d > hostprof.DefaultTolerance {
		return fmt.Errorf("hostprof phases sum to %.0fns, simulate span is %dns", sum, r.simNS)
	}
	return nil
}

// simLayers reports the executor's host time, fast-forward ledger,
// worker balance, heap and set-up from the traced pass.
func (c *ctx) simLayers(m map[string]metric, tp []result) {
	var phases = map[string]float64{}
	var sm, probed, busy, smPhase, wait float64
	var led ffLedger
	var alloc, gcs, newNS, kernelNS, misses float64
	for _, r := range tp {
		if r.coverageMiss {
			misses++
		}
		if r.host == nil {
			continue
		}
		for _, ph := range r.host.Phases {
			phases[ph.Name] += float64(ph.NS)
		}
		sm += smNS(r.host, c.w.Workers)
		probed += r.probes.PickNS + r.probes.LoadNS + r.probes.MissNS
		for _, w := range r.host.Workers {
			busy += float64(w.BusyNS)
			wait += float64(w.WaitNS)
		}
		smPhase += phaseNS(r.host, "sm") * float64(len(r.host.Workers))
		l := ledger(r.host)
		led.TickedSteps += l.TickedSteps
		led.SleepCycles += l.SleepCycles
		led.StallReplayCycles += l.StallReplayCycles
		led.SkippedCycles += l.SkippedCycles
		alloc += float64(r.allocBytes)
		gcs += float64(r.gcs)
		newNS += float64(r.newNS)
		kernelNS += float64(r.kernelNS)
	}
	m["sim.sm_ms"] = metric{phases["sm"] / 1e6, "ms"}
	m["sim.mem_ms"] = metric{phases["mem"] / 1e6, "ms"}
	m["sim.commit_ms"] = metric{phases["commit"] / 1e6, "ms"}
	m["sim.other_ms"] = metric{(phases["other"] + phases[hostprof.PhaseLoop]) / 1e6, "ms"}
	m["sim.sm_self_ms"] = metric{(sm - probed) / 1e6, "ms"}
	m["sim.ticked_steps"] = metric{float64(led.TickedSteps), "count"}
	m["sim.sleep_cycles"] = metric{float64(led.SleepCycles), "cycles"}
	m["sim.stall_replay_cycles"] = metric{float64(led.StallReplayCycles), "cycles"}
	m["sim.skipped_cycles"] = metric{float64(led.SkippedCycles), "cycles"}
	m["sim.worker_util"] = metric{ratio(busy, smPhase), "ratio"}
	m["sim.worker_wait_ms"] = metric{wait / 1e6, "ms"}
	m["sim.alloc_mb"] = metric{alloc / 1e6, "MB"}
	m["sim.gc_cycles"] = metric{gcs, "count"}
	m["hostprof.coverage_misses"] = metric{misses, "count"}
	m["sim.new_ms"] = metric{newNS / 1e6, "ms"}
	m["kernels.build_ms"] = metric{kernelNS / 1e6, "ms"}
}

// modelLayers reports the scheduler, CAPS, prefetch and memory layers:
// probe counts and times from the traced pass plus exact statistics.
// Prefetch and CAP-table figures sum over the CAPS runs, memory figures
// over every run.
func (c *ctx) modelLayers(m map[string]metric, tp []result) {
	var pt probeTotals
	var all, caps stats.Sim
	for _, r := range tp {
		p := r.probes
		pt.Picks += p.Picks
		pt.Wakes += p.Wakes
		pt.Promotions += p.Promotions
		pt.ReplayPicks += p.ReplayPicks
		pt.Loads += p.Loads
		pt.PickNS += p.PickNS
		pt.LoadNS += p.LoadNS
		st := r.st
		all.AddFrom(&st)
		if r.spec.Pref == "caps" {
			st = r.st
			caps.AddFrom(&st)
		}
	}
	m["sched.pick_calls"] = metric{float64(pt.Picks), "count"}
	m["sched.pick_ms"] = metric{pt.PickNS / 1e6, "ms"}
	m["sched.wake_calls"] = metric{float64(pt.Wakes), "count"}
	m["sched.wakeup_promotions"] = metric{float64(pt.Promotions), "count"}
	m["sched.replay_picks"] = metric{float64(pt.ReplayPicks), "count"}

	m["core.onload_calls"] = metric{float64(pt.Loads), "count"}
	m["core.onload_ms"] = metric{pt.LoadNS / 1e6, "ms"}
	m["core.table_lookups"] = metric{float64(caps.PrefTableLookup), "count"}
	m["core.verify_bad_frac"] = metric{ratio(float64(caps.PrefVerifyBad), float64(caps.PrefVerifyOK+caps.PrefVerifyBad)), "ratio"}
	m["prefetch.issued"] = metric{float64(caps.PrefIssued), "count"}
	m["prefetch.dropped_frac"] = metric{ratio(float64(caps.PrefDropped), float64(caps.PrefIssued+caps.PrefDropped)), "ratio"}
	m["prefetch.accuracy"] = metric{caps.Accuracy(), "ratio"}
	m["prefetch.coverage"] = metric{caps.Coverage(), "ratio"}
	m["prefetch.late_frac"] = metric{ratio(float64(caps.PrefLate), float64(caps.PrefUseful+caps.PrefLate)), "ratio"}

	m["mem.l1_hit_rate"] = metric{ratio(float64(all.DemandHits), float64(all.DemandAccesses)), "ratio"}
	m["mem.reservation_fails"] = metric{float64(all.ReservationFails), "count"}
	m["mem.l2_hit_rate"] = metric{ratio(float64(all.L2Hits), float64(all.L2Accesses)), "ratio"}
	m["mem.dram_reads"] = metric{float64(all.DRAMReads), "count"}
	m["mem.row_hit_rate"] = metric{ratio(float64(all.DRAMRowHits), float64(all.DRAMRowHits+all.DRAMRowMisses)), "ratio"}
	m["mem.demand_latency_cycles"] = metric{all.MeanDemandLatency(), "cycles"}
}

// lensVariants are the obs passes: no sink, the bare sink, then the bare
// sink plus one lens each. A lens's overhead is its marginal cost over
// the bare sink; the sink's is its cost over no sink.
var lensVariants = []struct {
	name string
	a    attach
}{
	{"none", attach{}},
	{"sink", attach{sink: true}},
	{"profile", attach{sink: true, profile: true}},
	{"memlens", attach{sink: true, memlens: true}},
	{"schedlens", attach{sink: true, schedlens: true}},
	{"hostprof", attach{sink: true, hostprof: true}},
}

// obsLayers runs the lens variants over the workload's Probe runs.
func (c *ctx) obsLayers(m map[string]metric, pass func([]spec, attach, string) []result) {
	wall := map[string]float64{}
	for _, v := range lensVariants {
		rs := pass(c.w.Probe, v.a, "lens-"+v.name)
		var sim, build float64
		for _, r := range rs {
			sim += float64(r.simNS)
			for _, b := range r.buildNS {
				build += float64(b)
			}
			if v.name == "sink" {
				m["obs.events"] = metric{m["obs.events"].Value + float64(r.events), "count"}
			}
		}
		wall[v.name] = sim
		if v.name != "none" && v.name != "sink" {
			m[v.name+".build_validate_ms"] = metric{build / 1e6, "ms"}
		}
	}
	m["obs.sink_overhead_pct"] = metric{pct(wall["sink"], wall["none"]), "%"}
	for _, l := range lensNames {
		m[l+".overhead_pct"] = metric{pct(wall[l], wall["sink"]), "%"}
	}
}

// wallNS is a pass's measured time as measure counts it: simulate plus
// any lens Build+Validate.
func wallNS(rs []result) float64 {
	var n float64
	for _, r := range rs {
		n += float64(r.simNS + r.buildTotalNS())
	}
	return n
}

func pct(v, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return (v/base - 1) * 100
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
