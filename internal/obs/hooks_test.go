package obs

import (
	"fmt"
	"testing"
)

// hookRow is one hand-written expectation for a typed hook: the counter
// family it moves in each domain it accepts, the qualifier label its enum
// argument selects, and where its event goes.
type hookRow struct {
	hook   string
	kind   Kind
	fams   map[Domain]string // no entry: the hook counts nothing there
	key    string            // qualifier label key, "" for none
	values []string          // qualifier label values, indexed by the enum
	by     int64             // counter step (1 when 0)
	traced bool              // the bounded trace buffer keeps the event
	silent bool              // the hook builds no event (bulk counts)
	flag   bool              // the qualifier comes from a bool: no value is out of range
	// fire calls the hook on unit u of domain d with enum value v.
	fire func(s *Sink, d Domain, u, v int)
}

var (
	smOnly  = func(f string) map[Domain]string { return map[Domain]string{DomSM: f} }
	l1l2    = func(l1, l2 string) map[Domain]string { return map[Domain]string{DomSM: l1, DomPart: l2} }
	outcome = []string{"leading_promoted", "leading_bypassed", "demote_longlat", "demote_displaced", "wakeup_data", "wakeup_eager", "age_inversion"}
	phases  = []string{"launch", "first_issue", "base_ready", "drain", "retire"}
	ops     = []string{"dist_fill", "dist_hit", "dist_reclaim", "dist_full", "dist_disable", "verify_ok", "verify_bad", "cta_fill", "cta_hit", "cta_evict", "cta_invalidate"}
	reasons = []string{"queue_full", "dup", "stale", "cta_gone", "present", "in_flight", "set_full", "rejected"}
	classes = []string{"issue", "mem_structural", "barrier", "empty_ready", "drain", "idle"}
	access  = []string{"hit", "miss_new", "miss_merged", "store"}
	queues  = []string{"l1_mshr", "icnt_to_sm", "icnt_to_part", "l2_mshr", "dram_queue"}
)

// hookRows lists every typed hook with the families New registers for it.
var hookRows = []hookRow{
	{hook: "CTALaunch", kind: EvCTALaunch, fams: smOnly("cta_launch_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.CTALaunch(1, u, 2) }},
	{hook: "CTAFinish", kind: EvCTAFinish, fams: smOnly("cta_finish_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.CTAFinish(1, u, 2) }},
	{hook: "WarpDispatch", kind: EvWarpDispatch, fams: smOnly("warp_dispatch_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.WarpDispatch(1, u, 3, 2) }},
	{hook: "WarpStallBegin", kind: EvWarpStallBegin, fams: smOnly("warp_stall_begin_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.WarpStallBegin(1, u, 3) }},
	{hook: "WarpStallEnd", kind: EvWarpStallEnd, fams: smOnly("warp_stall_end_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.WarpStallEnd(1, u, 3) }},
	{hook: "CycleClass", kind: EvCycleClass, fams: smOnly("sm_cycle_class_total"), key: "class", values: classes, by: 3,
		fire: func(s *Sink, _ Domain, u, v int) { s.CycleClass(1, u, CycleClass(v), 3) }},
	{hook: "WarpBarrier", kind: EvWarpBarrier, fams: smOnly("warp_barrier_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.WarpBarrier(1, u, 3, 2) }},
	{hook: "WarpFinish", kind: EvWarpFinish, fams: smOnly("warp_finish_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.WarpFinish(1, u, 3) }},
	{hook: "SchedPromote", kind: EvSchedPromote, fams: smOnly("sched_promote_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.SchedPromote(1, u, 3) }},
	{hook: "SchedDemote", kind: EvSchedDemote, fams: smOnly("sched_demote_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.SchedDemote(1, u, 3) }},
	{hook: "SchedWakeup", kind: EvSchedWakeup, fams: smOnly("sched_wakeup_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.SchedWakeup(1, u, 3) }},
	{hook: "PickOutcome", kind: EvPickOutcome, fams: smOnly("sched_pick_total"), key: "outcome", values: outcome, traced: true,
		fire: func(s *Sink, _ Domain, u, v int) { s.PickOutcome(1, u, 3, PickOutcome(v)) }},
	{hook: "CTAPhase", kind: EvCTAPhase, fams: smOnly("cta_phase_total"), key: "phase", values: phases, traced: true,
		fire: func(s *Sink, _ Domain, u, v int) { s.CTAPhase(1, u, 2, CTAPhase(v)) }},
	{hook: "TableOp", kind: EvTableOp, fams: smOnly("caps_table_op_total"), key: "op", values: ops, traced: true,
		fire: func(s *Sink, _ Domain, u, v int) { s.TableOp(1, u, 2, 7, TableOp(v)) }},
	{hook: "DistAlloc", kind: EvDistAlloc, fams: smOnly("caps_dist_alloc_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.DistAlloc(1, u, 7) }},
	{hook: "PerCTAFill", kind: EvPerCTAFill, fams: smOnly("caps_percta_fill_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.PerCTAFill(1, u, 2, 7) }},
	{hook: "PrefCandidate", kind: EvPrefCandidate, fams: smOnly("pref_candidate_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.PrefCandidate(1, u, 3, 2, 7, 0x80, 1) }},
	{hook: "PrefDrop", kind: EvPrefDrop, fams: smOnly("pref_drop_total"), key: "reason", values: reasons, traced: true,
		fire: func(s *Sink, _ Domain, u, v int) { s.PrefDrop(1, u, 2, 7, 0x80, DropReason(v)) }},
	{hook: "PrefAdmit", kind: EvPrefAdmit, fams: smOnly("pref_admit_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.PrefAdmit(1, u, 3, 2, 7, 0x80) }},
	{hook: "PrefFill", kind: EvPrefFill, fams: smOnly("pref_fill_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.PrefFill(1, u, 3, 7, 0x80) }},
	{hook: "PrefConsume", kind: EvPrefConsume, fams: smOnly("pref_consume_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.PrefConsume(1, u, 3, 2, 7, 0x80, 40) }},
	{hook: "PrefLate", kind: EvPrefLate, fams: smOnly("pref_late_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.PrefLate(1, u, 7, 0x80) }},
	{hook: "PrefEarlyEvict", kind: EvPrefEarlyEvict, fams: smOnly("pref_early_evict_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.PrefEarlyEvict(1, u, 7, 0x80) }},
	{hook: "LoadIssue", kind: EvLoadIssue, fams: smOnly("load_issue_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.LoadIssue(1, u, 3, 2, 1, 7, 0x80, true) }},
	{hook: "MemAccess", kind: EvMemAccess, fams: l1l2("l1_access_total", "l2_access_total"), key: "outcome", values: access,
		fire: func(s *Sink, d Domain, u, v int) { s.MemAccess(1, d, u, 3, 2, 7, 0x80, AccessClass(v), false) }},
	{hook: "MemAccess/prefetch", kind: EvMemAccess, fams: l1l2("l1_access_total", "l2_access_total"), key: "outcome", values: access,
		fire: func(s *Sink, d Domain, u, v int) { s.MemAccess(1, d, u, 3, 2, 7, 0x80, AccessClass(v), true) }},
	{hook: "QueueSample", kind: EvQueueSample, values: queues, traced: true,
		fire: func(s *Sink, _ Domain, _, v int) { s.QueueSample(1, DomPart, 0, QueueKind(v), 4) }},
	{hook: "MSHRAlloc", kind: EvMSHRAlloc, fams: l1l2("l1_mshr_alloc_total", "l2_mshr_alloc_total"), traced: true,
		fire: func(s *Sink, d Domain, u, _ int) { s.MSHRAlloc(1, d, u, 0x80, false) }},
	{hook: "MSHRAlloc/prefetch", kind: EvMSHRAlloc, fams: l1l2("l1_mshr_alloc_total", "l2_mshr_alloc_total"), traced: true,
		fire: func(s *Sink, d Domain, u, _ int) { s.MSHRAlloc(1, d, u, 0x80, true) }},
	{hook: "MSHRMerge", kind: EvMSHRMerge, fams: l1l2("l1_mshr_merge_total", "l2_mshr_merge_total"), traced: true,
		fire: func(s *Sink, d Domain, u, _ int) { s.MSHRMerge(1, d, u, 0x80) }},
	{hook: "MSHRConvert", kind: EvMSHRConvert, fams: smOnly("l1_mshr_convert_total"), traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.MSHRConvert(1, u, 0x80) }},
	{hook: "ResFail", kind: EvResFail, fams: l1l2("l1_resfail_total", "l2_resfail_total"), key: "kind", values: []string{"mshr", "queue"}, flag: true, traced: true,
		fire: func(s *Sink, d Domain, u, v int) { s.ResFail(1, d, u, 0x80, v == 1) }},
	{hook: "ResFails", kind: EvResFail, fams: l1l2("l1_resfail_total", "l2_resfail_total"), key: "kind", values: []string{"mshr", "queue"}, flag: true, by: 5, silent: true,
		fire: func(s *Sink, d Domain, u, v int) { s.ResFails(d, u, v == 1, 5) }},
	{hook: "RowHit", kind: EvRowHit, fams: map[Domain]string{DomDRAM: "dram_row_hit_total"}, traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.RowHit(1, u, 3, 0x80) }},
	{hook: "RowMiss", kind: EvRowMiss, fams: map[Domain]string{DomDRAM: "dram_row_miss_total"}, traced: true,
		fire: func(s *Sink, _ Domain, u, _ int) { s.RowMiss(1, u, 3, 0x80) }},
}

// hookCfg gives each domain a different unit count, so a hook that files
// its counter under the wrong domain's units shows.
var hookCfg = Config{SMs: 2, Partitions: 3, Channels: 4, Trace: true}

func unitCount(d Domain) int {
	return [numDomains]int{DomSM: hookCfg.SMs, DomPart: hookCfg.Partitions, DomDRAM: hookCfg.Channels}[d]
}

func unitKey(d Domain) string {
	return [numDomains]string{DomSM: "sm", DomPart: "part", DomDRAM: "chan"}[d]
}

// counterValues maps name{labels} to value for every counter sample.
func counterValues(s *Sink) map[string]int64 {
	out := map[string]int64{}
	for _, x := range s.Snapshot() {
		if x.Kind == SampleCounter {
			out[x.FullName()] = x.Value
		}
	}
	return out
}

// fireFresh calls one hook on a fresh traced sink with a catch-all
// consumer and reports the counters that moved, the events it made, and
// whether any sample at all (histograms included) changed.
func fireFresh(r hookRow, d Domain, u, v int) (moved map[string]int64, consumed, traced []Event, changed bool) {
	s := New(hookCfg)
	var c collectConsumer
	s.Attach(&c)
	before, snap := counterValues(s), fmt.Sprint(s.Snapshot())
	r.fire(s, d, u, v)
	changed = fmt.Sprint(s.Snapshot()) != snap
	moved = map[string]int64{}
	for name, n := range counterValues(s) {
		if n != before[name] {
			moved[name] = n - before[name]
		}
	}
	return moved, c.events, s.Trace().Events(), changed
}

// TestHookFamilies drives every typed hook once for each valid domain,
// unit and enum value on a fresh sink: exactly one counter sample must
// move, by the hook's step, under the hand-written name{labels}, and the
// hook's event must reach the consumer (and the trace unless the kind
// bypasses it). An out-of-range unit, domain or enum value must move
// no sample, histograms included, and emit nothing.
func TestHookFamilies(t *testing.T) {
	for _, r := range hookRows {
		nv := max(len(r.values), 1)
		doms := []Domain{DomSM}
		if len(r.fams) > 0 {
			doms = doms[:0]
			for d := Domain(0); d < numDomains; d++ {
				if r.fams[d] != "" {
					doms = append(doms, d)
				}
			}
		}
		for _, d := range doms {
			units := 1
			if r.fams != nil {
				units = unitCount(d)
			}
			for u := 0; u < units; u++ {
				for v := 0; v < nv; v++ {
					where := fmt.Sprintf("%s(%v, unit %d, value %d)", r.hook, d, u, v)
					moved, consumed, traced, _ := fireFresh(r, d, u, v)
					want := map[string]int64{}
					if f := r.fams[d]; f != "" {
						labels := fmt.Sprintf(`%s="%d"`, unitKey(d), u)
						if r.key != "" {
							labels += fmt.Sprintf(`,%s="%s"`, r.key, r.values[v])
						}
						want[f+"{"+labels+"}"] = max(r.by, 1)
					}
					if fmt.Sprint(moved) != fmt.Sprint(want) {
						t.Errorf("%s moved %v, want %v", where, moved, want)
					}
					wantEvents, wantTraced := 1, 0
					if r.silent {
						wantEvents = 0
					} else if r.traced {
						wantTraced = 1
					}
					if len(consumed) != wantEvents || (wantEvents == 1 && consumed[0].Kind != r.kind) {
						t.Errorf("%s: consumer saw %v, want %d %v event", where, consumed, wantEvents, r.kind)
					}
					if len(traced) != wantTraced {
						t.Errorf("%s: trace holds %d events, want %d", where, len(traced), wantTraced)
					}
				}
			}
		}

		// Out of range: past the enum, off either end of a unit range,
		// and (for the cache hooks) the DRAM domain.
		type probe struct {
			d    Domain
			u, v int
		}
		var probes []probe
		if r.values != nil && !r.flag {
			probes = append(probes, probe{doms[0], 0, len(r.values)})
		}
		for _, d := range doms {
			if r.fams != nil {
				probes = append(probes, probe{d, -1, 0}, probe{d, unitCount(d), 0})
			}
		}
		if r.fams[DomSM] != "" && r.fams[DomPart] != "" {
			probes = append(probes, probe{DomDRAM, 0, 0})
		}
		for _, p := range probes {
			moved, consumed, traced, changed := fireFresh(r, p.d, p.u, p.v)
			if changed || len(consumed) != 0 || len(traced) != 0 {
				t.Errorf("%s(%v, unit %d, value %d) out of range: moved %v, consumed %d, traced %d events; want nothing",
					r.hook, p.d, p.u, p.v, moved, len(consumed), len(traced))
			}
		}
	}
}

// TestUncountedHooks pins the hooks that own no counter family: progress
// beats, queue samples and the histogram and gauge hooks move no counter.
func TestUncountedHooks(t *testing.T) {
	s := New(hookCfg)
	var c collectConsumer
	s.Attach(&c)
	before := counterValues(s)
	s.Progress(10, 100)
	s.DemandLatency(30)
	s.RunDone(11)
	if after := counterValues(s); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Error("a progress beat, demand latency or run end moved a counter")
	}
	if len(c.events) != 1 || c.events[0].Kind != EvProgress || s.Trace().Len() != 0 {
		t.Errorf("progress beat: consumer saw %v, trace holds %d; want one EvProgress, streamed only", c.events, s.Trace().Len())
	}
}
