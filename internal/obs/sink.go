package obs

// Config sizes a Sink for one GPU: one metrics block and one trace track
// per SM, memory partition and DRAM channel.
type Config struct {
	SMs        int
	Partitions int
	Channels   int

	// Trace enables the event tracer; without it the sink collects
	// metrics only.
	Trace bool
	// TraceCap bounds buffered events (DefaultTraceCap when <= 0).
	TraceCap int
}

// smMetrics is the per-SM counter block.
type smMetrics struct {
	ctaLaunch, ctaFinish                   *Counter
	warpDispatch, warpBarrier, warpFinish  *Counter
	warpStallBegin, warpStallEnd           *Counter
	schedPromote, schedDemote, schedWakeup *Counter
	distAlloc, perCTAFill                  *Counter
	pickOutcome                            [numPickOutcomes]*Counter
	ctaPhase                               [numCTAPhases]*Counter
	tableOp                                [numTableOps]*Counter
	prefCandidate, prefAdmit, prefFill     *Counter
	prefConsume, prefLate, prefEarlyEvict  *Counter
	prefDrop                               [numDropReasons]*Counter
	cycleClass                             [NumCycleClasses]*Counter
	mshrAlloc, mshrMerge, mshrConvert      *Counter
	resFailMSHR, resFailQueue              *Counter
	loadIssue                              *Counter
	access                                 [NumAccessClasses]*Counter
}

// partMetrics is the per-partition (L2 slice) counter block.
type partMetrics struct {
	mshrAlloc, mshrMerge      *Counter
	resFailMSHR, resFailQueue *Counter
	access                    [NumAccessClasses]*Counter
}

// chanMetrics is the per-DRAM-channel counter block.
type chanMetrics struct {
	rowHit, rowMiss *Counter
}

// Sink is the per-run observability hub. One Sink serves one GPU; shared
// state (counters, histograms, trace, consumers) is only ever touched from
// the simulation goroutine, so updates are unsynchronized. Under parallel
// SM ticking (sim.WithWorkers) that contract is preserved by staging: DomSM
// hooks fired from worker goroutines park events in per-SM lanes (see
// stage.go) and the single-threaded commit phase replays them in SM order.
// Every method is safe on a nil *Sink and returns immediately, which is
// how disabled observability stays within its <=2% budget: hook sites pay
// one nil check and nothing else.
//
//caps:shared observability
type Sink struct {
	cfg   Config
	reg   *Registry
	trace *Trace

	// stage is nil until EnableStaging; serial runs never pay more than
	// this one pointer check per hook.
	stage *stageState

	// consumers receive every emitted event in emission order (streaming
	// profilers; see internal/profile). They hold bounded state of their
	// own — the sink never buffers on their behalf. cycleStream is the
	// subset that wants EvCycleClass (see StreamFilter): the per-SM-per-cycle
	// firehose is only constructed when someone will fold it. byKind holds
	// the subscriber list per event kind (see KindFilter): emit dispatches
	// each event only to consumers that will fold its kind, so a collector
	// ignoring, say, EvResFail never pays an interface call for one.
	consumers   []Consumer
	cycleStream []Consumer
	byKind      [numKinds][]Consumer

	cyclesG   *Gauge
	prefDist  *Histogram
	demandLat *Histogram

	sm   []smMetrics
	part []partMetrics
	ch   []chanMetrics
}

// Consumer is a streaming event observer attached to a Sink. Consume is
// called synchronously from the simulation goroutine for every event, in
// emission order (cycle-monotonic per track); implementations must not
// retain the simulator's attention — fold the event and return. High-rate
// events that bypass the trace buffer (EvCycleClass) still reach consumers.
type Consumer interface {
	Consume(e Event)
}

// StreamFilter is an optional Consumer refinement: a consumer that would
// discard EvCycleClass anyway (the flight recorder, by default) returns
// false and the sink skips constructing the per-SM-per-cycle event for it
// entirely. Consumers that don't implement the interface receive
// everything.
type StreamFilter interface {
	WantsCycleClass() bool
}

// KindFilter is an optional Consumer refinement: a consumer that folds
// only a subset of event kinds declares the subset here, and the sink
// drops it from the dispatch lists of every kind it declines — the
// declined kinds then cost it nothing, not even the interface call.
// Complements StreamFilter, which additionally gates *construction* of
// the per-cycle EvCycleClass event. WantsKind is consulted once per kind
// at Attach time and must be pure. Consumers that don't implement the
// interface receive everything.
type KindFilter interface {
	WantsKind(k Kind) bool
}

// New builds a sink, registering the full per-unit metric set up front so
// hot-path updates never touch the registry.
func New(cfg Config) *Sink {
	s := &Sink{cfg: cfg, reg: NewRegistry()}
	if cfg.Trace {
		s.trace = NewTrace(cfg.TraceCap)
	}
	s.cyclesG = s.reg.Gauge("sim_cycles")
	s.prefDist = s.reg.Histogram("pref_distance_cycles", 100, 20)
	s.demandLat = s.reg.Histogram("demand_latency_cycles", 100, 20)

	s.sm = make([]smMetrics, cfg.SMs)
	for i := range s.sm {
		l := Label{Key: "sm", Value: itoa(i)}
		m := &s.sm[i]
		m.ctaLaunch = s.reg.Counter("cta_launch_total", l)
		m.ctaFinish = s.reg.Counter("cta_finish_total", l)
		m.warpDispatch = s.reg.Counter("warp_dispatch_total", l)
		m.warpStallBegin = s.reg.Counter("warp_stall_begin_total", l)
		m.warpStallEnd = s.reg.Counter("warp_stall_end_total", l)
		m.warpBarrier = s.reg.Counter("warp_barrier_total", l)
		m.warpFinish = s.reg.Counter("warp_finish_total", l)
		m.schedPromote = s.reg.Counter("sched_promote_total", l)
		m.schedDemote = s.reg.Counter("sched_demote_total", l)
		m.schedWakeup = s.reg.Counter("sched_wakeup_total", l)
		m.distAlloc = s.reg.Counter("caps_dist_alloc_total", l)
		m.perCTAFill = s.reg.Counter("caps_percta_fill_total", l)
		for o := PickOutcome(0); o < numPickOutcomes; o++ {
			m.pickOutcome[o] = s.reg.Counter("sched_pick_total", l, Label{Key: "outcome", Value: o.String()})
		}
		for p := CTAPhase(0); p < numCTAPhases; p++ {
			m.ctaPhase[p] = s.reg.Counter("cta_phase_total", l, Label{Key: "phase", Value: p.String()})
		}
		for o := TableOp(0); o < numTableOps; o++ {
			m.tableOp[o] = s.reg.Counter("caps_table_op_total", l, Label{Key: "op", Value: o.String()})
		}
		m.prefCandidate = s.reg.Counter("pref_candidate_total", l)
		m.prefAdmit = s.reg.Counter("pref_admit_total", l)
		m.prefFill = s.reg.Counter("pref_fill_total", l)
		m.prefConsume = s.reg.Counter("pref_consume_total", l)
		m.prefLate = s.reg.Counter("pref_late_total", l)
		m.prefEarlyEvict = s.reg.Counter("pref_early_evict_total", l)
		for r := DropReason(0); r < numDropReasons; r++ {
			m.prefDrop[r] = s.reg.Counter("pref_drop_total", l, Label{Key: "reason", Value: r.String()})
		}
		for c := CycleClass(0); c < NumCycleClasses; c++ {
			m.cycleClass[c] = s.reg.Counter("sm_cycle_class_total", l, Label{Key: "class", Value: c.String()})
		}
		m.mshrAlloc = s.reg.Counter("l1_mshr_alloc_total", l)
		m.mshrMerge = s.reg.Counter("l1_mshr_merge_total", l)
		m.mshrConvert = s.reg.Counter("l1_mshr_convert_total", l)
		m.resFailMSHR = s.reg.Counter("l1_resfail_total", l, Label{Key: "kind", Value: "mshr"})
		m.resFailQueue = s.reg.Counter("l1_resfail_total", l, Label{Key: "kind", Value: "queue"})
		m.loadIssue = s.reg.Counter("load_issue_total", l)
		for a := AccessClass(0); a < NumAccessClasses; a++ {
			m.access[a] = s.reg.Counter("l1_access_total", l, Label{Key: "outcome", Value: a.String()})
		}
	}
	s.part = make([]partMetrics, cfg.Partitions)
	for i := range s.part {
		l := Label{Key: "part", Value: itoa(i)}
		m := &s.part[i]
		m.mshrAlloc = s.reg.Counter("l2_mshr_alloc_total", l)
		m.mshrMerge = s.reg.Counter("l2_mshr_merge_total", l)
		m.resFailMSHR = s.reg.Counter("l2_resfail_total", l, Label{Key: "kind", Value: "mshr"})
		m.resFailQueue = s.reg.Counter("l2_resfail_total", l, Label{Key: "kind", Value: "queue"})
		for a := AccessClass(0); a < NumAccessClasses; a++ {
			m.access[a] = s.reg.Counter("l2_access_total", l, Label{Key: "outcome", Value: a.String()})
		}
	}
	s.ch = make([]chanMetrics, cfg.Channels)
	for i := range s.ch {
		l := Label{Key: "chan", Value: itoa(i)}
		s.ch[i].rowHit = s.reg.Counter("dram_row_hit_total", l)
		s.ch[i].rowMiss = s.reg.Counter("dram_row_miss_total", l)
	}
	return s
}

// itoa avoids strconv for the tiny ids used in labels (also keeps the
// import set minimal).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Trace exposes the event buffer (nil when tracing is disabled).
func (s *Sink) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.trace
}

// Snapshot returns the current metric samples (nil for a nil sink).
func (s *Sink) Snapshot() []Sample {
	if s == nil {
		return nil
	}
	return s.reg.Snapshot()
}

// Attach registers a streaming consumer. Not safe to call mid-run: attach
// everything before the first simulated cycle so consumers see the whole
// stream. Nil-safe (attaching to a disabled sink is a no-op).
func (s *Sink) Attach(c Consumer) {
	if s == nil || c == nil {
		return
	}
	s.consumers = append(s.consumers, c)
	kf, filtered := c.(KindFilter)
	for k := Kind(0); k < numKinds; k++ {
		if !filtered || kf.WantsKind(k) {
			s.byKind[k] = append(s.byKind[k], c)
		}
	}
	// The per-cycle stream is gated by both refinements: StreamFilter (the
	// historical opt-out) and KindFilter declining EvCycleClass.
	if f, ok := c.(StreamFilter); !ok || f.WantsCycleClass() {
		if !filtered || kf.WantsKind(EvCycleClass) {
			s.cycleStream = append(s.cycleStream, c)
		}
	}
}

// emit is on the hot path: every observability hook funnels through it
// (or emitStream) once per event, including the per-cycle CycleClass.
//
//caps:hotpath
func (s *Sink) emit(e Event) {
	if s.trace != nil {
		s.trace.Append(e)
	}
	for _, c := range s.byKind[e.Kind] {
		c.Consume(e) //caps:alloc-ok consumers fold events into their own bounded state (profilers, lenses, flight recorder) //caps:shared-sync obs-consumers

	}
}

// emitStream feeds consumers only, bypassing the trace buffer. Per-cycle
// events (EvCycleClass fires once per SM per cycle) would displace the
// whole lifecycle history from a bounded trace; profilers fold them
// instead.
//
//caps:hotpath
func (s *Sink) emitStream(e Event) {
	for _, c := range s.byKind[e.Kind] {
		c.Consume(e) //caps:alloc-ok consumers fold events into their own bounded state (profilers, lenses, flight recorder) //caps:shared-sync obs-consumers

	}
}

func (s *Sink) smOK(sm int) bool  { return sm >= 0 && sm < len(s.sm) }
func (s *Sink) partOK(p int) bool { return p >= 0 && p < len(s.part) }
func (s *Sink) chanOK(c int) bool { return c >= 0 && c < len(s.ch) }

// RunDone records end-of-run totals (final cycle count).
func (s *Sink) RunDone(cycle int64) {
	if s == nil {
		return
	}
	s.cyclesG.Set(cycle)
}

// Progress records an in-flight liveness beat: the simulator calls it every
// few thousand cycles so the cycle gauge advances and streaming consumers
// (the flight recorder) learn the current instruction count without
// touching run state. Stream-only — the bounded trace buffer never sees it
// — and a no-op beyond the gauge store when no consumer is attached, so it
// changes nothing observable at end of run.
func (s *Sink) Progress(cycle, instructions int64) {
	if s == nil {
		return
	}
	s.cyclesG.Set(cycle)
	if len(s.byKind[EvProgress]) > 0 {
		s.emitStream(Event{Cycle: cycle, Kind: EvProgress, Dom: DomSM, Track: -1, Warp: -1, CTA: -1, Val: instructions})
	}
}

// ---------------------------------------------------- warp/CTA lifecycle ----

// CTALaunch records a CTA being placed on an SM.
func (s *Sink) CTALaunch(cycle int64, sm, cta int) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvCTALaunch, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: int32(cta)}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].ctaLaunch.Inc()
	s.emit(e)
}

// CTAFinish records the last warp of a CTA retiring.
func (s *Sink) CTAFinish(cycle int64, sm, cta int) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvCTAFinish, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: int32(cta)}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].ctaFinish.Inc()
	s.emit(e)
}

// WarpDispatch records a warp context activating.
func (s *Sink) WarpDispatch(cycle int64, sm, warpSlot, cta int) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvWarpDispatch, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: int32(cta)}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].warpDispatch.Inc()
	s.emit(e)
}

// WarpStallBegin records a warp entering a memory-wait stall run (it
// blocked on outstanding loads). One begin/end pair brackets the whole run
// regardless of its length, keeping trace volume proportional to stall
// *transitions*, not stalled cycles.
func (s *Sink) WarpStallBegin(cycle int64, sm, warpSlot int) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvWarpStallBegin, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: -1}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].warpStallBegin.Inc()
	s.emit(e)
}

// WarpStallEnd records the matching end of a stall run: the warp's last
// outstanding load returned and it is schedulable again.
func (s *Sink) WarpStallEnd(cycle int64, sm, warpSlot int) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvWarpStallEnd, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: -1}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].warpStallEnd.Inc()
	s.emit(e)
}

// CycleClass attributes one SM cycle to its stall-stack bucket. This is
// the highest-rate hook in the system (one call per SM per cycle), so it
// updates a pre-resolved counter and streams to consumers only — the
// bounded trace buffer never sees it.
func (s *Sink) CycleClass(cycle int64, sm int, class CycleClass) {
	if s == nil || !s.smOK(sm) || class >= NumCycleClasses {
		return
	}
	if st := s.stage; st != nil && st.on {
		s.stageEvent(Event{Cycle: cycle, Kind: EvCycleClass, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: -1, Arg: uint8(class)})
		return
	}
	s.sm[sm].cycleClass[class].Inc()
	if len(s.cycleStream) > 0 {
		e := Event{Cycle: cycle, Kind: EvCycleClass, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: -1, Arg: uint8(class)}
		for _, c := range s.cycleStream {
			c.Consume(e) //caps:alloc-ok consumers fold events into their own bounded state (profilers, lenses, flight recorder) //caps:shared-sync obs-consumers

		}
	}
}

// WarpBarrier records a warp arriving at a CTA barrier.
func (s *Sink) WarpBarrier(cycle int64, sm, warpSlot, cta int) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvWarpBarrier, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: int32(cta)}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].warpBarrier.Inc()
	s.emit(e)
}

// WarpFinish records a warp retiring.
func (s *Sink) WarpFinish(cycle int64, sm, warpSlot int) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvWarpFinish, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: -1}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].warpFinish.Inc()
	s.emit(e)
}

// ------------------------------------------------- scheduler transitions ----

// SchedPromote records a warp moving from the pending to the ready queue.
func (s *Sink) SchedPromote(cycle int64, sm, warpSlot int) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvSchedPromote, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: -1}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].schedPromote.Inc()
	s.emit(e)
}

// SchedDemote records a warp leaving the ready queue on a long-latency op.
func (s *Sink) SchedDemote(cycle int64, sm, warpSlot int) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvSchedDemote, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: -1}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].schedDemote.Inc()
	s.emit(e)
}

// SchedWakeup records an eager prefetch wake-up promotion (PAS, §V-A).
func (s *Sink) SchedWakeup(cycle int64, sm, warpSlot int) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvSchedWakeup, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: -1}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].schedWakeup.Inc()
	s.emit(e)
}

// PickOutcome records one classified scheduler decision (see the
// obs.PickOutcome taxonomy). Emitted at state-transition sites only —
// refills, demotions, wake-ups — never from raw Pick calls, so counts are
// identical across executor configurations (the fast-forward windows elide
// Pick calls but never transitions).
func (s *Sink) PickOutcome(cycle int64, sm, warpSlot int, o PickOutcome) {
	if s == nil || !s.smOK(sm) || o >= numPickOutcomes {
		return
	}
	e := Event{Cycle: cycle, Kind: EvPickOutcome, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: -1, Arg: uint8(o)}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].pickOutcome[o].Inc()
	s.emit(e)
}

// CTAPhase records one CTA lifetime transition (launch → first-issue →
// base-established → drain → retire). Each phase fires at most once per
// CTA.
func (s *Sink) CTAPhase(cycle int64, sm, cta int, p CTAPhase) {
	if s == nil || !s.smOK(sm) || p >= numCTAPhases {
		return
	}
	e := Event{Cycle: cycle, Kind: EvCTAPhase, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: int32(cta), Arg: uint8(p)}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].ctaPhase[p].Inc()
	s.emit(e)
}

// TableOp records one CAPS prediction-table operation on the DIST (per-PC)
// or CAP (per-CTA) table; cta is -1 for DIST ops, pc is the load PC that
// keyed the entry.
func (s *Sink) TableOp(cycle int64, sm, cta int, pc uint32, op TableOp) {
	if s == nil || !s.smOK(sm) || op >= numTableOps {
		return
	}
	e := Event{Cycle: cycle, Kind: EvTableOp, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: int32(cta), PC: pc, Arg: uint8(op)}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].tableOp[op].Inc()
	s.emit(e)
}

// ----------------------------------------------------- prefetch lifecycle ----

// DistAlloc records a CAPS DIST table entry allocation for a load PC.
func (s *Sink) DistAlloc(cycle int64, sm int, pc uint32) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvDistAlloc, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: -1, PC: pc}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].distAlloc.Inc()
	s.emit(e)
}

// PerCTAFill records a CTA's leading warp registering its base-address
// vector in the PerCTA table.
func (s *Sink) PerCTAFill(cycle int64, sm, cta int, pc uint32) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvPerCTAFill, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: int32(cta), PC: pc}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].perCTAFill.Inc()
	s.emit(e)
}

// PrefCandidate records one generated prefetch candidate entering the SM's
// prefetch queue path. seedWarp is the warp-in-CTA whose observation
// anchored the prediction (Candidate.SeedWarp; -1 when the prefetcher has
// no anchor concept) and rides in Val for schedlens' leading-warp
// attribution.
func (s *Sink) PrefCandidate(cycle int64, sm, warpSlot, cta int, pc uint32, addr uint64, seedWarp int) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvPrefCandidate, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: int32(cta), PC: pc, Addr: addr, Val: int64(seedWarp)}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].prefCandidate.Inc()
	s.emit(e)
}

// PrefDrop records a candidate discarded before doing useful work; cta is
// the candidate's target CTA (-1 when the drop site no longer knows it).
func (s *Sink) PrefDrop(cycle int64, sm, cta int, pc uint32, addr uint64, reason DropReason) {
	if s == nil || !s.smOK(sm) || reason >= numDropReasons {
		return
	}
	e := Event{Cycle: cycle, Kind: EvPrefDrop, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: int32(cta), PC: pc, Addr: addr, Arg: uint8(reason)}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].prefDrop[reason].Inc()
	s.emit(e)
}

// PrefAdmit records a prefetch miss admitted into L1 and sent to memory;
// cta is the target CTA the candidate was generated for.
func (s *Sink) PrefAdmit(cycle int64, sm, warpSlot, cta int, pc uint32, addr uint64) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvPrefAdmit, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: int32(cta), PC: pc, Addr: addr}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].prefAdmit.Inc()
	s.emit(e)
}

// PrefFill records a prefetched line installing into L1.
func (s *Sink) PrefFill(cycle int64, sm, warpSlot int, pc uint32, addr uint64) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvPrefFill, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: -1, PC: pc, Addr: addr}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].prefFill.Inc()
	s.emit(e)
}

// PrefConsume records the first demand hit on a prefetched line; cta is
// the consuming warp's CTA and distance is demand cycle minus prefetch
// issue cycle (Fig. 14b), carried in Event.Val.
func (s *Sink) PrefConsume(cycle int64, sm, warpSlot, cta int, pc uint32, addr uint64, distance int64) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvPrefConsume, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: int32(cta), PC: pc, Addr: addr, Val: distance}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].prefConsume.Inc()
	s.prefDist.Observe(distance)
	s.emit(e)
}

// PrefLate records a demand access merging into an in-flight prefetch
// (late-but-useful prefetch).
func (s *Sink) PrefLate(cycle int64, sm int, pc uint32, addr uint64) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvPrefLate, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: -1, PC: pc, Addr: addr}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].prefLate.Inc()
	s.emit(e)
}

// PrefEarlyEvict records a prefetched line evicted before any demand use
// (Fig. 14a numerator).
func (s *Sink) PrefEarlyEvict(cycle int64, sm int, pc uint32, addr uint64) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvPrefEarlyEvict, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: -1, PC: pc, Addr: addr}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].prefEarlyEvict.Inc()
	s.emit(e)
}

// ------------------------------------------------------- memory system ----

// LoadIssue records one executed load-group issue: the warp's PC, its CTA,
// its warp-within-CTA index (Event.Val) and the group's first line address.
// This is the address-structure observation stream — everything a θ/Δ
// decomposition needs (addr ≈ θ(CTA) + Δ·warpInCTA, paper Fig. 6) in one
// event. indirect marks loads whose address depends on loaded data.
func (s *Sink) LoadIssue(cycle int64, sm, warpSlot, cta, warpInCTA int, pc uint32, addr uint64, indirect bool) {
	if s == nil || !s.smOK(sm) {
		return
	}
	var arg uint8
	if indirect {
		arg = 1
	}
	e := Event{Cycle: cycle, Kind: EvLoadIssue, Dom: DomSM, Track: int16(sm), Warp: int32(warpSlot), CTA: int32(cta), PC: pc, Addr: addr, Val: int64(warpInCTA), Arg: arg}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].loadIssue.Inc()
	s.emit(e)
}

// MemAccess records one *accepted* cache access (hit, new miss, or merge)
// at an L1 (DomSM) or L2 (DomPart) cache. Reservation fails are excluded
// by contract — they emit EvResFail and their stats.Sim counts roll back on
// replay, so an accepted-only stream reconciles exactly with the Sim
// totals. High-rate: streams to consumers only, the bounded trace buffer
// never sees it (EvCycleClass precedent).
func (s *Sink) MemAccess(cycle int64, dom Domain, track, warpSlot, cta int, pc uint32, addr uint64, class AccessClass, prefetch bool) {
	if s == nil || class >= NumAccessClasses {
		return
	}
	e := Event{Cycle: cycle, Kind: EvMemAccess, Dom: dom, Track: int16(track), Warp: int32(warpSlot), CTA: int32(cta), PC: pc, Addr: addr, Arg: PackAccess(class, prefetch)}
	if s.stageEvent(e) {
		return
	}
	switch dom {
	case DomSM:
		if !s.smOK(track) {
			return
		}
		s.sm[track].access[class].Inc()
	case DomPart:
		if !s.partOK(track) {
			return
		}
		s.part[track].access[class].Inc()
	default:
		return
	}
	s.emitStream(e)
}

// QueueSample records one memory-system queue depth (Event.Val) observed at
// a progress beat. Beats fire on the same cycles with or without idle
// fast-forward, so sampled occupancy distributions are executor-invariant.
func (s *Sink) QueueSample(cycle int64, dom Domain, track int, q QueueKind, depth int) {
	if s == nil || q >= NumQueueKinds {
		return
	}
	s.emit(Event{Cycle: cycle, Kind: EvQueueSample, Dom: dom, Track: int16(track), Warp: -1, CTA: -1, Arg: uint8(q), Val: int64(depth)})
}

// MSHRAlloc records a new MSHR allocation at an L1 (DomSM) or L2 (DomPart)
// cache; prefetch marks prefetch-buffer allocations.
func (s *Sink) MSHRAlloc(cycle int64, dom Domain, track int, addr uint64, prefetch bool) {
	if s == nil {
		return
	}
	var arg uint8
	if prefetch {
		arg = 1
	}
	e := Event{Cycle: cycle, Kind: EvMSHRAlloc, Dom: dom, Track: int16(track), Warp: -1, CTA: -1, Addr: addr, Arg: arg}
	if s.stageEvent(e) {
		return
	}
	switch dom {
	case DomSM:
		if !s.smOK(track) {
			return
		}
		s.sm[track].mshrAlloc.Inc()
	case DomPart:
		if !s.partOK(track) {
			return
		}
		s.part[track].mshrAlloc.Inc()
	default:
		return
	}
	s.emit(e)
}

// MSHRMerge records a request merging into an in-flight MSHR.
func (s *Sink) MSHRMerge(cycle int64, dom Domain, track int, addr uint64) {
	if s == nil {
		return
	}
	e := Event{Cycle: cycle, Kind: EvMSHRMerge, Dom: dom, Track: int16(track), Warp: -1, CTA: -1, Addr: addr}
	if s.stageEvent(e) {
		return
	}
	switch dom {
	case DomSM:
		if !s.smOK(track) {
			return
		}
		s.sm[track].mshrMerge.Inc()
	case DomPart:
		if !s.partOK(track) {
			return
		}
		s.part[track].mshrMerge.Inc()
	default:
		return
	}
	s.emit(e)
}

// MSHRConvert records a demand merge converting a prefetch-only MSHR into a
// demand-serving one (only the L1 has a prefetch buffer).
func (s *Sink) MSHRConvert(cycle int64, sm int, addr uint64) {
	if s == nil || !s.smOK(sm) {
		return
	}
	e := Event{Cycle: cycle, Kind: EvMSHRConvert, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: -1, Addr: addr}
	if s.stageEvent(e) {
		return
	}
	s.sm[sm].mshrConvert.Inc()
	s.emit(e)
}

// ResFail records a reservation failure (no MSHR, or miss queue full when
// queueFull is set) at an L1 or L2 cache.
func (s *Sink) ResFail(cycle int64, dom Domain, track int, addr uint64, queueFull bool) {
	if s == nil {
		return
	}
	var arg uint8
	if queueFull {
		arg = 1
	}
	e := Event{Cycle: cycle, Kind: EvResFail, Dom: dom, Track: int16(track), Warp: -1, CTA: -1, Addr: addr, Arg: arg}
	if s.stageEvent(e) {
		return
	}
	switch dom {
	case DomSM:
		if !s.smOK(track) {
			return
		}
		if queueFull {
			s.sm[track].resFailQueue.Inc()
		} else {
			s.sm[track].resFailMSHR.Inc()
		}
	case DomPart:
		if !s.partOK(track) {
			return
		}
		if queueFull {
			s.part[track].resFailQueue.Inc()
		} else {
			s.part[track].resFailMSHR.Inc()
		}
	default:
		return
	}
	s.emit(e)
}

// RowHit records a DRAM row-buffer hit on a channel; bank is the serviced
// bank index (Event.Arg), so locality profilers can split hit rates and
// access spread per bank.
func (s *Sink) RowHit(cycle int64, ch, bank int, addr uint64) {
	if s == nil || !s.chanOK(ch) {
		return
	}
	s.ch[ch].rowHit.Inc()
	s.emit(Event{Cycle: cycle, Kind: EvRowHit, Dom: DomDRAM, Track: int16(ch), Warp: -1, CTA: -1, Addr: addr, Arg: uint8(bank)})
}

// RowMiss records a DRAM row activation (row miss or cold row) on a
// channel's bank (Event.Arg).
func (s *Sink) RowMiss(cycle int64, ch, bank int, addr uint64) {
	if s == nil || !s.chanOK(ch) {
		return
	}
	s.ch[ch].rowMiss.Inc()
	s.emit(Event{Cycle: cycle, Kind: EvRowMiss, Dom: DomDRAM, Track: int16(ch), Warp: -1, CTA: -1, Addr: addr, Arg: uint8(bank)})
}

// DemandLatency feeds the demand round-trip latency histogram; sm is the
// observing SM (it addresses the staging lane under parallel ticking — the
// histogram itself is unlabelled).
func (s *Sink) DemandLatency(sm int, lat int64) {
	if s == nil {
		return
	}
	if s.stageLatency(sm, lat) {
		return
	}
	s.demandLat.Observe(lat)
}
