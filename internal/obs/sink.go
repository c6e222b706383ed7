package obs

import "strconv"

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

// kindRow is one event kind's entry in the record table: the counter
// family it bumps in each domain, the qualifier label its Arg selects, and
// whether the bounded trace buffer keeps it.
type kindRow struct {
	// family names the counter family per domain, "" where the kind is not
	// counted. A counted kind's event for a domain without a family or for
	// a unit the sink does not have is dropped.
	family [numDomains]string
	// key and values are the qualifier label: Arg (the access class of a
	// PackAccess-encoded Arg when access is set) indexes values, and an
	// event whose Arg is past the end is dropped. A kind without values
	// carries no label in Arg; an uncounted kind's values only bound it.
	key    string
	values []string
	access bool
	// stream kinds bypass the trace buffer: they fire per SM cycle, per
	// cache access or per progress beat and would displace the lifecycle
	// history from a bounded trace. Consumers still receive them.
	stream bool
}

// family shorthands: counted on the SM only, and at both cache levels
// (an SM's L1, an L2 slice).
func smFamily(name string) [numDomains]string {
	return [numDomains]string{DomSM: name}
}
func cacheFamily(l1, l2 string) [numDomains]string {
	return [numDomains]string{DomSM: l1, DomPart: l2}
}

// kinds is the record table: every counter is a function of its event.
var kinds = [numKinds]kindRow{
	EvCTALaunch:      {family: smFamily("cta_launch_total")},
	EvCTAFinish:      {family: smFamily("cta_finish_total")},
	EvWarpDispatch:   {family: smFamily("warp_dispatch_total")},
	EvWarpStallBegin: {family: smFamily("warp_stall_begin_total")},
	EvWarpStallEnd:   {family: smFamily("warp_stall_end_total")},
	EvWarpBarrier:    {family: smFamily("warp_barrier_total")},
	EvWarpFinish:     {family: smFamily("warp_finish_total")},
	EvSchedPromote:   {family: smFamily("sched_promote_total")},
	EvSchedDemote:    {family: smFamily("sched_demote_total")},
	EvSchedWakeup:    {family: smFamily("sched_wakeup_total")},
	EvDistAlloc:      {family: smFamily("caps_dist_alloc_total")},
	EvPerCTAFill:     {family: smFamily("caps_percta_fill_total")},
	EvPrefCandidate:  {family: smFamily("pref_candidate_total")},
	EvPrefDrop:       {family: smFamily("pref_drop_total"), key: "reason", values: dropNames[:]},
	EvPrefAdmit:      {family: smFamily("pref_admit_total")},
	EvPrefFill:       {family: smFamily("pref_fill_total")},
	EvPrefConsume:    {family: smFamily("pref_consume_total")},
	EvPrefLate:       {family: smFamily("pref_late_total")},
	EvPrefEarlyEvict: {family: smFamily("pref_early_evict_total")},
	EvMSHRAlloc:      {family: cacheFamily("l1_mshr_alloc_total", "l2_mshr_alloc_total")},
	EvMSHRMerge:      {family: cacheFamily("l1_mshr_merge_total", "l2_mshr_merge_total")},
	EvMSHRConvert:    {family: smFamily("l1_mshr_convert_total")},
	EvResFail:        {family: cacheFamily("l1_resfail_total", "l2_resfail_total"), key: "kind", values: []string{"mshr", "queue"}},
	EvLoadIssue:      {family: smFamily("load_issue_total")},
	EvMemAccess:      {family: cacheFamily("l1_access_total", "l2_access_total"), key: "outcome", values: accessClassNames[:], access: true, stream: true},
	EvRowHit:         {family: [numDomains]string{DomDRAM: "dram_row_hit_total"}},
	EvRowMiss:        {family: [numDomains]string{DomDRAM: "dram_row_miss_total"}},
	EvCycleClass:     {family: smFamily("sm_cycle_class_total"), key: "class", values: cycleClassNames[:], stream: true},
	EvQueueSample:    {values: queueKindNames[:]},
	EvProgress:       {stream: true},
	EvPickOutcome:    {family: smFamily("sched_pick_total"), key: "outcome", values: pickOutcomeNames[:]},
	EvCTAPhase:       {family: smFamily("cta_phase_total"), key: "phase", values: ctaPhaseNames[:]},
	EvTableOp:        {family: smFamily("caps_table_op_total"), key: "op", values: tableOpNames[:]},
}

// unitKeys label each domain's unit in a counter's name.
var unitKeys = [numDomains]string{DomSM: "sm", DomPart: "part", DomDRAM: "chan"}

// kindState is what record needs of one kind, derived from its kinds row
// by New and kept in one place so an event costs few dependent loads.
type kindState struct {
	// counters[d] holds the kind's counters in domain d, unit-major: unit
	// u's counter for label index i is at u*labels+i.
	counters [numDomains][]Counter
	labels   int   // counters per unit: the qualifier values, or 1
	argMask  uint8 // Arg&argMask is the label index (0 for an unlabelled kind)
	counted  bool  // the kind has a family in some domain
	stream   bool  // the kind bypasses the trace buffer
	live     bool  // the kind has a receiver (see Live)
}

// counter returns the kind's counter for one unit of domain d and one
// label index below labels, or nil when the sink has no such unit.
func (k *kindState) counter(d Domain, unit, label int) *Counter {
	if d >= numDomains || unit < 0 {
		return nil
	}
	cs := k.counters[d]
	if i := unit*k.labels + label; i < len(cs) {
		return &cs[i]
	}
	return nil
}

// Sink is the per-run observability hub. One Sink serves one GPU; shared
// state (counters, histograms, trace, consumers) is only ever touched from
// the simulation goroutine, so updates are unsynchronized. Every method
// is safe on a nil *Sink and returns immediately, which is how disabled
// observability stays within its <=2% budget: hook sites pay one nil
// check and nothing else.
//
// Every hook hands its event's fields to record, which bumps the counter
// the kinds table names for it and builds the Event only while the kind is
// live: the trace or a consumer subscribed to it (see KindFilter). A
// metrics-only sink pays counter increments alone.
type Sink struct {
	cfg   Config
	reg   *Registry
	trace *Trace

	// byKind holds the consumers of each event kind (see KindFilter), in
	// attach order. Consumers hold bounded state of their own — the sink
	// never buffers on their behalf.
	byKind [numKinds][]Consumer

	// kind holds each kind's counters and record settings; refreshLive
	// derives their live flags whenever a receiver is added, together with
	// foldable (see Foldable).
	kind     [numKinds]kindState
	foldable bool

	cyclesG   *Gauge
	prefDist  *Histogram
	demandLat *Histogram
}

// Consumer is a streaming event observer attached to a Sink. Consume is
// called synchronously from the simulation goroutine for every event, in
// emission order (cycle-monotonic per track); implementations must not
// retain the simulator's attention — fold the event and return. Kinds that
// bypass the trace buffer (EvCycleClass, EvMemAccess, EvProgress) still
// reach consumers.
type Consumer interface {
	Consume(e Event)
}

// RunFolder is an optional Consumer refinement for the per-cycle class
// stream: a consumer that only sums each SM's cycles per class, folding
// an EvCycleClass event as Event.Cycles() cycles whatever its cycle stamp
// and order, returns true. The simulator then reports each SM's cycles of
// one class in bulk, however many runs they came in. Consumers that don't
// implement it are taken to keep each cycle's event in order (a flight
// recorder with KeepCycleClass).
type RunFolder interface {
	FoldsCycleRuns() bool
}

// KindFilter is the one Consumer opt-out: a consumer that folds only a
// subset of event kinds declares the subset here, and the sink drops it
// from the dispatch lists of every kind it declines — the declined kinds
// then cost it nothing, not even the interface call. A kind every consumer
// declines (with no trace) is dead: its hooks update their counters and
// build no Event at all, and the simulator may skip work whose only
// product is such events (the L2 partition's frozen retry walk).
// WantsKind is consulted once per kind at Attach time and must be pure.
// Consumers that don't implement the interface receive everything.
type KindFilter interface {
	WantsKind(k Kind) bool
}

// New builds a sink, registering every counter the kinds table names up
// front so hot-path updates never touch the registry.
func New(cfg Config) *Sink {
	s := &Sink{cfg: cfg, reg: NewRegistry()}
	if cfg.Trace {
		s.trace = NewTrace(cfg.TraceCap)
	}
	s.cyclesG = s.reg.Gauge("sim_cycles")
	s.prefDist = s.reg.Histogram("pref_distance_cycles", 100, 20)
	s.demandLat = s.reg.Histogram("demand_latency_cycles", 100, 20)

	units := [numDomains]int{DomSM: cfg.SMs, DomPart: cfg.Partitions, DomDRAM: cfg.Channels}
	for k := range kinds {
		row, ks := &kinds[k], &s.kind[k]
		ks.labels, ks.argMask, ks.stream = max(len(row.values), 1), 0xff, row.stream
		switch {
		case row.values == nil:
			ks.argMask = 0
		case row.access:
			ks.argMask &^= accessPrefBit
		}
		for d, name := range row.family {
			if name == "" {
				continue
			}
			ks.counted = true
			cs := make([]Counter, units[d]*ks.labels)
			for i := range cs {
				labels := []Label{{Key: unitKeys[d], Value: strconv.Itoa(i / ks.labels)}}
				if row.values != nil {
					labels = append(labels, Label{Key: row.key, Value: row.values[i%ks.labels]})
				}
				cs[i] = Counter{name: name, labels: labels}
				s.reg.add(&cs[i])
			}
			ks.counters[d] = cs
		}
	}
	s.refreshLive()
	return s
}

// refreshLive re-derives the per-kind liveness table; New and Attach call
// it, so it is fixed before the first simulated cycle. A kind is live when
// a consumer takes it, or when the trace does: every kind but the stream
// kinds, which bypass the trace buffer.
func (s *Sink) refreshLive() {
	for k := range s.kind {
		s.kind[k].live = len(s.byKind[k]) > 0 || s.trace != nil && !s.kind[k].stream
	}
	s.foldable = !s.kind[EvResFail].live
	for _, c := range s.byKind[EvCycleClass] {
		if f, ok := c.(RunFolder); !ok || !f.FoldsCycleRuns() {
			s.foldable = false
		}
	}
}

// Foldable reports whether the simulator may report SM cycles in bulk:
// one CycleClass call for an SM's pending cycles of a class and one
// ResFails count for the reservation fails of the cycles it skipped. That
// holds while EvResFail has no receiver and every cycle-class consumer
// sums (RunFolder); either kind of receiver would otherwise see the
// cycles' events out of their per-cycle order. True on a nil sink.
func (s *Sink) Foldable() bool { return s == nil || s.foldable }

// Live reports whether events of kind k have a receiver: a subscribed
// consumer, or the trace for a kind that does not bypass it. False on a
// nil sink.
func (s *Sink) Live(k Kind) bool {
	return s != nil && k < numKinds && s.kind[k].live
}

// bit encodes a hook's boolean argument in Event.Arg.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
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
	kf, filtered := c.(KindFilter)
	for k := range numKinds {
		if !filtered || kf.WantsKind(k) {
			s.byKind[k] = append(s.byKind[k], c)
		}
	}
	s.refreshLive()
}

// record is the one path every hook's event takes. It drops an event
// whose unit or enum value is out of range, bumps the event's counter,
// and, while the kind is live, builds the Event, appends it to the trace
// (unless the kind bypasses it) and hands it to the kind's consumers. It
// reports whether the event was in range. The arguments are the Event's
// fields, those that route it first: Kind, Dom, the unit (Track) and Arg,
// then Cycle, Warp, CTA, PC, Addr and Val; -1 marks no warp or CTA. Taking
// fields rather than an Event keeps a dead kind from building one: a
// struct argument is assembled in a temporary and copied, which costs more
// than the counter.
//
//caps:hotpath
func (s *Sink) record(kind Kind, dom Domain, unit int, arg uint8, cycle int64, warp, cta int, pc uint32, addr uint64, val int64) bool {
	k := &s.kind[kind]
	label := int(arg & k.argMask)
	if label >= k.labels {
		return false
	}
	if k.counted {
		c := k.counter(dom, unit, label)
		if c == nil {
			return false
		}
		c.Inc()
	}
	if k.live {
		e := Event{Cycle: cycle, Kind: kind, Dom: dom, Track: int16(unit), Warp: int32(warp), CTA: int32(cta), PC: pc, Addr: addr, Val: val, Arg: arg}
		if s.trace != nil && !k.stream {
			s.trace.Append(e)
		}
		s.dispatch(e)
	}
	return true
}

// dispatch hands e to the consumers of its kind.
func (s *Sink) dispatch(e Event) {
	for _, c := range s.byKind[e.Kind] {
		c.Consume(e) //caps:alloc-ok consumers fold events into their own bounded state (profilers, lenses, flight recorder)
	}
}

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
// — so it changes nothing observable at end of run.
func (s *Sink) Progress(cycle, instructions int64) {
	if s == nil {
		return
	}
	s.cyclesG.Set(cycle)
	s.record(EvProgress, DomSM, -1, 0, cycle, -1, -1, 0, 0, instructions)
}

// ---------------------------------------------------- warp/CTA lifecycle ----

// CTALaunch records a CTA being placed on an SM.
func (s *Sink) CTALaunch(cycle int64, sm, cta int) {
	if s != nil {
		s.record(EvCTALaunch, DomSM, sm, 0, cycle, -1, cta, 0, 0, 0)
	}
}

// CTAFinish records the last warp of a CTA retiring.
func (s *Sink) CTAFinish(cycle int64, sm, cta int) {
	if s != nil {
		s.record(EvCTAFinish, DomSM, sm, 0, cycle, -1, cta, 0, 0, 0)
	}
}

// WarpDispatch records a warp context activating.
func (s *Sink) WarpDispatch(cycle int64, sm, warpSlot, cta int) {
	if s != nil {
		s.record(EvWarpDispatch, DomSM, sm, 0, cycle, warpSlot, cta, 0, 0, 0)
	}
}

// WarpStallBegin records a warp entering a memory-wait stall run (it
// blocked on outstanding loads). One begin/end pair brackets the whole run
// regardless of its length, keeping trace volume proportional to stall
// *transitions*, not stalled cycles.
func (s *Sink) WarpStallBegin(cycle int64, sm, warpSlot int) {
	if s != nil {
		s.record(EvWarpStallBegin, DomSM, sm, 0, cycle, warpSlot, -1, 0, 0, 0)
	}
}

// WarpStallEnd records the matching end of a stall run: the warp's last
// outstanding load returned and it is schedulable again.
func (s *Sink) WarpStallEnd(cycle int64, sm, warpSlot int) {
	if s != nil {
		s.record(EvWarpStallEnd, DomSM, sm, 0, cycle, warpSlot, -1, 0, 0, 0)
	}
}

// CycleClass attributes n SM cycles, the first at cycle, to one
// stall-stack bucket: the counter grows by n and consumers receive one
// EvCycleClass event whose Val is n (0 for a single cycle, see
// Event.Cycles). The n cycles are one contiguous run unless the sink is
// Foldable, where an SM sums its cycles per class until it is settled.
// Without that, this is the highest-rate hook in the system — an SM
// reports every cycle it ticks — so it builds the event only when a
// consumer takes the class stream, and the trace buffer never sees it.
func (s *Sink) CycleClass(cycle int64, sm int, class CycleClass, n int64) {
	if s == nil || class >= NumCycleClasses {
		return
	}
	c := s.kind[EvCycleClass].counter(DomSM, sm, int(class))
	if c == nil {
		return
	}
	c.Add(n)
	if len(s.byKind[EvCycleClass]) > 0 {
		var run int64
		if n > 1 {
			run = n
		}
		s.dispatch(Event{Cycle: cycle, Kind: EvCycleClass, Dom: DomSM, Track: int16(sm), Warp: -1, CTA: -1, Arg: uint8(class), Val: run})
	}
}

// WarpBarrier records a warp arriving at a CTA barrier.
func (s *Sink) WarpBarrier(cycle int64, sm, warpSlot, cta int) {
	if s != nil {
		s.record(EvWarpBarrier, DomSM, sm, 0, cycle, warpSlot, cta, 0, 0, 0)
	}
}

// WarpFinish records a warp retiring.
func (s *Sink) WarpFinish(cycle int64, sm, warpSlot int) {
	if s != nil {
		s.record(EvWarpFinish, DomSM, sm, 0, cycle, warpSlot, -1, 0, 0, 0)
	}
}

// ------------------------------------------------- scheduler transitions ----

// SchedPromote records a warp moving from the pending to the ready queue.
func (s *Sink) SchedPromote(cycle int64, sm, warpSlot int) {
	if s != nil {
		s.record(EvSchedPromote, DomSM, sm, 0, cycle, warpSlot, -1, 0, 0, 0)
	}
}

// SchedDemote records a warp leaving the ready queue on a long-latency op.
func (s *Sink) SchedDemote(cycle int64, sm, warpSlot int) {
	if s != nil {
		s.record(EvSchedDemote, DomSM, sm, 0, cycle, warpSlot, -1, 0, 0, 0)
	}
}

// SchedWakeup records an eager prefetch wake-up promotion (PAS, §V-A).
func (s *Sink) SchedWakeup(cycle int64, sm, warpSlot int) {
	if s != nil {
		s.record(EvSchedWakeup, DomSM, sm, 0, cycle, warpSlot, -1, 0, 0, 0)
	}
}

// PickOutcome records one classified scheduler decision (see the
// obs.PickOutcome taxonomy). Emitted at state-transition sites only —
// refills, demotions, wake-ups — never from raw Pick calls, so counts are
// identical across executor configurations (the fast-forward windows elide
// Pick calls but never transitions).
func (s *Sink) PickOutcome(cycle int64, sm, warpSlot int, o PickOutcome) {
	if s != nil {
		s.record(EvPickOutcome, DomSM, sm, uint8(o), cycle, warpSlot, -1, 0, 0, 0)
	}
}

// CTAPhase records one CTA lifetime transition (launch → first-issue →
// base-established → drain → retire). Each phase fires at most once per
// CTA.
func (s *Sink) CTAPhase(cycle int64, sm, cta int, p CTAPhase) {
	if s != nil {
		s.record(EvCTAPhase, DomSM, sm, uint8(p), cycle, -1, cta, 0, 0, 0)
	}
}

// TableOp records one CAPS prediction-table operation on the DIST (per-PC)
// or CAP (per-CTA) table; cta is -1 for DIST ops, pc is the load PC that
// keyed the entry.
func (s *Sink) TableOp(cycle int64, sm, cta int, pc uint32, op TableOp) {
	if s != nil {
		s.record(EvTableOp, DomSM, sm, uint8(op), cycle, -1, cta, pc, 0, 0)
	}
}

// ----------------------------------------------------- prefetch lifecycle ----

// DistAlloc records a CAPS DIST table entry allocation for a load PC.
func (s *Sink) DistAlloc(cycle int64, sm int, pc uint32) {
	if s != nil {
		s.record(EvDistAlloc, DomSM, sm, 0, cycle, -1, -1, pc, 0, 0)
	}
}

// PerCTAFill records a CTA's leading warp registering its base-address
// vector in the PerCTA table.
func (s *Sink) PerCTAFill(cycle int64, sm, cta int, pc uint32) {
	if s != nil {
		s.record(EvPerCTAFill, DomSM, sm, 0, cycle, -1, cta, pc, 0, 0)
	}
}

// PrefCandidate records one generated prefetch candidate entering the SM's
// prefetch queue path. seedWarp is the warp-in-CTA whose observation
// anchored the prediction (Candidate.SeedWarp; -1 when the prefetcher has
// no anchor concept) and rides in Val for schedlens' leading-warp
// attribution.
func (s *Sink) PrefCandidate(cycle int64, sm, warpSlot, cta int, pc uint32, addr uint64, seedWarp int) {
	if s != nil {
		s.record(EvPrefCandidate, DomSM, sm, 0, cycle, warpSlot, cta, pc, addr, int64(seedWarp))
	}
}

// PrefDrop records a candidate discarded before doing useful work; cta is
// the candidate's target CTA (-1 when the drop site no longer knows it).
func (s *Sink) PrefDrop(cycle int64, sm, cta int, pc uint32, addr uint64, reason DropReason) {
	if s != nil {
		s.record(EvPrefDrop, DomSM, sm, uint8(reason), cycle, -1, cta, pc, addr, 0)
	}
}

// PrefAdmit records a prefetch miss admitted into L1 and sent to memory;
// cta is the target CTA the candidate was generated for.
func (s *Sink) PrefAdmit(cycle int64, sm, warpSlot, cta int, pc uint32, addr uint64) {
	if s != nil {
		s.record(EvPrefAdmit, DomSM, sm, 0, cycle, warpSlot, cta, pc, addr, 0)
	}
}

// PrefFill records a prefetched line installing into L1.
func (s *Sink) PrefFill(cycle int64, sm, warpSlot int, pc uint32, addr uint64) {
	if s != nil {
		s.record(EvPrefFill, DomSM, sm, 0, cycle, warpSlot, -1, pc, addr, 0)
	}
}

// PrefConsume records the first demand hit on a prefetched line; cta is
// the consuming warp's CTA and distance is demand cycle minus prefetch
// issue cycle (Fig. 14b), carried in Event.Val and fed to the
// prefetch-distance histogram.
func (s *Sink) PrefConsume(cycle int64, sm, warpSlot, cta int, pc uint32, addr uint64, distance int64) {
	if s != nil && s.record(EvPrefConsume, DomSM, sm, 0, cycle, warpSlot, cta, pc, addr, distance) {
		s.prefDist.Observe(distance)
	}
}

// PrefLate records a demand access merging into an in-flight prefetch
// (late-but-useful prefetch).
func (s *Sink) PrefLate(cycle int64, sm int, pc uint32, addr uint64) {
	if s != nil {
		s.record(EvPrefLate, DomSM, sm, 0, cycle, -1, -1, pc, addr, 0)
	}
}

// PrefEarlyEvict records a prefetched line evicted before any demand use
// (Fig. 14a numerator).
func (s *Sink) PrefEarlyEvict(cycle int64, sm int, pc uint32, addr uint64) {
	if s != nil {
		s.record(EvPrefEarlyEvict, DomSM, sm, 0, cycle, -1, -1, pc, addr, 0)
	}
}

// ------------------------------------------------------- memory system ----

// LoadIssue records one executed load-group issue: the warp's PC, its CTA,
// its warp-within-CTA index (Event.Val) and the group's first line address.
// This is the address-structure observation stream — everything a θ/Δ
// decomposition needs (addr ≈ θ(CTA) + Δ·warpInCTA, paper Fig. 6) in one
// event. indirect marks loads whose address depends on loaded data.
func (s *Sink) LoadIssue(cycle int64, sm, warpSlot, cta, warpInCTA int, pc uint32, addr uint64, indirect bool) {
	if s != nil {
		s.record(EvLoadIssue, DomSM, sm, bit(indirect), cycle, warpSlot, cta, pc, addr, int64(warpInCTA))
	}
}

// MemAccess records one *accepted* cache access (hit, new miss, or merge)
// at an L1 (DomSM) or L2 (DomPart) cache. Reservation fails are excluded
// by contract — they emit EvResFail and their stats.Sim counts roll back on
// replay, so an accepted-only stream reconciles exactly with the Sim
// totals. High-rate: streams to consumers only, the bounded trace buffer
// never sees it (EvCycleClass precedent).
func (s *Sink) MemAccess(cycle int64, dom Domain, track, warpSlot, cta int, pc uint32, addr uint64, class AccessClass, prefetch bool) {
	if s != nil {
		s.record(EvMemAccess, dom, track, PackAccess(class, prefetch), cycle, warpSlot, cta, pc, addr, 0)
	}
}

// QueueSample records one memory-system queue depth (Event.Val) observed at
// a progress beat. Beats fire on the same cycles with or without idle
// fast-forward, so sampled occupancy distributions are executor-invariant.
func (s *Sink) QueueSample(cycle int64, dom Domain, track int, q QueueKind, depth int) {
	if s != nil {
		s.record(EvQueueSample, dom, track, uint8(q), cycle, -1, -1, 0, 0, int64(depth))
	}
}

// MSHRAlloc records a new MSHR allocation at an L1 (DomSM) or L2 (DomPart)
// cache; prefetch marks prefetch-buffer allocations.
func (s *Sink) MSHRAlloc(cycle int64, dom Domain, track int, addr uint64, prefetch bool) {
	if s != nil {
		s.record(EvMSHRAlloc, dom, track, bit(prefetch), cycle, -1, -1, 0, addr, 0)
	}
}

// MSHRMerge records a request merging into an in-flight MSHR.
func (s *Sink) MSHRMerge(cycle int64, dom Domain, track int, addr uint64) {
	if s != nil {
		s.record(EvMSHRMerge, dom, track, 0, cycle, -1, -1, 0, addr, 0)
	}
}

// MSHRConvert records a demand merge converting a prefetch-only MSHR into a
// demand-serving one (only the L1 has a prefetch buffer).
func (s *Sink) MSHRConvert(cycle int64, sm int, addr uint64) {
	if s != nil {
		s.record(EvMSHRConvert, DomSM, sm, 0, cycle, -1, -1, 0, addr, 0)
	}
}

// ResFail records a reservation failure (no MSHR, or miss queue full when
// queueFull is set) at an L1 or L2 cache.
func (s *Sink) ResFail(cycle int64, dom Domain, track int, addr uint64, queueFull bool) {
	if s != nil {
		s.record(EvResFail, dom, track, bit(queueFull), cycle, -1, -1, 0, addr, 0)
	}
}

// ResFails counts n reservation failures at an L1 or L2 cache in one call,
// labelled as ResFail labels them. It builds no events, so it is only for
// callers that have checked EvResFail is dead (see Live): a cache handing
// over the fails it held back (mem.Cache.FlushResFails) — single fails,
// an L2 partition's quiet retry cycles and an SM's settled stall-replay
// spans.
func (s *Sink) ResFails(dom Domain, track int, queueFull bool, n int64) {
	if s == nil {
		return
	}
	if c := s.kind[EvResFail].counter(dom, track, int(bit(queueFull))); c != nil {
		c.Add(n)
	}
}

// RowHit records a DRAM row-buffer hit on a channel; bank is the serviced
// bank index (Event.Arg), so locality profilers can split hit rates and
// access spread per bank.
func (s *Sink) RowHit(cycle int64, ch, bank int, addr uint64) {
	if s != nil {
		s.record(EvRowHit, DomDRAM, ch, uint8(bank), cycle, -1, -1, 0, addr, 0)
	}
}

// RowMiss records a DRAM row activation (row miss or cold row) on a
// channel's bank (Event.Arg).
func (s *Sink) RowMiss(cycle int64, ch, bank int, addr uint64) {
	if s != nil {
		s.record(EvRowMiss, DomDRAM, ch, uint8(bank), cycle, -1, -1, 0, addr, 0)
	}
}

// DemandLatency feeds the demand round-trip latency histogram.
func (s *Sink) DemandLatency(lat int64) {
	if s == nil {
		return
	}
	s.demandLat.Observe(lat)
}
