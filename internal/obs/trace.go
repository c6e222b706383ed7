package obs

import "fmt"

// Domain identifies the hardware unit class an event belongs to; together
// with Track it names one timeline in the exported trace (one track per SM,
// per memory partition, per DRAM channel).
type Domain uint8

// Trace domains.
const (
	DomSM Domain = iota
	DomPart
	DomDRAM

	numDomains // sentinel
)

// String implements fmt.Stringer.
func (d Domain) String() string { return enumName(domainNames[:], d, "domain") }

var domainNames = [numDomains]string{DomSM: "SM", DomPart: "Part", DomDRAM: "DRAM"}

// enumName returns names[v], or kind(v) for a value past the table.
func enumName[T ~uint8](names []string, v T, kind string) string {
	if int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", kind, uint8(v))
}

// Kind is the typed event identifier.
type Kind uint8

// Event kinds: warp/CTA lifecycle, scheduler transitions, the prefetch
// lifecycle (DIST allocation → PerCTA fill → candidate → admission → L1
// fill → consumption or early eviction), and memory-system events.
const (
	EvCTALaunch Kind = iota
	EvCTAFinish
	EvWarpDispatch
	EvWarpStallBegin
	EvWarpStallEnd
	EvWarpBarrier
	EvWarpFinish
	EvSchedPromote
	EvSchedDemote
	EvSchedWakeup
	EvDistAlloc
	EvPerCTAFill
	EvPrefCandidate
	EvPrefDrop
	EvPrefAdmit
	EvPrefFill
	EvPrefConsume
	EvPrefLate
	EvPrefEarlyEvict
	EvMSHRAlloc
	EvMSHRMerge
	EvMSHRConvert
	EvResFail
	EvLoadIssue
	EvMemAccess
	EvRowHit
	EvRowMiss
	EvCycleClass
	EvQueueSample
	EvProgress
	EvPickOutcome
	EvCTAPhase
	EvTableOp

	numKinds // sentinel
)

// kindNames maps each Kind to its dotted trace name; the dot groups events
// visually in Perfetto ("pref.candidate", "mshr.alloc", ...).
var kindNames = [numKinds]string{
	EvCTALaunch:      "cta.launch",
	EvCTAFinish:      "cta.finish",
	EvWarpDispatch:   "warp.dispatch",
	EvWarpStallBegin: "warp.stall_begin",
	EvWarpStallEnd:   "warp.stall_end",
	EvWarpBarrier:    "warp.barrier",
	EvWarpFinish:     "warp.finish",
	EvSchedPromote:   "sched.promote",
	EvSchedDemote:    "sched.demote",
	EvSchedWakeup:    "sched.wakeup",
	EvDistAlloc:      "caps.dist_alloc",
	EvPerCTAFill:     "caps.percta_fill",
	EvPrefCandidate:  "pref.candidate",
	EvPrefDrop:       "pref.drop",
	EvPrefAdmit:      "pref.admit",
	EvPrefFill:       "pref.fill",
	EvPrefConsume:    "pref.consume",
	EvPrefLate:       "pref.late",
	EvPrefEarlyEvict: "pref.early_evict",
	EvMSHRAlloc:      "mshr.alloc",
	EvMSHRMerge:      "mshr.merge",
	EvMSHRConvert:    "mshr.convert",
	EvResFail:        "mshr.resfail",
	EvLoadIssue:      "mem.load_issue",
	EvMemAccess:      "mem.access",
	EvRowHit:         "dram.row_hit",
	EvRowMiss:        "dram.row_miss",
	EvCycleClass:     "sm.cycle_class",
	EvQueueSample:    "queue.sample",
	EvProgress:       "run.progress",
	EvPickOutcome:    "sched.pick",
	EvCTAPhase:       "cta.phase",
	EvTableOp:        "caps.table",
}

// String implements fmt.Stringer.
func (k Kind) String() string { return enumName(kindNames[:], k, "kind") }

// category groups kinds for the exporter's "cat" field so Perfetto can
// filter by subsystem.
func (k Kind) category() string {
	switch {
	case k <= EvWarpFinish:
		return "warp"
	case k <= EvSchedWakeup:
		return "sched"
	case k <= EvPrefEarlyEvict:
		return "pref"
	case k <= EvMemAccess:
		return "mem"
	case k <= EvRowMiss:
		return "dram"
	case k == EvCycleClass:
		return "cycle"
	case k == EvQueueSample:
		return "queue"
	case k == EvPickOutcome:
		return "sched"
	case k == EvCTAPhase:
		return "warp"
	case k == EvTableOp:
		return "pref"
	default:
		return "run"
	}
}

// CycleClass attributes one SM cycle to exactly one cause. The taxonomy
// (DESIGN §"Cycle accounting taxonomy") is a CPI-stack decomposition: per
// SM, the class counts sum to the run's total cycles. Classification
// precedence lives in the producer (internal/sim); this package only names
// the buckets.
type CycleClass uint8

// Stall-stack buckets.
const (
	CycleIssue         CycleClass = iota // >=1 instruction issued
	CycleMemStructural                   // LSU/store structural stall (resfail replay, queue full)
	CycleBarrier                         // live warps blocked only by a CTA barrier
	CycleEmptyReady                      // no issuable warp: ready queue drained on memory or latency
	CycleDrain                           // no live warps but in-flight memory still draining
	CycleIdle                            // SM fully idle (no work assigned)

	NumCycleClasses // sentinel
)

var cycleClassNames = [NumCycleClasses]string{
	CycleIssue:         "issue",
	CycleMemStructural: "mem_structural",
	CycleBarrier:       "barrier",
	CycleEmptyReady:    "empty_ready",
	CycleDrain:         "drain",
	CycleIdle:          "idle",
}

// String implements fmt.Stringer.
func (c CycleClass) String() string { return enumName(cycleClassNames[:], c, "class") }

// DropReason classifies why a prefetch candidate was discarded before (or
// at) L1 admission. It mirrors the stats.Sim PrefDrop* breakdown.
type DropReason uint8

// Prefetch drop reasons.
const (
	DropQueueFull DropReason = iota
	DropDup
	DropStale
	DropCTAGone
	DropPresent
	DropInFlight
	DropSetFull
	DropRejected // L1 refused the admission access (merged or reservation fail)

	numDropReasons // sentinel
)

// NumDropReasons exposes the DropReason count so consumers (internal/
// profile) can size per-reason aggregates without a map.
const NumDropReasons = int(numDropReasons)

var dropNames = [numDropReasons]string{
	DropQueueFull: "queue_full",
	DropDup:       "dup",
	DropStale:     "stale",
	DropCTAGone:   "cta_gone",
	DropPresent:   "present",
	DropInFlight:  "in_flight",
	DropSetFull:   "set_full",
	DropRejected:  "rejected",
}

// String implements fmt.Stringer.
func (r DropReason) String() string { return enumName(dropNames[:], r, "reason") }

// AccessClass classifies an accepted cache access (EvMemAccess). Rejected
// accesses (reservation fails) are not access classes: they already emit
// EvResFail and their stats.Sim counts are rolled back, so counting them
// here would break the exact reconciliation memory profilers depend on.
type AccessClass uint8

// Accepted-access outcomes. AccessStore marks a store accepted at an L2
// partition: write-through no-allocate, it bypasses the cache lookup and
// goes straight to DRAM, yet counts toward the partition's accepted
// accesses (stats.Sim.L2Accesses) — without it the accepted-access stream
// could not reconcile exactly on store-heavy benchmarks. The class values
// must stay below accessPrefBit.
const (
	AccessHit        AccessClass = iota // line present
	AccessMissNew                       // new MSHR allocated, request sent down
	AccessMissMerged                    // merged into an in-flight MSHR
	AccessStore                         // store accepted, forwarded past the cache

	NumAccessClasses // sentinel
)

var accessClassNames = [NumAccessClasses]string{
	AccessHit:        "hit",
	AccessMissNew:    "miss_new",
	AccessMissMerged: "miss_merged",
	AccessStore:      "store",
}

// String implements fmt.Stringer.
func (a AccessClass) String() string { return enumName(accessClassNames[:], a, "access") }

// accessPrefBit marks a prefetch access in a packed EvMemAccess Arg.
const accessPrefBit = 0x4

// PackAccess encodes an access class plus the demand/prefetch flag into an
// Event.Arg byte; UnpackAccess reverses it. An out-of-range class packs to
// a byte whose class is out of range too, never to a valid class.
func PackAccess(class AccessClass, prefetch bool) uint8 {
	if class >= NumAccessClasses {
		return 0xff
	}
	b := uint8(class)
	if prefetch {
		b |= accessPrefBit
	}
	return b
}

// UnpackAccess decodes an EvMemAccess Arg byte.
func UnpackAccess(arg uint8) (class AccessClass, prefetch bool) {
	return AccessClass(arg &^ accessPrefBit), arg&accessPrefBit != 0
}

// QueueKind names one sampled memory-system queue (EvQueueSample Arg). The
// samples are taken at the progress beat — cycles the executor visits with
// or without idle fast-forward — so occupancy percentiles are comparable
// across executor configurations.
type QueueKind uint8

// Sampled queues.
const (
	QueueL1MSHR     QueueKind = iota // per-SM L1 MSHR occupancy
	QueueIcntToSM                    // interconnect responses pending toward one SM
	QueueIcntToPart                  // interconnect requests pending toward one partition
	QueueL2MSHR                      // per-partition L2 MSHR occupancy
	QueueDRAM                        // per-channel DRAM scheduler queue depth

	NumQueueKinds // sentinel
)

var queueKindNames = [NumQueueKinds]string{
	QueueL1MSHR:     "l1_mshr",
	QueueIcntToSM:   "icnt_to_sm",
	QueueIcntToPart: "icnt_to_part",
	QueueL2MSHR:     "l2_mshr",
	QueueDRAM:       "dram_queue",
}

// String implements fmt.Stringer.
func (q QueueKind) String() string { return enumName(queueKindNames[:], q, "queue") }

// PickOutcome classifies one scheduler decision (EvPickOutcome Arg). The
// outcomes are emitted at state-transition sites — queue refills, long-
// latency demotions, wake-ups — which the executor visits identically with
// or without the idle/stall fast-forward, never from raw Pick calls the
// fast-forward windows elide; that keeps per-outcome counts bit-identical
// across executor configurations.
type PickOutcome uint8

// Scheduler decision outcomes.
const (
	// PickLeadingPromoted: a refill front-inserted the CTA's leading warp
	// ahead of the ready queue (PAS leading-warp promotion taken).
	PickLeadingPromoted PickOutcome = iota
	// PickLeadingBypassed: the leading warp entered the ready queue in
	// plain order because its θ/Δ base is already established.
	PickLeadingBypassed
	// PickDemoteLongLatency: a ready warp was demoted to the pending queue
	// on a long-latency (blocking) load.
	PickDemoteLongLatency
	// PickDemoteDisplaced: a wake-up into a full ready queue displaced the
	// newest non-leading ready warp back to pending.
	PickDemoteDisplaced
	// PickWakeupData: a data-return wake-up moved a pending warp to ready.
	PickWakeupData
	// PickWakeupEager: PAS promoted a pending warp ahead of its data
	// return (the paper's eager wake-up; reconciles WakeupPromotions).
	PickWakeupEager
	// PickAgeInversion: GTO abandoned its greedy warp — the next pick
	// falls back to the oldest ready warp (an age inversion).
	PickAgeInversion

	numPickOutcomes // sentinel
)

// NumPickOutcomes exposes the outcome count so consumers can size
// per-outcome aggregates without a map.
const NumPickOutcomes = int(numPickOutcomes)

var pickOutcomeNames = [numPickOutcomes]string{
	PickLeadingPromoted:   "leading_promoted",
	PickLeadingBypassed:   "leading_bypassed",
	PickDemoteLongLatency: "demote_longlat",
	PickDemoteDisplaced:   "demote_displaced",
	PickWakeupData:        "wakeup_data",
	PickWakeupEager:       "wakeup_eager",
	PickAgeInversion:      "age_inversion",
}

// String implements fmt.Stringer.
func (o PickOutcome) String() string { return enumName(pickOutcomeNames[:], o, "outcome") }

// CTAPhase marks one transition in a CTA's lifetime (EvCTAPhase Arg):
// launch → first-issue → leading-warp-base-established → drain → retire.
// Each phase fires at most once per CTA, at sites the executor visits
// identically with or without the fast-forward windows.
type CTAPhase uint8

// CTA lifetime phases.
const (
	CTAPhaseLaunch     CTAPhase = iota // CTA assigned to an SM slot
	CTAPhaseFirstIssue                 // first instruction issued by any of its warps
	CTAPhaseBaseReady                  // leading warp's first blocking load issued (θ/Δ base)
	CTAPhaseDrain                      // first warp finished; the CTA is draining
	CTAPhaseRetire                     // last warp finished; the slot frees

	numCTAPhases // sentinel
)

// NumCTAPhases exposes the phase count so consumers can size per-phase
// aggregates without a map.
const NumCTAPhases = int(numCTAPhases)

var ctaPhaseNames = [numCTAPhases]string{
	CTAPhaseLaunch:     "launch",
	CTAPhaseFirstIssue: "first_issue",
	CTAPhaseBaseReady:  "base_ready",
	CTAPhaseDrain:      "drain",
	CTAPhaseRetire:     "retire",
}

// String implements fmt.Stringer.
func (p CTAPhase) String() string { return enumName(ctaPhaseNames[:], p, "phase") }

// TableOp classifies one CAPS prediction-table operation (EvTableOp Arg)
// on the per-PC DIST table or the per-CTA CAP table: fills, hits,
// evictions/reclaims (aliasing collisions), capacity rejections,
// verification outcomes and misprediction disables.
type TableOp uint8

// CAP/DIST table operations.
const (
	TableDistFill      TableOp = iota // DIST entry allocated for a new PC
	TableDistHit                      // DIST lookup matched the PC
	TableDistReclaim                  // disabled DIST entry reclaimed for a new PC (aliasing)
	TableDistFull                     // DIST allocation rejected: table full
	TableDistDisable                  // mispredict streak crossed the threshold; entry disabled
	TableVerifyOK                     // CAP address verification matched
	TableVerifyBad                    // CAP address verification mismatched
	TableCTAFill                      // CAP (PerCTA) entry filled for a CTA/PC
	TableCTAHit                       // CAP lookup matched the CTA/PC
	TableCTAEvict                     // CAP LRU eviction of a live entry (aliasing collision)
	TableCTAInvalidate                // CAP entry invalidated on stride-detection failure

	numTableOps // sentinel
)

// NumTableOps exposes the op count so consumers can size per-op
// aggregates without a map.
const NumTableOps = int(numTableOps)

var tableOpNames = [numTableOps]string{
	TableDistFill:      "dist_fill",
	TableDistHit:       "dist_hit",
	TableDistReclaim:   "dist_reclaim",
	TableDistFull:      "dist_full",
	TableDistDisable:   "dist_disable",
	TableVerifyOK:      "verify_ok",
	TableVerifyBad:     "verify_bad",
	TableCTAFill:       "cta_fill",
	TableCTAHit:        "cta_hit",
	TableCTAEvict:      "cta_evict",
	TableCTAInvalidate: "cta_invalidate",
}

// String implements fmt.Stringer.
func (o TableOp) String() string { return enumName(tableOpNames[:], o, "tableop") }

// Event is one cycle-stamped trace record. Fields are a compact union:
// Warp/CTA/PC/Addr are meaningful per Kind and -1/0 otherwise; Arg carries
// the kind-specific subcode (DropReason for EvPrefDrop, CycleClass for
// EvCycleClass, 1 for a queue-full reservation fail on EvResFail, request
// kind for EvMSHRAlloc, packed AccessClass+prefetch bit for EvMemAccess,
// QueueKind for EvQueueSample, DRAM bank for EvRowHit/EvRowMiss, 1 for an
// indirect load on EvLoadIssue); Val carries the kind-specific magnitude
// (prefetch-to-demand distance in cycles for EvPrefConsume, warp-in-CTA
// index for EvLoadIssue, sampled depth for EvQueueSample, and the cycle
// count for EvCycleClass: 0 for a single cycle, n > 1 for n cycles of one
// class an SM reported at once, contiguous unless the sink is Foldable;
// see Cycles and Sink.CycleClass).
type Event struct {
	Cycle int64
	Addr  uint64
	Val   int64
	Warp  int32
	CTA   int32
	PC    uint32
	Track int16
	Kind  Kind
	Dom   Domain
	Arg   uint8
}

// Cycles returns how many SM cycles an EvCycleClass event attributes to
// its class: Val, or 1 for a single-cycle event (Val 0).
func (e Event) Cycles() int64 { return max(e.Val, 1) }

// Trace is a bounded, append-only event buffer. When the cap is reached,
// further events are counted but not stored (silent truncation would read
// as "nothing happened after cycle N"; the exporter surfaces the count).
type Trace struct {
	events  []Event
	cap     int
	dropped int64
}

// DefaultTraceCap bounds trace memory (~40 bytes/event → ~40 MB). Sized so
// a full-length single-benchmark run keeps its complete prefetch and
// scheduler history.
const DefaultTraceCap = 1 << 20

// NewTrace creates a trace buffer holding at most capEvents events
// (DefaultTraceCap when capEvents <= 0).
func NewTrace(capEvents int) *Trace {
	if capEvents <= 0 {
		capEvents = DefaultTraceCap
	}
	return &Trace{cap: capEvents}
}

// Append records one event, or counts it as dropped once the buffer is full.
func (t *Trace) Append(e Event) {
	if len(t.events) >= t.cap {
		t.dropped++
		return
	}
	t.events = append(t.events, e) //caps:alloc-ok bounded event ring: grows once toward the trace cap, then drops
}

// Events returns the recorded events in emission order (cycle-ordered: the
// simulator is single-goroutine and cycles are monotonic).
func (t *Trace) Events() []Event { return t.events }

// Dropped returns the number of events lost to the buffer cap.
func (t *Trace) Dropped() int64 { return t.dropped }

// Len returns the number of buffered events.
func (t *Trace) Len() int { return len(t.events) }
