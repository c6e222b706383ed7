// Package sched implements the warp scheduling policies evaluated in the
// CAPS paper: loose round-robin (LRR), greedy-then-oldest (GTO), the
// two-level scheduler (the paper's baseline, Narasiman MICRO'11 /
// Gebhart ISCA'11 style) and the paper's Prefetch-Aware Scheduler (PAS),
// plus the group-interleaved two-level variant used by ORCH
// (Jog ISCA'13).
//
// Schedulers track warp *slots* (hardware warp contexts); the SM decides
// per-cycle eligibility (not blocked on loads, barriers or the scoreboard).
package sched

import (
	"encoding/binary"
	"hash"

	"caps/internal/invariant"
	"caps/internal/obs"
)

// View lets a scheduler query per-slot state owned by the SM.
type View interface {
	// Eligible reports whether the warp in the slot can issue this cycle.
	Eligible(slot int) bool
	// Blocked reports whether the warp is stalled on a long-latency event
	// (outstanding dependent loads or a barrier) — the two-level pending
	// queue only promotes warps that are not blocked ("any ready warp
	// waiting in the pending queue is moved to the ready queue").
	Blocked(slot int) bool
	// UnblockGen returns a counter the view advances at every transition
	// that can turn a Blocked slot unblocked (a warp's last outstanding
	// load returning, a barrier releasing, a CTA launch). Extra advances
	// are harmless; a missed one lets TwoLevel's dry-refill memo skip a
	// promotion, which its CheckInvariants reports.
	UnblockGen() uint64
}

// Scheduler selects which warp issues next.
type Scheduler interface {
	Name() string
	// OnActivate registers a warp context; leading marks the CTA's
	// leading warp. Only PAS (TwoLevel with leadingFirst) acts on the
	// mark — LRR, GTO and the plain two-level variants silently ignore
	// leading and schedule the warp like any other.
	OnActivate(slot int, leading bool)
	// OnFinish removes a warp context.
	OnFinish(slot int)
	// Pick returns the slot to issue from, or -1.
	Pick(now int64, v View) int
	// OnLongLatency tells the scheduler the slot issued a long-latency
	// memory operation (two-level demotes it to the pending queue).
	OnLongLatency(slot int)
	// OnWake tells the scheduler prefetched data for the slot arrived
	// (PAS promotes it eagerly). Returns true if a promotion happened.
	OnWake(slot int) bool
}

// Quiescer is implemented by schedulers that can prove an idle cycle is a
// pure no-op: when Quiescent returns true and no warp is eligible, a Pick
// this cycle would return -1 without mutating any state the determinism
// hashes cover. The idle fast-forward (sim.WithIdleSkip) may only jump
// over an SM's cycles while its scheduler is quiescent; schedulers that do
// not implement the interface are conservatively never skipped.
type Quiescer interface {
	Quiescent(v View) bool
}

// StallRunner is implemented by schedulers that can replay a structurally
// stalled issue stage without running it. The SM calls BeginStall at the
// end of a tick whose every Pick either failed or returned a warp whose
// instruction could not issue (a structural stall that mutates nothing but
// a stall counter). Under the caller's guarantee that the scheduler's view
// — the eligibility and blocked sets — stays unchanged, ok=true promises
// that every subsequent Pick sequence is a fixed orbit: the same slots in
// the same cyclic order, with scheduler state evolving exactly as
// StallTick(m) replays for m consecutive Picks. picks=false means every
// Pick returns -1 (and mutates nothing); picks=true means Picks return
// slots — the scheduler feeds each distinct slot the orbit can return to
// StallPickable, and fails the snapshot (ok=false) if any is rejected, so
// the caller can demand that every pickable warp stalls structurally.
//
// The snapshot is derived state: it is valid only until the view changes
// (a fill, a CTA launch, a warp retiring its last access) and is excluded
// from HashState — but the cursor mutations StallTick applies are the
// architectural ones the real Picks would have made, keeping mid-window
// determinism checkpoints bit-identical to a run that never stalls.
type StallRunner interface {
	BeginStall(v StallView) (picks, ok bool)
	StallTick(m int)
}

// StallCost tallies the replay work a StallRunner performed on behalf of
// frozen ticks: Flushes counts the batched StallTick calls, Picks the
// Pick equivalents they replayed. Pure observation for the hostprof
// report (the cost of the fast-forward machinery itself); never read by
// the simulator and excluded from determinism hashes.
type StallCost struct {
	Flushes int64
	Picks   int64
}

// StallCoster is implemented by StallRunners that account their replay
// cost. The run harness gathers it once at close (sim.GPU.Close).
type StallCoster interface {
	StallCost() StallCost
}

// StallView extends View with the caller's structural-stall predicate:
// StallPickable reports whether a Pick returning slot would provably
// stall in execute without mutating anything (for the SM, a load the
// full LSU queue rejects). A View method rather than a closure argument
// so BeginStall stays allocation-free and statically analyzable.
type StallView interface {
	View
	StallPickable(slot int) bool
}

// ---------------------------------------------------------------- LRR ----

// LRR is loose round-robin: scan slots circularly from just after the last
// issued warp.
type LRR struct {
	active []bool
	next   int

	// stallOrbit/stallCursor cache the pick orbit for the structural-stall
	// replay (StallRunner): the eligible active slots in cyclic scan order
	// from next. Derived state, valid only between BeginStall and the next
	// view change.
	stallOrbit  []int
	stallCursor int
	stallCost   StallCost
}

// NewLRR creates an LRR scheduler for nslots warp contexts.
func NewLRR(nslots int) *LRR { return &LRR{active: make([]bool, nslots)} }

// Name implements Scheduler.
func (s *LRR) Name() string { return "lrr" }

// OnActivate implements Scheduler.
func (s *LRR) OnActivate(slot int, leading bool) { s.active[slot] = true }

// OnFinish implements Scheduler.
func (s *LRR) OnFinish(slot int) { s.active[slot] = false }

// Pick implements Scheduler.
//
//caps:hotpath
func (s *LRR) Pick(now int64, v View) int {
	n := len(s.active)
	for i := 0; i < n; i++ {
		slot := (s.next + i) % n
		if s.active[slot] && v.Eligible(slot) {
			s.next = (slot + 1) % n
			return slot
		}
	}
	return -1
}

// Quiescent implements Quiescer: a failed LRR Pick advances nothing (the
// cursor moves only on a successful issue), so LRR is always quiescent.
func (s *LRR) Quiescent(v View) bool { return true }

// BeginStall implements StallRunner: under a static view, LRR's Picks walk
// the eligible active slots in cyclic order from the cursor, advancing the
// cursor past each pick — a fixed orbit.
func (s *LRR) BeginStall(v StallView) (picks, ok bool) {
	if s.stallOrbit == nil {
		s.stallOrbit = make([]int, 0, len(s.active)) //caps:alloc-ok one-time lazy sizing; the orbit never exceeds the active-slot count

	}
	s.stallOrbit = s.stallOrbit[:0]
	n := len(s.active)
	for i := 0; i < n; i++ {
		slot := (s.next + i) % n
		if s.active[slot] && v.Eligible(slot) {
			if !v.StallPickable(slot) {
				return false, false
			}
			s.stallOrbit = append(s.stallOrbit, slot) //caps:alloc-ok stays within the lazily sized capacity above

		}
	}
	if len(s.stallOrbit) == 0 {
		return false, true
	}
	s.stallCursor = 0
	return true, true
}

// StallTick implements StallRunner: m Picks advance the cursor to just past
// the m-th orbit slot.
func (s *LRR) StallTick(m int) {
	s.stallCost.Flushes++
	s.stallCost.Picks += int64(m)
	p := len(s.stallOrbit)
	if p == 0 {
		return
	}
	s.stallCursor = (s.stallCursor + m) % p
	s.next = (s.stallOrbit[(s.stallCursor+p-1)%p] + 1) % len(s.active)
}

// StallCost implements StallCoster.
func (s *LRR) StallCost() StallCost { return s.stallCost }

// OnLongLatency implements Scheduler.
func (s *LRR) OnLongLatency(slot int) {}

// OnWake implements Scheduler.
func (s *LRR) OnWake(slot int) bool { return false }

// ---------------------------------------------------------------- GTO ----

// GTO is greedy-then-oldest: keep issuing from the current warp until it
// stalls, then fall back to the oldest (earliest-activated) eligible warp.
type GTO struct {
	age     []int64
	clock   int64
	current int

	stallCost StallCost

	// Observability (nil-safe): greedy-warp abandonments emit an
	// age-inversion outcome. lastNow mirrors TwoLevel's event-stamp cache
	// (OnLongLatency has no time parameter).
	sink    *obs.Sink
	smID    int
	lastNow int64
}

// NewGTO creates a GTO scheduler for nslots warp contexts.
func NewGTO(nslots int) *GTO {
	g := &GTO{age: make([]int64, nslots), current: -1}
	for i := range g.age {
		g.age[i] = -1
	}
	return g
}

// Name implements Scheduler.
func (s *GTO) Name() string { return "gto" }

// AttachObs connects the scheduler to an observability sink; smID names the
// trace track its age-inversion events land on.
func (s *GTO) AttachObs(sink *obs.Sink, smID int) {
	s.sink = sink
	s.smID = smID
}

// ObsTick publishes the current cycle for event stamping (see
// TwoLevel.ObsTick).
func (s *GTO) ObsTick(now int64) { s.lastNow = now }

// OnActivate implements Scheduler.
func (s *GTO) OnActivate(slot int, leading bool) {
	s.clock++
	s.age[slot] = s.clock
}

// OnFinish implements Scheduler.
func (s *GTO) OnFinish(slot int) {
	s.age[slot] = -1
	if s.current == slot {
		s.current = -1
	}
}

// Pick implements Scheduler.
//
//caps:hotpath
func (s *GTO) Pick(now int64, v View) int {
	if s.current >= 0 && s.age[s.current] >= 0 && v.Eligible(s.current) {
		return s.current
	}
	best := -1
	for slot, a := range s.age {
		if a < 0 || !v.Eligible(slot) {
			continue
		}
		if best == -1 || a < s.age[best] {
			best = slot
		}
	}
	s.current = best
	return best
}

// Quiescent implements Quiescer: a failed GTO Pick writes the scan result
// into current, so the scheduler is quiescent only once current has
// settled at -1 (one stalled tick after the greedy warp lost eligibility).
func (s *GTO) Quiescent(v View) bool { return s.current < 0 }

// BeginStall implements StallRunner. GTO's greedy rule makes stalled Picks
// trivially static: with current settled at an eligible slot every Pick
// returns it without mutation, and with current at -1 after a full failed
// scan every Pick rescans to the same -1. A current that is set but no
// longer eligible would mutate on the next Pick, so that case (which
// cannot arise right after a tick's own Picks settled it) rejects the
// snapshot.
func (s *GTO) BeginStall(v StallView) (picks, ok bool) {
	if s.current < 0 {
		return false, true
	}
	if !v.Eligible(s.current) || !v.StallPickable(s.current) {
		return false, false
	}
	return true, true
}

// StallTick implements StallRunner: a stalled GTO Pick never moves current,
// so only the replay-cost ledger advances.
func (s *GTO) StallTick(m int) {
	s.stallCost.Flushes++
	s.stallCost.Picks += int64(m)
}

// StallCost implements StallCoster.
func (s *GTO) StallCost() StallCost { return s.stallCost }

// OnLongLatency implements Scheduler: abandoning the greedy warp is GTO's
// age inversion — the next Pick falls back to the oldest eligible warp.
func (s *GTO) OnLongLatency(slot int) {
	if s.current == slot {
		s.current = -1
		s.sink.PickOutcome(s.lastNow, s.smID, slot, obs.PickAgeInversion)
	}
}

// OnWake implements Scheduler.
func (s *GTO) OnWake(slot int) bool { return false }

// ----------------------------------------------------------- two-level ----

// TwoLevel implements the two-level scheduler: only warps in the bounded
// ready queue are considered for issue; a warp issuing a long-latency load
// is demoted to the pending queue and a pending warp is promoted.
//
// Flags turn it into the paper's variants:
//   - leadingFirst: PAS — leading warps enter at the front of the ready
//     queue and are promoted from pending before trailing warps.
//   - interleaved: ORCH's prefetch-aware grouping — promotion order
//     interleaves warp slots across fetch groups so consecutive warps sit
//     in different scheduling groups.
//   - wakeup: PAS eager wake-up — OnWake promotes the slot immediately,
//     demoting the newest non-leading ready warp.
type TwoLevel struct {
	name         string
	readySize    int
	groups       int
	leadingFirst bool
	interleaved  bool
	wakeup       bool

	ready   []int // slots in issue priority order
	pending []int // slots waiting for promotion
	// flags holds each slot's slotKnown/slotLeading/slotBaseDone bits,
	// grown on demand to the highest slot activated. unbased counts the
	// slots whose flags satisfy isUnbased: while it is zero, PAS skips its
	// leading-warp scans.
	flags   []uint8
	unbased int
	rr      int // round-robin cursor within the ready queue
	// groupCounts is the interleaved variant's per-group occupancy
	// scratch, preallocated so refill stays off the allocator.
	groupCounts []int

	// stallOrbit/stallCursor/stallLeading cache the pick orbit for the
	// structural-stall replay (StallRunner): the ready-queue positions of
	// the eligible slots in cyclic scan order from rr, or the leading-warp
	// short-circuit that pins every Pick without moving rr. Derived state,
	// valid only between BeginStall and the next view change, excluded
	// from HashState.
	stallOrbit   []int
	stallCursor  int
	stallLeading bool
	stallCost    StallCost

	// dry/dryGen memoise a refill that found nothing promotable: while the
	// view's UnblockGen still equals dryGen and pending has gained no slot,
	// every pending slot is still blocked, so refill and Quiescent skip the
	// rescan. Derived state, excluded from HashState.
	dry    bool
	dryGen uint64

	// Observability (nil-safe). lastNow is the cycle most recently pushed
	// via ObsTick (or Pick); OnLongLatency/OnWake have no time parameter,
	// so their events are stamped with it.
	sink    *obs.Sink
	smID    int
	lastNow int64
}

// NewTwoLevel creates the baseline two-level scheduler with the given ready
// queue size.
func NewTwoLevel(readySize int) *TwoLevel {
	return &TwoLevel{name: "tlv", readySize: readySize}
}

// NewPAS creates the paper's Prefetch-Aware Scheduler. wakeup enables the
// eager warp wake-up mechanism (Section V-A); the paper's Fig. 14a also
// evaluates CAPS without it.
func NewPAS(readySize int, wakeup bool) *TwoLevel {
	return &TwoLevel{name: "pas", readySize: readySize, leadingFirst: true,
		wakeup: wakeup}
}

// NewTwoLevelInterleaved creates ORCH's grouped two-level scheduler with
// the given number of fetch groups.
func NewTwoLevelInterleaved(readySize, groups int) *TwoLevel {
	if groups < 1 {
		groups = 1
	}
	return &TwoLevel{name: "tlv-grouped", readySize: readySize, interleaved: true,
		groups: groups, groupCounts: make([]int, groups)}
}

// Name implements Scheduler.
func (s *TwoLevel) Name() string { return s.name }

// AttachObs connects the scheduler to an observability sink; smID names the
// trace track its promote/demote events land on.
func (s *TwoLevel) AttachObs(sink *obs.Sink, smID int) {
	s.sink = sink
	s.smID = smID
}

// ObsTick publishes the current cycle for event stamping. The SM calls it
// at the top of each Tick, before memory responses can trigger OnWake —
// without it, wake-driven demotes would be stamped with the previous
// cycle and break per-track timestamp monotonicity in exported traces.
func (s *TwoLevel) ObsTick(now int64) { s.lastNow = now }

// Per-slot flag bits in TwoLevel.flags.
const (
	// slotKnown: the slot was activated and has not finished.
	slotKnown uint8 = 1 << iota
	// slotLeading: the slot holds its CTA's leading warp (set only while
	// known).
	slotLeading
	// slotBaseDone: the leading warp has issued its base-address load. The
	// mark outlives OnFinish and is cleared by the slot's next OnActivate.
	slotBaseDone
)

// isUnbased reports whether f marks a live leading warp that has not yet
// issued its base-address load — the warps PAS prioritises.
func isUnbased(f uint8) bool { return f&(slotLeading|slotBaseDone) == slotLeading }

// flagsOf returns the slot's flag bits (zero for a slot never activated).
func (s *TwoLevel) flagsOf(slot int) uint8 {
	if slot < len(s.flags) {
		return s.flags[slot]
	}
	return 0
}

// setFlags stores the slot's flag bits and keeps unbased in step.
func (s *TwoLevel) setFlags(slot int, f uint8) {
	for slot >= len(s.flags) {
		s.flags = append(s.flags, 0) //caps:alloc-ok grows once to the highest warp slot the SM activates
	}
	if isUnbased(s.flags[slot]) {
		s.unbased--
	}
	if isUnbased(f) {
		s.unbased++
	}
	s.flags[slot] = f
}

// pushPending appends a slot to the pending queue. The new slot may be
// promotable, so the dry-refill memo no longer holds.
func (s *TwoLevel) pushPending(slot int) {
	s.pending = append(s.pending, slot) //caps:alloc-ok pending queue capacity converges to the SM's warp-slot count
	s.dry = false
}

// OnActivate implements Scheduler. New warps enter the pending queue; the
// refill step promotes them (leading warps first under PAS).
func (s *TwoLevel) OnActivate(slot int, leading bool) {
	f := slotKnown
	if leading {
		f |= slotLeading
	}
	s.setFlags(slot, f)
	s.pushPending(slot)
}

func removeSlot(q []int, slot int) ([]int, bool) {
	for i, v := range q {
		if v == slot {
			copy(q[i:], q[i+1:])
			return q[:len(q)-1], true
		}
	}
	return q, false
}

// OnFinish implements Scheduler.
func (s *TwoLevel) OnFinish(slot int) {
	if f := s.flagsOf(slot); f != 0 {
		s.setFlags(slot, f&^(slotKnown|slotLeading))
	}
	var ok bool
	if s.ready, ok = removeSlot(s.ready, slot); ok {
		return
	}
	s.pending, _ = removeSlot(s.pending, slot)
}

// refill promotes pending warps into free ready-queue slots. Only warps
// that are not blocked on memory or a barrier are promotable; among those,
// PAS prefers leading warps that have not yet computed their CTA's base
// address, and ORCH's grouped variant balances fetch groups. A pass that
// finds nothing promotable arms the dry-refill memo.
func (s *TwoLevel) refill(v View) {
	for len(s.ready) < s.readySize {
		if s.dry && s.dryGen == v.UnblockGen() {
			return
		}
		idx := -1
		if s.interleaved {
			// Prefer the promotable warp from the least-represented fetch
			// group (group = slot mod groups), so consecutive warps land
			// in different scheduling groups.
			counts := s.groupCounts
			for i := range counts {
				counts[i] = 0
			}
			for _, slot := range s.ready {
				counts[slot%s.groups]++
			}
			bestCnt := int(^uint(0) >> 1)
			for i, slot := range s.pending {
				if v.Blocked(slot) {
					continue
				}
				if g := slot % s.groups; counts[g] < bestCnt {
					bestCnt, idx = counts[g], i
				}
			}
		} else {
			// One pass: the first unblocked slot, unless PAS finds an
			// unblocked leading warp without its base further on.
			scanLeading := s.leadingFirst && s.unbased > 0
			for i, slot := range s.pending {
				if v.Blocked(slot) {
					continue
				}
				if idx == -1 {
					idx = i
					if !scanLeading {
						break
					}
				}
				if isUnbased(s.flags[slot]) {
					idx = i
					break
				}
			}
		}
		if idx == -1 {
			s.dry, s.dryGen = true, v.UnblockGen()
			return
		}
		slot := s.pending[idx]
		copy(s.pending[idx:], s.pending[idx+1:])
		s.pending = s.pending[:len(s.pending)-1]
		s.sink.SchedPromote(s.lastNow, s.smID, slot)
		f := s.flags[slot]
		if s.leadingFirst && isUnbased(f) {
			s.sink.PickOutcome(s.lastNow, s.smID, slot, obs.PickLeadingPromoted)
			// Front-insert in place: the old prepend built a fresh slice
			// on every leading-warp promotion.
			s.ready = append(s.ready, 0) //caps:alloc-ok ready queue capacity converges to readySize
			copy(s.ready[1:], s.ready)
			s.ready[0] = slot
		} else {
			if s.leadingFirst && f&slotLeading != 0 {
				// A leading warp past its base-address computation refills
				// in plain round-robin order: the PAS priority was bypassed.
				s.sink.PickOutcome(s.lastNow, s.smID, slot, obs.PickLeadingBypassed)
			}
			s.ready = append(s.ready, slot) //caps:alloc-ok ready queue capacity converges to readySize
		}
	}
}

// Pick implements Scheduler. Under PAS a leading warp that has not yet
// computed its CTA's base address is tried first (Fig. 8b); otherwise a
// round-robin cursor spreads issue over the ready queue — the paper
// prioritizes leading warps only "until they compute the base address".
//
//caps:hotpath
func (s *TwoLevel) Pick(now int64, v View) int {
	s.lastNow = now
	s.refill(v)
	n := len(s.ready)
	if n == 0 {
		return -1
	}
	if s.leadingFirst && s.unbased > 0 {
		for _, slot := range s.ready {
			if isUnbased(s.flags[slot]) && v.Eligible(slot) {
				return slot
			}
		}
	}
	for i := 0; i < n; i++ {
		slot := s.ready[(s.rr+i)%n]
		if v.Eligible(slot) {
			s.rr = (s.rr + i + 1) % n
			return slot
		}
	}
	return -1
}

// Quiescent implements Quiescer: a two-level Pick with nothing to issue
// still runs refill, so the scheduler is quiescent only when refill would
// promote nothing — either the ready queue is full, or no pending warp is
// promotable. (The round-robin cursor moves only on a successful issue,
// and lastNow is an event-stamp cache outside the hashed state.) A scan
// that finds every pending warp blocked arms the dry-refill memo.
func (s *TwoLevel) Quiescent(v View) bool {
	if len(s.ready) >= s.readySize || s.dry && s.dryGen == v.UnblockGen() {
		return true
	}
	for _, slot := range s.pending {
		if !v.Blocked(slot) {
			return false
		}
	}
	s.dry, s.dryGen = true, v.UnblockGen()
	return true
}

// BeginStall implements StallRunner. The snapshot requires Quiescent (a
// per-Pick refill that would promote anything makes the pick sequence
// depend on pending-queue evolution); past that, either the PAS
// leading-warp pre-scan pins every Pick to one slot without touching rr,
// or the Picks walk the eligible ready positions in cyclic order from rr,
// advancing rr past each pick — a fixed orbit.
func (s *TwoLevel) BeginStall(v StallView) (picks, ok bool) {
	if !s.Quiescent(v) {
		return false, false
	}
	s.stallLeading = false
	if s.leadingFirst && s.unbased > 0 {
		for _, slot := range s.ready {
			if isUnbased(s.flags[slot]) && v.Eligible(slot) {
				if !v.StallPickable(slot) {
					return false, false
				}
				s.stallLeading = true
				return true, true
			}
		}
	}
	if s.stallOrbit == nil {
		s.stallOrbit = make([]int, 0, s.readySize) //caps:alloc-ok one-time lazy sizing; the orbit never exceeds the ready-queue capacity

	}
	s.stallOrbit = s.stallOrbit[:0]
	n := len(s.ready)
	for i := 0; i < n; i++ {
		pos := (s.rr + i) % n
		if v.Eligible(s.ready[pos]) {
			if !v.StallPickable(s.ready[pos]) {
				return false, false
			}
			s.stallOrbit = append(s.stallOrbit, pos) //caps:alloc-ok stays within the lazily sized capacity above

		}
	}
	if len(s.stallOrbit) == 0 {
		return false, true
	}
	s.stallCursor = 0
	return true, true
}

// StallTick implements StallRunner: m Picks leave rr just past the m-th
// orbit position — except in the leading-warp case, where Pick returns
// before the round-robin scan and rr never moves.
func (s *TwoLevel) StallTick(m int) {
	s.stallCost.Flushes++
	s.stallCost.Picks += int64(m)
	if s.stallLeading {
		return
	}
	p := len(s.stallOrbit)
	if p == 0 {
		return
	}
	s.stallCursor = (s.stallCursor + m) % p
	s.rr = (s.stallOrbit[(s.stallCursor+p-1)%p] + 1) % len(s.ready)
}

// StallCost implements StallCoster.
func (s *TwoLevel) StallCost() StallCost { return s.stallCost }

// OnLongLatency implements Scheduler: the warp stalled on a long-latency
// event, so it leaves the ready queue. A leading warp's first long-latency
// load is its base-address computation; past that point it no longer holds
// issue priority.
func (s *TwoLevel) OnLongLatency(slot int) {
	if f := s.flagsOf(slot); f&slotLeading != 0 {
		s.setFlags(slot, f|slotBaseDone)
	}
	var ok bool
	if s.ready, ok = removeSlot(s.ready, slot); !ok {
		return
	}
	s.sink.SchedDemote(s.lastNow, s.smID, slot)
	s.sink.PickOutcome(s.lastNow, s.smID, slot, obs.PickDemoteLongLatency)
	s.pushPending(slot)
}

// OnWake implements Scheduler: with wake-up enabled, promote the slot from
// pending immediately, displacing the newest non-leading ready warp.
func (s *TwoLevel) OnWake(slot int) bool {
	if !s.wakeup {
		return false
	}
	var ok bool
	if s.pending, ok = removeSlot(s.pending, slot); !ok {
		return false // already ready (or finished): nothing to do
	}
	if len(s.ready) >= s.readySize && len(s.ready) > 0 {
		// Push one ready warp forcibly into the pending queue (paper §V-A).
		victimIdx := len(s.ready) - 1
		for i := len(s.ready) - 1; i >= 0; i-- {
			if s.flags[s.ready[i]]&slotLeading == 0 {
				victimIdx = i
				break
			}
		}
		victim := s.ready[victimIdx]
		copy(s.ready[victimIdx:], s.ready[victimIdx+1:])
		s.ready = s.ready[:len(s.ready)-1]
		s.sink.SchedDemote(s.lastNow, s.smID, victim)
		s.sink.PickOutcome(s.lastNow, s.smID, victim, obs.PickDemoteDisplaced)
		s.pushPending(victim)
	}
	s.ready = append(s.ready, slot) //caps:alloc-ok ready queue capacity converges to readySize
	return true
}

// HashState folds the scheduler's architectural state — queue contents and
// order, the round-robin cursor, and the leading/base-done marks — into h
// for the determinism harness's periodic checkpoints: every known slot in
// ascending order with its leading bit, then every base-done slot in
// ascending order.
func (s *TwoLevel) HashState(h hash.Hash64) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(len(s.ready)))
	for _, slot := range s.ready {
		word(uint64(slot))
	}
	word(uint64(len(s.pending)))
	for _, slot := range s.pending {
		word(uint64(slot))
	}
	word(uint64(s.rr))
	for slot, f := range s.flags {
		if f&slotKnown != 0 {
			word(uint64(slot))
			if f&slotLeading != 0 {
				word(1)
			} else {
				word(0)
			}
		}
	}
	for slot, f := range s.flags {
		if f&slotBaseDone != 0 {
			word(uint64(slot))
		}
	}
}

// ReadySlots returns a copy of the ready queue (test hook).
func (s *TwoLevel) ReadySlots() []int { return append([]int(nil), s.ready...) }

// PendingSlots returns a copy of the pending queue (test hook).
func (s *TwoLevel) PendingSlots() []int { return append([]int(nil), s.pending...) }

// IsLeading reports whether the slot is currently marked as its CTA's
// leading warp (sanitizer and test hook).
func (s *TwoLevel) IsLeading(slot int) bool { return s.flagsOf(slot)&slotLeading != 0 }

// ForceLeading overrides a slot's leading mark. It exists only so sanitizer
// tests can corrupt the scheduler's view; the simulator never calls it.
func (s *TwoLevel) ForceLeading(slot int, leading bool) {
	f := s.flagsOf(slot)&^slotLeading | slotKnown
	if leading {
		f |= slotLeading
	}
	s.setFlags(slot, f)
}

// ForceReady appends a slot to the ready queue unconditionally. Sanitizer
// test hook: it can violate the queue bound or duplicate a slot on purpose.
func (s *TwoLevel) ForceReady(slot int) { s.ready = append(s.ready, slot) }

// CheckInvariants audits the two-level queue discipline (sanitizer entry
// point, called by the SM once per cycle when invariant checking is on):
// the ready queue respects its bound, no slot is queued twice, the ready
// and pending queues exactly partition the set of registered slots, the
// unbased counter matches the per-slot flags, and an armed dry-refill memo
// still holds in v (every pending slot blocked). registered lists the
// slots whose warps are live on the SM.
func (s *TwoLevel) CheckInvariants(now int64, v View, registered []int) error {
	comp := "sched/" + s.name
	if len(s.ready) > s.readySize {
		return invariant.Errorf(comp, now, "ready queue holds %d slots, bound is %d",
			len(s.ready), s.readySize)
	}
	// Slot sets as stack bitmasks: this runs once per SM per cycle, so it
	// must not allocate. 128 bits covers any realistic MaxWarpsPerSM (the
	// CAPS seen/issued masks already cap warps-per-CTA at 64).
	var want, seen slotMask
	for _, slot := range registered {
		if !want.set(slot) {
			return invariant.Errorf(comp, now, "warp slot %d outside the %d-slot sanitizer range", slot, len(want)*64)
		}
	}
	for _, q := range [2][]int{s.ready, s.pending} {
		for _, slot := range q {
			if seen.has(slot) {
				return invariant.Errorf(comp, now, "warp slot %d queued twice", slot)
			}
			if !seen.set(slot) {
				return invariant.Errorf(comp, now, "warp slot %d outside the %d-slot sanitizer range", slot, len(seen)*64)
			}
			if !want.has(slot) {
				return invariant.Errorf(comp, now, "warp slot %d queued but not live on the SM", slot)
			}
		}
	}
	for _, slot := range registered {
		if !seen.has(slot) {
			return invariant.Errorf(comp, now, "live warp slot %d missing from both queues", slot)
		}
	}
	unbased := 0
	for _, f := range s.flags {
		if isUnbased(f) {
			unbased++
		}
	}
	if unbased != s.unbased {
		return invariant.Errorf(comp, now, "unbased counter (%d) disagrees with the slot flags (%d unbased leading warps)",
			s.unbased, unbased)
	}
	if s.dry && s.dryGen == v.UnblockGen() {
		for _, slot := range s.pending {
			if !v.Blocked(slot) {
				return invariant.Errorf(comp, now,
					"dry-refill memo armed at unblock generation %d but pending slot %d is unblocked (an unblock did not advance UnblockGen)",
					s.dryGen, slot)
			}
		}
	}
	return nil
}

// slotMask is a 128-slot bit set used by CheckInvariants to avoid per-cycle
// map allocations.
type slotMask [2]uint64

func (m *slotMask) set(slot int) bool {
	if slot < 0 || slot >= len(m)*64 {
		return false
	}
	m[slot>>6] |= 1 << (slot & 63)
	return true
}

func (m *slotMask) has(slot int) bool {
	return slot >= 0 && slot < len(m)*64 && m[slot>>6]&(1<<(slot&63)) != 0
}
