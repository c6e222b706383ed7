package sched

// Equivalence test for the two-level/PAS bookkeeping: refTwoLevel below is
// the original map-based TwoLevel (leading and baseDone maps, two-pass PAS
// refill, full pending rescan on every Pick), kept verbatim as a reference
// model. Seeded random operation streams drive it and TwoLevel side by side
// through a scripted 48-slot view; after every operation both must agree on
// the pick, the queues and the HashState bytes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"caps/internal/obs"
)

const equivSlots = 48

// scriptView is a 48-slot StallView whose unblock generation advances on
// every blocked→unblocked transition, as the SM's does.
type scriptView struct {
	blocked, ineligible, pickable [equivSlots]bool
	gen                           uint64
}

func (v *scriptView) Eligible(slot int) bool      { return !v.blocked[slot] && !v.ineligible[slot] }
func (v *scriptView) Blocked(slot int) bool       { return v.blocked[slot] }
func (v *scriptView) UnblockGen() uint64          { return v.gen }
func (v *scriptView) StallPickable(slot int) bool { return v.pickable[slot] }

func (v *scriptView) setBlocked(slot int, b bool) {
	if v.blocked[slot] && !b {
		v.gen++
	}
	v.blocked[slot] = b
}

// hashBytes is a hash.Hash64 that keeps every byte written to it, so
// HashState outputs can be compared exactly.
type hashBytes struct{ b []byte }

func (h *hashBytes) Write(p []byte) (int, error) { h.b = append(h.b, p...); return len(p), nil }
func (h *hashBytes) Sum(b []byte) []byte         { return append(b, h.b...) }
func (h *hashBytes) Reset()                      { h.b = h.b[:0] }
func (h *hashBytes) Size() int                   { return 8 }
func (h *hashBytes) BlockSize() int              { return 1 }
func (h *hashBytes) Sum64() uint64               { return 0 }

func TestTwoLevelMatchesMapReference(t *testing.T) {
	variants := []struct {
		name string
		mk   func() (*TwoLevel, *refTwoLevel)
	}{
		{"tlv", func() (*TwoLevel, *refTwoLevel) { return NewTwoLevel(8), newRefTwoLevel(8) }},
		{"pas", func() (*TwoLevel, *refTwoLevel) { return NewPAS(8, true), newRefPAS(8, true) }},
		{"pas-nowake", func() (*TwoLevel, *refTwoLevel) { return NewPAS(8, false), newRefPAS(8, false) }},
		{"tlv-grouped", func() (*TwoLevel, *refTwoLevel) {
			return NewTwoLevelInterleaved(8, 6), newRefTwoLevelInterleaved(8, 6)
		}},
	}
	for _, vr := range variants {
		for seed := int64(1); seed <= 6; seed++ {
			got, want := vr.mk()
			t.Run(fmt.Sprintf("%s/seed%d", vr.name, seed), func(t *testing.T) {
				runEquiv(t, got, want, seed, 5000)
			})
		}
	}
}

// runEquiv applies n random scheduler and view operations to got and want
// and fails at the first operation after which they disagree.
func runEquiv(t *testing.T, got *TwoLevel, want *refTwoLevel, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	v := &scriptView{}
	for i := range v.blocked {
		v.blocked[i] = true // empty slots read as blocked, like a retired warp
	}
	var live [equivSlots]bool
	var hg, hw hashBytes
	now := int64(0)
	for op := 0; op < n; op++ {
		slot := rng.Intn(equivSlots)
		var desc string
		switch r := rng.Intn(100); {
		case r < 10:
			if live[slot] {
				continue
			}
			leading := slot%4 == 0 || rng.Intn(8) == 0
			desc = fmt.Sprintf("OnActivate(%d, %v)", slot, leading)
			live[slot] = true
			v.setBlocked(slot, false)
			v.ineligible[slot] = false
			got.OnActivate(slot, leading)
			want.OnActivate(slot, leading)
		case r < 14:
			if !live[slot] {
				continue
			}
			desc = fmt.Sprintf("OnFinish(%d)", slot)
			live[slot] = false
			v.setBlocked(slot, true)
			got.OnFinish(slot)
			want.OnFinish(slot)
		case r < 32:
			if !live[slot] {
				continue
			}
			desc = fmt.Sprintf("OnLongLatency(%d)", slot)
			if rng.Intn(4) != 0 {
				v.setBlocked(slot, true)
			}
			got.OnLongLatency(slot)
			want.OnLongLatency(slot)
		case r < 46:
			if !live[slot] {
				continue
			}
			desc = fmt.Sprintf("unblock(%d)", slot)
			v.setBlocked(slot, false)
		case r < 50:
			desc = fmt.Sprintf("block(%d)", slot)
			v.setBlocked(slot, true)
		case r < 55:
			desc = fmt.Sprintf("toggle eligible(%d)", slot)
			v.ineligible[slot] = !v.ineligible[slot]
		case r < 62:
			desc = fmt.Sprintf("OnWake(%d)", slot)
			if g, w := got.OnWake(slot), want.OnWake(slot); g != w {
				t.Fatalf("op %d %s: promoted %v, reference %v", op, desc, g, w)
			}
		case r < 70:
			for i := range v.pickable {
				v.pickable[i] = rng.Intn(3) != 0
			}
			desc = "BeginStall"
			gp, gok := got.BeginStall(v)
			wp, wok := want.BeginStall(v)
			if gp != wp || gok != wok {
				t.Fatalf("op %d %s: (%v, %v), reference (%v, %v)", op, desc, gp, gok, wp, wok)
			}
			if gok && gp {
				m := 1 + rng.Intn(7)
				desc = fmt.Sprintf("BeginStall+StallTick(%d)", m)
				got.StallTick(m)
				want.StallTick(m)
			}
		default:
			now++
			desc = fmt.Sprintf("Pick(%d)", now)
			if g, w := got.Quiescent(v), want.Quiescent(v); g != w {
				t.Fatalf("op %d Quiescent: %v, reference %v", op, g, w)
			}
			if g, w := got.Pick(now, v), want.Pick(now, v); g != w {
				t.Fatalf("op %d %s: picked %d, reference %d", op, desc, g, w)
			}
		}
		if g, w := got.ReadySlots(), want.ReadySlots(); !slices.Equal(g, w) {
			t.Fatalf("op %d %s: ready %v, reference %v", op, desc, g, w)
		}
		if g, w := got.PendingSlots(), want.PendingSlots(); !slices.Equal(g, w) {
			t.Fatalf("op %d %s: pending %v, reference %v", op, desc, g, w)
		}
		hg.Reset()
		hw.Reset()
		got.HashState(&hg)
		want.HashState(&hw)
		if !bytes.Equal(hg.b, hw.b) {
			t.Fatalf("op %d %s: HashState bytes differ from the reference", op, desc)
		}
		var registered []int
		for i, l := range live {
			if l {
				registered = append(registered, i)
			}
		}
		if err := got.CheckInvariants(now, v, registered); err != nil {
			t.Fatalf("op %d %s: %v", op, desc, err)
		}
	}
}

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
type refTwoLevel struct {
	name         string
	readySize    int
	groups       int
	leadingFirst bool
	interleaved  bool
	wakeup       bool

	ready    []int // slots in issue priority order
	pending  []int // slots waiting for promotion
	leading  map[int]bool
	baseDone map[int]bool // leading warp has issued its first load
	rr       int          // round-robin cursor within the ready queue
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

	// Observability (nil-safe). lastNow is the cycle most recently pushed
	// via ObsTick (or Pick); OnLongLatency/OnWake have no time parameter,
	// so their events are stamped with it.
	sink    *obs.Sink
	smID    int
	lastNow int64
}

// NewTwoLevel creates the baseline two-level scheduler with the given ready
// queue size.
func newRefTwoLevel(readySize int) *refTwoLevel {
	return &refTwoLevel{name: "tlv", readySize: readySize,
		leading: map[int]bool{}, baseDone: map[int]bool{}}
}

// NewPAS creates the paper's Prefetch-Aware Scheduler. wakeup enables the
// eager warp wake-up mechanism (Section V-A); the paper's Fig. 14a also
// evaluates CAPS without it.
func newRefPAS(readySize int, wakeup bool) *refTwoLevel {
	return &refTwoLevel{name: "pas", readySize: readySize, leadingFirst: true,
		wakeup: wakeup, leading: map[int]bool{}, baseDone: map[int]bool{}}
}

// NewTwoLevelInterleaved creates ORCH's grouped two-level scheduler with
// the given number of fetch groups.
func newRefTwoLevelInterleaved(readySize, groups int) *refTwoLevel {
	if groups < 1 {
		groups = 1
	}
	return &refTwoLevel{name: "tlv-grouped", readySize: readySize, interleaved: true,
		groups: groups, groupCounts: make([]int, groups),
		leading: map[int]bool{}, baseDone: map[int]bool{}}
}

// Name implements Scheduler.
func (s *refTwoLevel) Name() string { return s.name }

// AttachObs connects the scheduler to an observability sink; smID names the
// trace track its promote/demote events land on.
func (s *refTwoLevel) AttachObs(sink *obs.Sink, smID int) {
	s.sink = sink
	s.smID = smID
}

// ObsTick publishes the current cycle for event stamping. The SM calls it
// at the top of each Tick, before memory responses can trigger OnWake —
// without it, wake-driven demotes would be stamped with the previous
// cycle and break per-track timestamp monotonicity in exported traces.
func (s *refTwoLevel) ObsTick(now int64) { s.lastNow = now }

// OnActivate implements Scheduler. New warps enter the pending queue; the
// refill step promotes them (leading warps first under PAS).
func (s *refTwoLevel) OnActivate(slot int, leading bool) {
	s.leading[slot] = leading
	delete(s.baseDone, slot)
	s.pending = append(s.pending, slot)
}

// OnFinish implements Scheduler.
func (s *refTwoLevel) OnFinish(slot int) {
	defer delete(s.leading, slot)
	var ok bool
	if s.ready, ok = removeSlot(s.ready, slot); ok {
		return
	}
	s.pending, _ = removeSlot(s.pending, slot)
}

// refill promotes pending warps into free ready-queue slots. Only warps
// that are not blocked on memory or a barrier are promotable; among those,
// PAS prefers leading warps that have not yet computed their CTA's base
// address, and ORCH's grouped variant balances fetch groups.
func (s *refTwoLevel) refill(v View) {
	for len(s.ready) < s.readySize {
		idx := -1
		switch {
		case s.leadingFirst:
			for i, slot := range s.pending {
				if s.leading[slot] && !s.baseDone[slot] && !v.Blocked(slot) {
					idx = i
					break
				}
			}
		case s.interleaved:
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
		}
		if idx == -1 {
			for i, slot := range s.pending {
				if !v.Blocked(slot) {
					idx = i
					break
				}
			}
		}
		if idx == -1 {
			return
		}
		slot := s.pending[idx]
		copy(s.pending[idx:], s.pending[idx+1:])
		s.pending = s.pending[:len(s.pending)-1]
		s.sink.SchedPromote(s.lastNow, s.smID, slot)
		if s.leadingFirst && s.leading[slot] && !s.baseDone[slot] {
			s.sink.PickOutcome(s.lastNow, s.smID, slot, obs.PickLeadingPromoted)
			// Front-insert in place: the old prepend built a fresh slice
			// on every leading-warp promotion.
			s.ready = append(s.ready, 0) //caps:alloc-ok ready queue capacity converges to readySize
			copy(s.ready[1:], s.ready)
			s.ready[0] = slot
		} else {
			if s.leadingFirst && s.leading[slot] {
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
func (s *refTwoLevel) Pick(now int64, v View) int {
	s.lastNow = now
	s.refill(v)
	n := len(s.ready)
	if n == 0 {
		return -1
	}
	if s.leadingFirst {
		for _, slot := range s.ready {
			if s.leading[slot] && !s.baseDone[slot] && v.Eligible(slot) {
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
// and lastNow is an event-stamp cache outside the hashed state.)
func (s *refTwoLevel) Quiescent(v View) bool {
	if len(s.ready) >= s.readySize {
		return true
	}
	for _, slot := range s.pending {
		if !v.Blocked(slot) {
			return false
		}
	}
	return true
}

// BeginStall implements StallRunner. The snapshot requires Quiescent (a
// per-Pick refill that would promote anything makes the pick sequence
// depend on pending-queue evolution); past that, either the PAS
// leading-warp pre-scan pins every Pick to one slot without touching rr,
// or the Picks walk the eligible ready positions in cyclic order from rr,
// advancing rr past each pick — a fixed orbit.
func (s *refTwoLevel) BeginStall(v StallView) (picks, ok bool) {
	if !s.Quiescent(v) {
		return false, false
	}
	s.stallLeading = false
	if s.leadingFirst {
		for _, slot := range s.ready {
			if s.leading[slot] && !s.baseDone[slot] && v.Eligible(slot) {
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
func (s *refTwoLevel) StallTick(m int) {
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
func (s *refTwoLevel) StallCost() StallCost { return s.stallCost }

// OnLongLatency implements Scheduler: the warp stalled on a long-latency
// event, so it leaves the ready queue. A leading warp's first long-latency
// load is its base-address computation; past that point it no longer holds
// issue priority.
func (s *refTwoLevel) OnLongLatency(slot int) {
	if s.leading[slot] {
		s.baseDone[slot] = true
	}
	var ok bool
	if s.ready, ok = removeSlot(s.ready, slot); !ok {
		return
	}
	s.sink.SchedDemote(s.lastNow, s.smID, slot)
	s.sink.PickOutcome(s.lastNow, s.smID, slot, obs.PickDemoteLongLatency)
	s.pending = append(s.pending, slot) //caps:alloc-ok pending queue capacity converges to the SM's warp-slot count
}

// OnWake implements Scheduler: with wake-up enabled, promote the slot from
// pending immediately, displacing the newest non-leading ready warp.
func (s *refTwoLevel) OnWake(slot int) bool {
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
			if !s.leading[s.ready[i]] {
				victimIdx = i
				break
			}
		}
		victim := s.ready[victimIdx]
		copy(s.ready[victimIdx:], s.ready[victimIdx+1:])
		s.ready = s.ready[:len(s.ready)-1]
		s.sink.SchedDemote(s.lastNow, s.smID, victim)
		s.sink.PickOutcome(s.lastNow, s.smID, victim, obs.PickDemoteDisplaced)
		s.pending = append(s.pending, victim) //caps:alloc-ok pending queue capacity converges to the SM's warp-slot count
	}
	s.ready = append(s.ready, slot) //caps:alloc-ok ready queue capacity converges to readySize
	return true
}

// HashState folds the scheduler's architectural state — queue contents and
// order, the round-robin cursor, and the leading/base-done marks — into h
// for the determinism harness's periodic checkpoints. Map iteration is made
// order-independent by folding slots in index order.
func (s *refTwoLevel) HashState(h hash.Hash64) {
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
	keys := make([]int, 0, len(s.leading)+len(s.baseDone))
	for slot := range s.leading { //simcheck:allow detlint — collected then sorted below
		keys = append(keys, slot)
	}
	sort.Ints(keys)
	for _, slot := range keys {
		word(uint64(slot))
		if s.leading[slot] {
			word(1)
		} else {
			word(0)
		}
	}
	keys = keys[:0]
	for slot := range s.baseDone { //simcheck:allow detlint — collected then sorted below
		keys = append(keys, slot)
	}
	sort.Ints(keys)
	for _, slot := range keys {
		word(uint64(slot))
	}
}

// ReadySlots returns a copy of the ready queue (test hook).
func (s *refTwoLevel) ReadySlots() []int { return append([]int(nil), s.ready...) }

// PendingSlots returns a copy of the pending queue (test hook).
func (s *refTwoLevel) PendingSlots() []int { return append([]int(nil), s.pending...) }
