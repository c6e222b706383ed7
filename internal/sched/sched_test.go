package sched

import "testing"

// fakeView is a scriptable sched.View. Tests block a slot by writing
// blocked directly and unblock it through unblock, which advances the
// unblock generation as the View contract requires.
type fakeView struct {
	ineligible map[int]bool
	blocked    map[int]bool
	gen        uint64
}

func newFakeView() *fakeView {
	return &fakeView{ineligible: map[int]bool{}, blocked: map[int]bool{}}
}

func (v *fakeView) Eligible(slot int) bool { return !v.ineligible[slot] && !v.blocked[slot] }
func (v *fakeView) Blocked(slot int) bool  { return v.blocked[slot] }
func (v *fakeView) UnblockGen() uint64     { return v.gen }

func (v *fakeView) unblock(slot int) {
	delete(v.blocked, slot)
	v.gen++
}

func TestLRRRoundRobin(t *testing.T) {
	s := NewLRR(4)
	v := newFakeView()
	for i := 0; i < 4; i++ {
		s.OnActivate(i, false)
	}
	var order []int
	for i := 0; i < 8; i++ {
		order = append(order, s.Pick(int64(i), v))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LRR order = %v, want %v", order, want)
		}
	}
}

func TestLRRSkipsIneligibleAndFinished(t *testing.T) {
	s := NewLRR(3)
	v := newFakeView()
	for i := 0; i < 3; i++ {
		s.OnActivate(i, false)
	}
	v.ineligible[1] = true
	s.OnFinish(2)
	if got := s.Pick(0, v); got != 0 {
		t.Errorf("Pick = %d, want 0", got)
	}
	if got := s.Pick(1, v); got != 0 {
		t.Errorf("Pick = %d, want 0 again (1 ineligible, 2 finished)", got)
	}
	v.ineligible[0] = true
	if got := s.Pick(2, v); got != -1 {
		t.Errorf("Pick = %d, want -1 with nothing eligible", got)
	}
}

func TestGTOGreedyThenOldest(t *testing.T) {
	s := NewGTO(4)
	v := newFakeView()
	s.OnActivate(2, false) // oldest
	s.OnActivate(0, false)
	s.OnActivate(1, false)

	if got := s.Pick(0, v); got != 2 {
		t.Fatalf("first pick = %d, want oldest (2)", got)
	}
	// Greedy: stays on 2 while eligible.
	if got := s.Pick(1, v); got != 2 {
		t.Errorf("greedy pick = %d, want 2", got)
	}
	// 2 stalls on a long-latency op: falls back to next-oldest (0).
	s.OnLongLatency(2)
	v.ineligible[2] = true
	if got := s.Pick(2, v); got != 0 {
		t.Errorf("after stall pick = %d, want 0", got)
	}
	// Finish clears current.
	s.OnFinish(0)
	v.ineligible[2] = false
	if got := s.Pick(3, v); got != 2 {
		t.Errorf("after finish pick = %d, want 2 (oldest alive)", got)
	}
}

func TestTwoLevelReadyQueueBound(t *testing.T) {
	s := NewTwoLevel(2)
	v := newFakeView()
	for i := 0; i < 5; i++ {
		s.OnActivate(i, i == 0)
	}
	s.Pick(0, v) // triggers refill
	if got := len(s.ReadySlots()); got != 2 {
		t.Errorf("ready queue size = %d, want 2", got)
	}
	if got := len(s.PendingSlots()); got != 3 {
		t.Errorf("pending size = %d, want 3", got)
	}
}

func TestTwoLevelDemoteAndRefill(t *testing.T) {
	s := NewTwoLevel(2)
	v := newFakeView()
	for i := 0; i < 4; i++ {
		s.OnActivate(i, false)
	}
	s.Pick(0, v)
	ready := s.ReadySlots() // [0 1]
	s.OnLongLatency(ready[0])
	v.blocked[ready[0]] = true
	s.Pick(1, v)
	newReady := s.ReadySlots()
	if len(newReady) != 2 {
		t.Fatalf("ready = %v, want 2 slots after refill", newReady)
	}
	for _, slot := range newReady {
		if slot == ready[0] {
			t.Errorf("demoted slot %d still in ready queue", ready[0])
		}
	}
}

func TestTwoLevelDoesNotPromoteBlockedWarps(t *testing.T) {
	s := NewTwoLevel(2)
	v := newFakeView()
	for i := 0; i < 4; i++ {
		s.OnActivate(i, false)
	}
	v.blocked[2] = true
	v.blocked[3] = true
	s.Pick(0, v)
	// Demote both ready warps; only unblocked ones may be promoted.
	s.OnLongLatency(0)
	s.OnLongLatency(1)
	v.blocked[0] = true
	v.blocked[1] = true
	if got := s.Pick(1, v); got != -1 {
		t.Errorf("Pick = %d, want -1 (everything blocked)", got)
	}
	if got := len(s.ReadySlots()); got != 0 {
		t.Errorf("ready holds %d blocked warps, want 0", got)
	}
	// Unblock one pending warp: it must be promoted and picked.
	v.unblock(3)
	if got := s.Pick(2, v); got != 3 {
		t.Errorf("Pick = %d, want 3 after unblock", got)
	}
}

func TestPASLeadingWarpsFirst(t *testing.T) {
	s := NewPAS(2, true)
	v := newFakeView()
	// Two CTAs of 2 warps: leading warps are 0 and 2.
	s.OnActivate(0, true)
	s.OnActivate(1, false)
	s.OnActivate(2, true)
	s.OnActivate(3, false)

	first := s.Pick(0, v)
	// The leading warp issues its base-address load and is demoted;
	// the next leading warp takes over.
	s.OnLongLatency(first)
	v.blocked[first] = true
	second := s.Pick(1, v)
	got := map[int]bool{first: true, second: true}
	if !got[0] || !got[2] {
		t.Errorf("PAS first picks = %d,%d; want the leading warps 0 and 2", first, second)
	}
}

func TestPASLeadingPriorityEndsAfterBaseComputed(t *testing.T) {
	s := NewPAS(2, true)
	v := newFakeView()
	s.OnActivate(0, true)
	s.OnActivate(1, false)
	// Leading warp issues its base-address load → demoted, baseDone.
	if got := s.Pick(0, v); got != 0 {
		t.Fatalf("first pick = %d, want leading warp 0", got)
	}
	s.OnLongLatency(0)
	// Once re-promoted, warp 0 no longer jumps the queue.
	s.Pick(1, v)
	ready := s.ReadySlots()
	if len(ready) > 0 && ready[0] == 0 && len(ready) == 2 {
		// Warp 0 may be present but must not be at the front ahead of 1.
		t.Errorf("leading warp still holds front priority after base computed: %v", ready)
	}
}

func TestPASWakePromotesFromPending(t *testing.T) {
	s := NewPAS(2, true)
	v := newFakeView()
	for i := 0; i < 4; i++ {
		s.OnActivate(i, false)
	}
	s.Pick(0, v) // ready [0 1], pending [2 3]
	if s.OnWake(3) != true {
		t.Fatal("OnWake should promote a pending warp")
	}
	found := false
	for _, slot := range s.ReadySlots() {
		if slot == 3 {
			found = true
		}
	}
	if !found {
		t.Error("woken warp not in ready queue")
	}
	// Ready stays bounded: someone was displaced.
	if got := len(s.ReadySlots()); got > 2 {
		t.Errorf("ready exceeded its bound after wake: %d", got)
	}
}

func TestWakeDisabledOnPlainTwoLevel(t *testing.T) {
	s := NewTwoLevel(2)
	for i := 0; i < 3; i++ {
		s.OnActivate(i, false)
	}
	if s.OnWake(2) {
		t.Error("plain two-level must not implement eager wake-up")
	}
}

func TestWakeUnknownSlotIsNoop(t *testing.T) {
	s := NewPAS(2, true)
	s.OnActivate(0, false)
	if s.OnWake(7) {
		t.Error("waking a slot not in pending should be a no-op")
	}
}

func TestInterleavedSpreadsGroups(t *testing.T) {
	s := NewTwoLevelInterleaved(4, 2)
	v := newFakeView()
	for i := 0; i < 8; i++ {
		s.OnActivate(i, false)
	}
	s.Pick(0, v)
	counts := map[int]int{}
	for _, slot := range s.ReadySlots() {
		counts[slot%2]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("interleaved refill should balance groups, got %v (ready %v)", counts, s.ReadySlots())
	}
}

func TestFinishRemovesFromQueues(t *testing.T) {
	s := NewTwoLevel(2)
	v := newFakeView()
	for i := 0; i < 4; i++ {
		s.OnActivate(i, false)
	}
	s.Pick(0, v)
	s.OnFinish(0) // from ready
	s.OnFinish(3) // from pending
	s.Pick(1, v)
	for _, slot := range append(s.ReadySlots(), s.PendingSlots()...) {
		if slot == 0 || slot == 3 {
			t.Errorf("finished slot %d still tracked", slot)
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewLRR(1).Name() != "lrr" ||
		NewGTO(1).Name() != "gto" ||
		NewTwoLevel(1).Name() != "tlv" ||
		NewPAS(1, true).Name() != "pas" ||
		NewTwoLevelInterleaved(1, 2).Name() != "tlv-grouped" {
		t.Error("scheduler names changed")
	}
}
