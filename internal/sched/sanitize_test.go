package sched

// Corruption tests for the two-level/PAS scheduler invariants: the checks
// must fire on a deliberately duplicated ready-queue slot and on queue
// membership that disagrees with the SM's live-warp set.

import (
	"errors"
	"strings"
	"testing"

	"caps/internal/config"
	"caps/internal/invariant"
)

func wantSchedViolation(t *testing.T, err error, substr string) {
	t.Helper()
	var v *invariant.Violation
	if !errors.As(err, &v) {
		t.Fatalf("want invariant.Violation, got %v", err)
	}
	if !strings.Contains(v.Msg, substr) {
		t.Fatalf("violation %q does not mention %q", v.Msg, substr)
	}
	if !strings.HasPrefix(v.Component, "sched/") {
		t.Fatalf("component %q should name the scheduler", v.Component)
	}
}

func TestSanitizerCatchesDuplicateReadySlot(t *testing.T) {
	s := NewPAS(8, true)
	s.OnActivate(0, true)
	s.OnActivate(1, false)
	if err := s.CheckInvariants(10, newFakeView(), []int{0, 1}); err != nil {
		t.Fatalf("healthy PAS queues tripped the sanitizer: %v", err)
	}
	s.ForceReady(0) // slot 0 now queued twice
	wantSchedViolation(t, s.CheckInvariants(11, newFakeView(), []int{0, 1}), "queued twice")
}

func TestSanitizerCatchesGhostSlot(t *testing.T) {
	s := NewTwoLevel(4)
	s.OnActivate(2, false)
	s.ForceReady(9) // queued, but 9 is not live on the SM
	wantSchedViolation(t, s.CheckInvariants(3, newFakeView(), []int{2}), "not live")
}

func TestSanitizerCatchesLostSlot(t *testing.T) {
	s := NewTwoLevel(4)
	s.OnActivate(5, false)
	s.OnFinish(5) // dequeued everywhere, but the SM still lists it live
	wantSchedViolation(t, s.CheckInvariants(4, newFakeView(), []int{5}), "missing from both queues")
}

// TestOnlyPASActsOnLeadingMark pins the OnActivate contract down across
// the whole registry: the leading flag is advisory provenance that every
// seed scheduler except PAS must ignore. Each registered scheduler is run
// twice over an identical all-eligible warp population — once with no
// leading mark, once with one slot marked leading — and the two pick
// sequences are compared. PAS must diverge (it front-loads the leading
// warp until the CTA base address is computed); LRR, GTO and the plain
// two-level variants must produce bit-identical schedules, so a future
// scheduler that quietly starts keying off the mark fails here before it
// can silently change baseline results.
func TestOnlyPASActsOnLeadingMark(t *testing.T) {
	cfg := config.Default()
	const slots, picks = 12, 48
	pickSeq := func(t *testing.T, name string, leadSlot int) []int {
		t.Helper()
		s, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		v := newFakeView()
		for i := 0; i < slots; i++ {
			s.OnActivate(i, i == leadSlot)
		}
		seq := make([]int, 0, picks)
		for c := 0; c < picks; c++ {
			seq = append(seq, s.Pick(int64(c), v))
		}
		return seq
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			unmarked := pickSeq(t, name, -1)
			marked := pickSeq(t, name, 5)
			differs := false
			for i := range unmarked {
				if unmarked[i] != marked[i] {
					differs = true
					break
				}
			}
			if name == "pas" && !differs {
				t.Errorf("pas ignored the leading mark: pick sequence identical with and without it\n  %v", marked)
			}
			if name != "pas" && differs {
				t.Errorf("%s is leading-sensitive (only pas may act on OnActivate's leading flag):\n  unmarked %v\n  marked   %v",
					name, unmarked, marked)
			}
		})
	}
}

func TestSanitizerCatchesReadyOverflow(t *testing.T) {
	s := NewPAS(2, false)
	slots := []int{0, 1, 2}
	for _, slot := range slots {
		s.ForceReady(slot) // bypasses the refill bound
	}
	wantSchedViolation(t, s.CheckInvariants(5, newFakeView(), slots), "bound is 2")
}

// TestSanitizerCatchesMissedUnblockGen proves the dry-refill memo audit
// fires: a view that unblocks a pending warp without advancing UnblockGen
// (an SM site that forgot its bump) leaves the memo claiming every pending
// slot is blocked, which CheckInvariants must report.
func TestSanitizerCatchesMissedUnblockGen(t *testing.T) {
	s := NewPAS(2, true)
	v := newFakeView()
	slots := []int{0, 1, 2, 3}
	for _, slot := range slots {
		s.OnActivate(slot, slot == 0)
		v.blocked[slot] = true
	}
	if got := s.Pick(1, v); got != -1 {
		t.Fatalf("Pick = %d with every warp blocked, want -1", got)
	}
	if err := s.CheckInvariants(1, v, slots); err != nil {
		t.Fatalf("armed memo over an all-blocked pending queue tripped the sanitizer: %v", err)
	}
	delete(v.blocked, 2) // unblocked, but the generation did not move
	wantSchedViolation(t, s.CheckInvariants(2, v, slots), "dry-refill memo")
	v.gen++ // the bump the view owed: the memo is stale, not wrong
	if err := s.CheckInvariants(3, v, slots); err != nil {
		t.Fatalf("stale memo after a generation bump tripped the sanitizer: %v", err)
	}
	if got := s.Pick(3, v); got != 2 {
		t.Errorf("Pick = %d after the bump, want the unblocked slot 2", got)
	}
}

func TestSanitizerCatchesUnbasedDrift(t *testing.T) {
	s := NewPAS(4, true)
	s.OnActivate(0, true)
	s.OnActivate(1, false)
	s.unbased++ // a leading warp the flags do not record
	wantSchedViolation(t, s.CheckInvariants(1, newFakeView(), []int{0, 1}), "unbased counter")
}
