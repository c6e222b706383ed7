package sched

import "testing"

// cnvView is the CNV shape seen from the scheduler: 48 warp slots, a ready
// queue of 8, and most pending warps blocked on memory. Slots a Pick
// demotes join a FIFO of blocked warps; past its target length the oldest
// is released, advancing the unblock generation as the SM does.
type cnvView struct {
	blocked    [48]bool
	fifo       [48]int // ring of blocked slots, oldest at head
	head, size int
	gen        uint64
}

func (v *cnvView) Eligible(slot int) bool { return !v.blocked[slot] }
func (v *cnvView) Blocked(slot int) bool  { return v.blocked[slot] }
func (v *cnvView) UnblockGen() uint64     { return v.gen }

// BenchmarkTwoLevelPick times one Pick plus the demote/unblock churn that
// keeps 42 of the 48 slots blocked. The -mapref variants run the original
// map-based scheduler from equiv_test.go for a same-host comparison.
func BenchmarkTwoLevelPick(b *testing.B) {
	for _, bc := range []struct {
		name string
		mk   func() Scheduler
	}{
		{"tlv", func() Scheduler { return NewTwoLevel(8) }},
		{"pas", func() Scheduler { return NewPAS(8, true) }},
		{"tlv-mapref", func() Scheduler { return newRefTwoLevel(8) }},
		{"pas-mapref", func() Scheduler { return newRefPAS(8, true) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const blockedTarget = 42
			s := bc.mk()
			v := &cnvView{}
			for slot := range v.blocked {
				s.OnActivate(slot, slot%8 == 0)
			}
			step := func(i int) {
				slot := s.Pick(int64(i), v)
				if slot >= 0 && i%2 == 0 {
					v.blocked[slot] = true
					v.fifo[(v.head+v.size)%len(v.fifo)] = slot
					v.size++
					s.OnLongLatency(slot)
				}
				for v.size > blockedTarget {
					v.blocked[v.fifo[v.head]] = false
					v.head = (v.head + 1) % len(v.fifo)
					v.size--
					v.gen++
				}
			}
			for i := 0; i < 1000; i++ {
				step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}
