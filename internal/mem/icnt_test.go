package mem

import "testing"

func TestFifoLatency(t *testing.T) {
	ic := NewInterconnect(2, 2, 8, 10, 4)
	r := &Request{LineAddr: 0, Partition: 1}
	if !ic.PushToPartition(0, r) {
		t.Fatal("push rejected on empty queue")
	}
	for now := int64(0); now < 10; now++ {
		if got := ic.PopForPartition(now, 1); got != nil {
			t.Fatalf("popped at cycle %d before latency elapsed", now)
		}
	}
	if got := ic.PopForPartition(10, 1); got != r {
		t.Fatal("request not delivered after latency")
	}
}

func TestFifoBandwidthPerCycle(t *testing.T) {
	ic := NewInterconnect(1, 1, 16, 0, 2)
	for i := 0; i < 6; i++ {
		ic.PushToPartition(0, &Request{LineAddr: uint64(i) * 128, Partition: 0})
	}
	got := 0
	for ic.PopForPartition(1, 0) != nil {
		got++
	}
	if got != 2 {
		t.Errorf("popped %d in one cycle, want width 2", got)
	}
	got = 0
	for ic.PopForPartition(2, 0) != nil {
		got++
	}
	if got != 2 {
		t.Errorf("popped %d in next cycle, want 2", got)
	}
}

func TestFifoBackpressure(t *testing.T) {
	ic := NewInterconnect(1, 1, 2, 5, 1)
	a := &Request{LineAddr: 0, Partition: 0}
	b := &Request{LineAddr: 128, Partition: 0}
	c := &Request{LineAddr: 256, Partition: 0}
	if !ic.PushToPartition(0, a) || !ic.PushToPartition(0, b) {
		t.Fatal("first two pushes should fit")
	}
	if ic.PushToPartition(0, c) {
		t.Fatal("third push should be rejected by the bounded queue")
	}
	if ic.PendingToPartition(0) != 2 {
		t.Errorf("pending = %d, want 2", ic.PendingToPartition(0))
	}
}

func TestFifoFIFOOrder(t *testing.T) {
	ic := NewInterconnect(1, 1, 8, 0, 8)
	reqs := []*Request{
		{LineAddr: 0, Partition: 0},
		{LineAddr: 128, Partition: 0},
		{LineAddr: 256, Partition: 0},
	}
	for _, r := range reqs {
		ic.PushToPartition(0, r)
	}
	for i, want := range reqs {
		if got := ic.PopForPartition(1, 0); got != want {
			t.Fatalf("pop %d = %v, want %v", i, got, want)
		}
	}
}

func TestReturnPathIndependentOfRequestPath(t *testing.T) {
	ic := NewInterconnect(2, 2, 8, 3, 4)
	toSM := &Request{LineAddr: 0, SMID: 1}
	if !ic.PushToSM(0, toSM) {
		t.Fatal("PushToSM rejected")
	}
	if got := ic.PopForSM(3, 1); got != toSM {
		t.Fatal("response not delivered to its SM")
	}
	if got := ic.PopForSM(3, 0); got != nil {
		t.Fatal("response delivered to the wrong SM")
	}
}

func TestIdle(t *testing.T) {
	ic := NewInterconnect(1, 1, 4, 1, 1)
	if !ic.Idle() {
		t.Error("fresh interconnect should be idle")
	}
	ic.PushToPartition(0, &Request{Partition: 0})
	if ic.Idle() {
		t.Error("interconnect with queued request is not idle")
	}
	ic.PopForPartition(5, 0)
	if !ic.Idle() {
		t.Error("drained interconnect should be idle")
	}
}

// A shared queue decides each push as the serial order would: a response
// push at cycle m sees the SMs' pops through m-1, a request push at s the
// partitions' pops through s. Both sides run on this goroutine here, and
// each publishes as its domain would.
func TestSharedPushSeesTheSerialCut(t *testing.T) {
	ic := NewInterconnect(1, 1, 2, 3, 4)
	ic.Share()
	a, b, c := &Request{}, &Request{}, &Request{}
	if !ic.PushToSM(0, a) || !ic.PushToSM(0, b) {
		t.Fatal("two responses should fit")
	}
	ic.PublishMem(1)
	ic.PollSM(3)
	if got := ic.PopForSM(3, 0); got != a {
		t.Fatalf("SM popped %v at cycle 3, want the first response", got)
	}
	ic.PublishSM(4)
	if ic.PushToSM(3, c) {
		t.Error("a response push at cycle 3 saw the SM's pop at cycle 3")
	}
	if !ic.PushToSM(4, c) {
		t.Error("a response push at cycle 4 missed the SM's pop at cycle 3")
	}

	ic = NewInterconnect(1, 1, 1, 3, 4)
	ic.Share()
	x, y := &Request{}, &Request{}
	if !ic.PushToPartition(0, x) {
		t.Fatal("a request should fit")
	}
	ic.PublishSM(1)
	ic.PublishMem(6) // the partition completed cycles 0-5 without popping x
	if ic.PushToPartition(5, y) {
		t.Error("a request push at cycle 5 found room the partition had not made")
	}
	ic.PollMem(6)
	if got := ic.PopForPartition(6, 0); got != x {
		t.Fatalf("partition popped %v at cycle 6, want the request", got)
	}
	ic.PublishMem(7)
	if !ic.PushToPartition(6, y) {
		t.Error("a request push at cycle 6 missed the partition's pop at cycle 6")
	}
}
