package mem

// White-box tests that deliberately corrupt the cache's MSHR bookkeeping
// and the partition's retry queues, and assert the invariant sanitizer
// fires. These are the proof that the checks in CheckInvariants are live,
// not vacuously true on healthy state.

import (
	"errors"
	"strings"
	"testing"

	"caps/internal/config"
	"caps/internal/invariant"
	"caps/internal/stats"
)

func sanitizedCache(t *testing.T) *Cache {
	t.Helper()
	c := NewCacheWithPrefetchPool(testCacheCfg(), true, 2)
	c.EnableSanitizer("L1[test]")
	if err := c.CheckInvariants(0); err != nil {
		t.Fatalf("fresh cache must satisfy its invariants: %v", err)
	}
	return c
}

func wantViolation(t *testing.T, err error, substr string) *invariant.Violation {
	t.Helper()
	var v *invariant.Violation
	if !errors.As(err, &v) {
		t.Fatalf("want invariant.Violation, got %v", err)
	}
	if !strings.Contains(v.Msg, substr) {
		t.Fatalf("violation %q does not mention %q", v.Msg, substr)
	}
	return v
}

func TestSanitizerCatchesPrefetchCounterCorruption(t *testing.T) {
	c := sanitizedCache(t)
	c.Access(1, demandReq(0))
	c.prefetchOnly = len(c.mshrs) + 1 // corrupt: more tagged than outstanding
	wantViolation(t, c.CheckInvariants(2), "exceed total outstanding")
}

func TestSanitizerCatchesCounterTagDisagreement(t *testing.T) {
	c := sanitizedCache(t)
	c.Access(1, prefReq(0, 1))
	c.Access(2, demandReq(1<<10))
	c.prefetchOnly = 0 // counter says none, but one entry is still tagged
	wantViolation(t, c.CheckInvariants(3), "disagrees with tagged MSHR entries")
}

func TestSanitizerCatchesDemandOverflow(t *testing.T) {
	c := sanitizedCache(t)
	// Bypass Access's admission check entirely: hand-plant more demand
	// MSHRs than the configuration owns.
	for i := 0; i <= c.cfg.MSHREntries; i++ {
		addr := uint64(i) << 10
		c.mshrs[addr] = &mshrEntry{lineAddr: addr}
	}
	wantViolation(t, c.CheckInvariants(4), "exceed MSHREntries")
}

func TestSanitizerCatchesMissQueueOverflow(t *testing.T) {
	c := sanitizedCache(t)
	for i := 0; i < c.cfg.MissQueue; i++ {
		r := demandReq(uint64(i) << 10)
		c.mshrs[r.LineAddr] = &mshrEntry{lineAddr: r.LineAddr}
		c.missQ = append(c.missQ, r)
	}
	// One more queued miss for an already-tracked line: the MSHR population
	// stays legal, only the queue bound is broken.
	c.missQ = append(c.missQ, demandReq(0))
	wantViolation(t, c.CheckInvariants(5), "miss queue depth")
}

func TestSanitizerCatchesOrphanQueuedMiss(t *testing.T) {
	c := sanitizedCache(t)
	c.missQ = append(c.missQ, demandReq(0x7f00)) // queued miss, no MSHR
	wantViolation(t, c.CheckInvariants(6), "no MSHR")
}

func TestAuditLatchesFirstViolation(t *testing.T) {
	c := sanitizedCache(t)
	c.Access(1, demandReq(0))
	c.prefetchOnly = -3
	// The next timed operation must latch the violation for the tick loop.
	c.Access(7, demandReq(1<<10))
	v := wantViolation(t, c.SanitizerErr(), "negative")
	if v.Component != "L1[test]" {
		t.Errorf("component = %q, want L1[test]", v.Component)
	}
	if v.Cycle != 7 {
		t.Errorf("cycle = %d, want 7 (the operation that observed the corruption)", v.Cycle)
	}
}

// TestConversionKeepsInvariants drives the demand-merges-into-prefetch path
// that motivated the converted-entry accounting: a full demand population
// plus a converted prefetch entry is legal and must NOT trip the sanitizer.
func TestConversionKeepsInvariants(t *testing.T) {
	c := sanitizedCache(t)
	// Fill the demand MSHRs to the brim.
	for i := 0; i < c.cfg.MSHREntries; i++ {
		if res := c.Access(1, demandReq(uint64(i)<<10)); res.Outcome != MissNew {
			t.Fatalf("demand %d not admitted: %v", i, res.Outcome)
		}
		c.PopMiss()
	}
	// Admit a prefetch from its dedicated pool, then merge a demand into it.
	pa := uint64(100) << 10
	if res := c.Access(2, prefReq(pa, 2)); res.Outcome != MissNew {
		t.Fatalf("prefetch not admitted: %v", res.Outcome)
	}
	c.PopMiss()
	if res := c.Access(3, demandReq(pa)); res.Outcome != MissMerged || !res.MergedIntoPrefetch {
		t.Fatalf("demand merge = %+v, want MissMerged into prefetch", res)
	}
	// MSHREntries demand-admitted + 1 converted: over MSHREntries in total
	// demand service, but structurally sound.
	if err := c.CheckInvariants(4); err != nil {
		t.Fatalf("converted entry tripped the sanitizer: %v", err)
	}
	if err := c.SanitizerErr(); err != nil {
		t.Fatalf("audit latched a violation on a legal sequence: %v", err)
	}
	// Retiring the converted entry must rebalance the counters.
	mustFill(t, c, 5, pa)
	if c.converted != 0 {
		t.Errorf("converted = %d after fill, want 0", c.converted)
	}
	if err := c.CheckInvariants(6); err != nil {
		t.Fatalf("post-fill state tripped the sanitizer: %v", err)
	}
}

// sanitizedPartition is a partition with the queue-discipline audit on,
// backed by a DRAM channel of its own.
func sanitizedPartition(t *testing.T) *Partition {
	t.Helper()
	cfg := config.Default()
	cfg.CheckInvariants = true
	st := &stats.Sim{}
	ic := NewInterconnect(cfg.NumSMs, cfg.NumPartitions, cfg.ICNTQueue, cfg.ICNTLatency, cfg.ICNTWidth)
	p := NewPartition(0, cfg, NewDRAMChannel(cfg, st), ic, st)
	if err := p.Tick(0); err != nil {
		t.Fatalf("fresh partition must satisfy its invariants: %v", err)
	}
	return p
}

// fillDRAM pushes stores until the partition's DRAM queue is full.
func fillDRAM(p *Partition) {
	for line := uint64(0); !p.dram.Full(); line += 128 {
		p.dram.Push(0, &Request{LineAddr: line, Kind: Store})
	}
}

func TestPartitionSanitizerCatchesRetryOrder(t *testing.T) {
	p := sanitizedPartition(t)
	p.retryQ = append(p.retryQ, queued{seq: 5, req: demandReq(0)}, queued{seq: 3, req: demandReq(128)})
	wantViolation(t, p.checkQueues(1), "retry queue out of order")
}

func TestPartitionSanitizerCatchesStoreInRetryQueue(t *testing.T) {
	p := sanitizedPartition(t)
	p.retryQ = append(p.retryQ, queued{seq: 1, req: &Request{LineAddr: 0, Kind: Store}})
	wantViolation(t, p.checkQueues(1), "store for line 0x0 in the demand retry queue")
}

func TestPartitionSanitizerCatchesDemandInStoreFIFO(t *testing.T) {
	p := sanitizedPartition(t)
	fillDRAM(p)
	p.stores = append(p.stores, queued{seq: 1, req: demandReq(0)})
	wantViolation(t, p.checkQueues(1), "in the store FIFO")
}

func TestPartitionSanitizerCatchesStoreOrder(t *testing.T) {
	p := sanitizedPartition(t)
	fillDRAM(p)
	p.stores = append(p.stores,
		queued{seq: 5, req: &Request{LineAddr: 0, Kind: Store}},
		queued{seq: 3, req: &Request{LineAddr: 128, Kind: Store}})
	// Tick runs the audit itself: the full channel rejects the head, so
	// the corrupted FIFO survives the replay and must be reported.
	v := wantViolation(t, p.Tick(1), "store FIFO out of order")
	if v.Component != "L2[0]" || v.Cycle != 1 {
		t.Errorf("violation at %s cycle %d, want L2[0] cycle 1", v.Component, v.Cycle)
	}
}

func TestPartitionSanitizerCatchesStoresBehindFreeChannel(t *testing.T) {
	p := sanitizedPartition(t)
	p.stores = append(p.stores, queued{seq: 1, req: &Request{LineAddr: 0, Kind: Store}})
	wantViolation(t, p.checkQueues(1), "DRAM queue with free slots")
}
