package sim

import (
	"testing"

	"caps/internal/config"
	"caps/internal/core"
	"caps/internal/kernels"
	"caps/internal/mem"
	"caps/internal/prefetch"
	"caps/internal/sched"
	"caps/internal/stats"
)

// These tests cross-validate simcheck's static hotlint verdict dynamically:
// after warm-up (free lists populated, scratch buffers grown to their
// converged capacity) the per-cycle paths must not allocate. A regression
// here means an allocation crept onto a //caps:hotpath route that the
// annotations no longer honestly describe.

// reusedStride is a kernels.AddressFn that owns one reused buffer, so the
// address-generation contract ("addrgen closures own their result buffers")
// contributes zero allocations and the measurement isolates simulator code.
func reusedStride(base uint64) kernels.AddressFn {
	buf := make([]uint64, 1)
	return func(ctx kernels.AddrCtx) []uint64 {
		addr := base +
			uint64(ctx.CTAID)<<20 +
			uint64(ctx.WarpInCTA)*kernels.LineBytes +
			uint64(ctx.Iter)*4*kernels.LineBytes
		buf[0] = mem.LineAddrOf(addr, kernels.LineBytes)
		return buf
	}
}

// allocKernel loops long enough that warm-up plus measurement never reaches
// CTA completion, keeping the machine in steady state throughout.
func allocKernel() *kernels.Kernel {
	k := &kernels.Kernel{
		Name: "alloc", Abbr: "ALC",
		Grid: kernels.Dim3{X: 8}, Block: kernels.Dim3{X: 64},
		Loads: []kernels.LoadSpec{
			{Name: "in", Gen: reusedStride(1 << 28), InLoop: true},
		},
		Program: []kernels.Instr{
			{Kind: kernels.OpLoopStart, Iters: 1 << 30},
			{Kind: kernels.OpLoad, Load: 0},
			{Kind: kernels.OpJoin},
			{Kind: kernels.OpCompute, Latency: 4},
			{Kind: kernels.OpLoopEnd},
			{Kind: kernels.OpExit},
		},
	}
	if err := k.Validate(); err != nil {
		panic(err)
	}
	return k
}

// TestStepAllocsSteadyState drives the full machine (SMs, caches,
// interconnect, partitions, DRAM, CAPS prefetcher) past warm-up and then
// requires GPU.Step to be allocation-free.
func TestStepAllocsSteadyState(t *testing.T) {
	cfg := tinyConfig()
	g, err := New(cfg, allocKernel(), Options{Prefetcher: "caps"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30_000; i++ {
		if err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if g.Done() {
		t.Fatal("machine drained during warm-up; kernel too short for a steady-state measurement")
	}
	var stepErr error
	avg := testing.AllocsPerRun(500, func() {
		if err := g.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if g.Done() {
		t.Fatal("machine drained during measurement")
	}
	if avg != 0 {
		t.Errorf("GPU.Step allocates %.2f objects/cycle in steady state, want 0", avg)
	}
}

type allEligible struct{}

func (allEligible) Eligible(int) bool  { return true }
func (allEligible) Blocked(int) bool   { return false }
func (allEligible) UnblockGen() uint64 { return 0 }

// churnView blocks the warps a test demotes and unblocks them explicitly,
// advancing the unblock generation as the SM does.
type churnView struct {
	blocked [16]bool
	gen     uint64
}

func (v *churnView) Eligible(slot int) bool { return !v.blocked[slot] }
func (v *churnView) Blocked(slot int) bool  { return v.blocked[slot] }
func (v *churnView) UnblockGen() uint64     { return v.gen }

// TestTwoLevelPickAllocs exercises the scheduler's ready/pending churn
// (Pick, demotion, wake) after the queues have reached their converged
// capacity.
func TestTwoLevelPickAllocs(t *testing.T) {
	s := sched.NewTwoLevelInterleaved(8, 4)
	for slot := 0; slot < 16; slot++ {
		s.OnActivate(slot, slot%2 == 0)
	}
	churn := func(now int64) {
		slot := s.Pick(now, allEligible{})
		if slot >= 0 {
			s.OnLongLatency(slot)
			s.OnWake(slot)
		}
	}
	for i := 0; i < 1000; i++ {
		churn(int64(i))
	}
	now := int64(1000)
	avg := testing.AllocsPerRun(500, func() {
		churn(now)
		now++
	})
	if avg != 0 {
		t.Errorf("TwoLevel Pick/demote/wake allocates %.2f objects/cycle, want 0", avg)
	}
}

// TestPASDryRefillAllocs churns PAS with most pending warps blocked: every
// pick demotes and blocks its warp, and one blocked warp is released every
// fourth cycle, so Picks alternate between real refills and the dry-refill
// memo. Both paths must stay allocation-free.
func TestPASDryRefillAllocs(t *testing.T) {
	s := sched.NewPAS(8, true)
	v := &churnView{}
	for slot := 0; slot < len(v.blocked); slot++ {
		s.OnActivate(slot, slot%4 == 0)
	}
	next := 0
	churn := func(now int64) {
		if now%4 == 0 {
			for i := range v.blocked {
				slot := (next + i) % len(v.blocked)
				if v.blocked[slot] {
					v.blocked[slot] = false
					v.gen++
					s.OnWake(slot)
					next = slot + 1
					break
				}
			}
		}
		if slot := s.Pick(now, v); slot >= 0 {
			v.blocked[slot] = true
			s.OnLongLatency(slot)
		}
	}
	for i := 0; i < 1000; i++ {
		churn(int64(i))
	}
	now := int64(1000)
	avg := testing.AllocsPerRun(500, func() {
		churn(now)
		now++
	})
	if avg != 0 {
		t.Errorf("PAS Pick/demote/wake with dry refills allocates %.2f objects/cycle, want 0", avg)
	}
}

// TestCacheMissFillAllocs cycles one cache through its full miss path —
// Access (MSHR allocation), PopMiss, Fill (MSHR free) — with a rotating
// address stream so every access is a fresh MissNew. Once the request and
// MSHR-entry free lists are warm the loop must not allocate.
func TestCacheMissFillAllocs(t *testing.T) {
	c := mem.NewCache(config.Default().L1)
	req := &mem.Request{Kind: mem.Demand}
	line := uint64(0)
	step := func(now int64) {
		line += kernels.LineBytes
		req.LineAddr = line
		res := c.Access(now, req)
		if res.Outcome != mem.MissNew {
			t.Fatalf("cycle %d: outcome %v, want MissNew", now, res.Outcome)
		}
		if c.PopMiss() == nil {
			t.Fatalf("cycle %d: miss queue empty after MissNew", now)
		}
		if _, err := c.Fill(now, line); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		step(int64(i))
	}
	now := int64(1000)
	avg := testing.AllocsPerRun(500, func() {
		step(now)
		now++
	})
	if avg != 0 {
		t.Errorf("Access/PopMiss/Fill allocates %.2f objects/round, want 0", avg)
	}
}

// TestCAPSOnLoadAllocs replays the paper's steady-state pattern — leading
// warp registers a base vector, trailing warps trigger masked generation,
// the next iteration refreshes the base — and requires OnLoad to run out
// of its retained scratch buffers.
func TestCAPSOnLoadAllocs(t *testing.T) {
	cfg := config.Default()
	st := &stats.Sim{}
	c := core.New(cfg, st)
	c.OnCTALaunch(0)
	addrs := make([]uint64, 1)
	obs := prefetch.Observation{
		SMID: 0, PC: 1, CTASlot: 0, CTAID: 0,
		WarpsPerCTA: 4, CTAWarpBase: 0,
	}
	round := func(now int64, iter int64) {
		for w := 0; w < 4; w++ {
			addrs[0] = 1<<28 + uint64(iter)*4*kernels.LineBytes + uint64(w)*kernels.LineBytes
			obs.Now = now
			obs.WarpSlot = w
			obs.WarpInCTA = w
			obs.Iter = iter
			obs.Addrs = addrs
			c.OnLoad(&obs)
		}
	}
	for i := int64(0); i < 1000; i++ {
		round(i*10, i)
	}
	now, iter := int64(10_000), int64(1000)
	avg := testing.AllocsPerRun(500, func() {
		round(now, iter)
		now += 10
		iter++
	})
	if avg != 0 {
		t.Errorf("CAPS.OnLoad allocates %.2f objects/round, want 0", avg)
	}
}
