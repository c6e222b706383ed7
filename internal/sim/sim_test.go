package sim

import (
	"math"
	"testing"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/obs"
	"caps/internal/stats"
)

// tinyConfig shrinks the machine so unit tests run in milliseconds.
func tinyConfig() config.GPUConfig {
	cfg := config.Default()
	cfg.NumSMs = 2
	cfg.MaxInsts = 0 // run tiny kernels to completion
	cfg.MaxCycle = 3_000_000
	return cfg
}

// tinyKernel builds a small strided kernel: grid CTAs of two warps, each
// loading one line and computing.
func tinyKernel(gridX int) *kernels.Kernel {
	k := &kernels.Kernel{
		Name: "tiny", Abbr: "TNY",
		Grid: kernels.Dim3{X: gridX}, Block: kernels.Dim3{X: 64},
		Loads: []kernels.LoadSpec{
			{Name: "in", Gen: kernels.Strided1D(1<<28, 4)},
			{Name: "out", Gen: kernels.Strided1D(1<<29, 4), Store: true},
		},
		Program: []kernels.Instr{
			{Kind: kernels.OpCompute, Latency: 4},
			{Kind: kernels.OpLoad, Load: 0},
			{Kind: kernels.OpJoin},
			{Kind: kernels.OpCompute, Latency: 8},
			{Kind: kernels.OpStore, Load: 1},
			{Kind: kernels.OpExit},
		},
	}
	if err := k.Validate(); err != nil {
		panic(err)
	}
	return k
}

func runTiny(t *testing.T, cfg config.GPUConfig, k *kernels.Kernel, opts ...Option) *stats.Sim {
	t.Helper()
	g, err := New(cfg, k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestTinyKernelCompletes(t *testing.T) {
	k := tinyKernel(8)
	st := runTiny(t, tinyConfig(), k)
	if st.CTAsDone != 8 {
		t.Errorf("CTAsDone = %d, want 8", st.CTAsDone)
	}
	if st.WarpsDone != 16 {
		t.Errorf("WarpsDone = %d, want 16", st.WarpsDone)
	}
	// 16 warps × 5 issued instructions (exit does not count).
	if want := int64(16 * 5); st.Instructions != want {
		t.Errorf("Instructions = %d, want %d", st.Instructions, want)
	}
	if st.DemandAccesses != 16 {
		t.Errorf("DemandAccesses = %d, want 16 (one line per warp)", st.DemandAccesses)
	}
	if st.StoresIssued == 0 {
		t.Error("stores never reached DRAM")
	}
}

func TestDeterminism(t *testing.T) {
	for _, pf := range []string{"none", "caps"} {
		a := runTiny(t, tinyConfig(), tinyKernel(32), WithPrefetcher(pf))
		b := runTiny(t, tinyConfig(), tinyKernel(32), WithPrefetcher(pf))
		if *a != *b {
			t.Errorf("%s: two identical runs diverged:\n%v\nvs\n%v", pf, a, b)
		}
	}
}

func TestSchedulersAllComplete(t *testing.T) {
	for _, sc := range []config.SchedulerKind{
		config.SchedLRR, config.SchedGTO, config.SchedTwoLevel, config.SchedPAS,
	} {
		st := runTiny(t, tinyConfig(), tinyKernel(16), WithScheduler(sc))
		if st.CTAsDone != 16 {
			t.Errorf("%s: CTAsDone = %d, want 16", sc, st.CTAsDone)
		}
	}
}

func TestPrefetchersAllComplete(t *testing.T) {
	for _, pf := range []string{"none", "intra", "inter", "mta", "nlp", "lap", "orch", "caps"} {
		st := runTiny(t, tinyConfig(), tinyKernel(16), WithPrefetcher(pf))
		if st.CTAsDone != 16 {
			t.Errorf("%s: CTAsDone = %d, want 16", pf, st.CTAsDone)
		}
	}
}

func TestBarrierKernelCompletes(t *testing.T) {
	k := &kernels.Kernel{
		Name: "barrier", Abbr: "BAR",
		Grid: kernels.Dim3{X: 4}, Block: kernels.Dim3{X: 128},
		Loads: []kernels.LoadSpec{{Name: "in", Gen: kernels.Strided1D(1<<28, 4)}},
		Program: []kernels.Instr{
			{Kind: kernels.OpLoad, Load: 0},
			{Kind: kernels.OpJoin},
			{Kind: kernels.OpBarrier},
			{Kind: kernels.OpCompute, Latency: 5},
			{Kind: kernels.OpBarrier},
			{Kind: kernels.OpExit},
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	st := runTiny(t, tinyConfig(), k)
	if st.CTAsDone != 4 {
		t.Errorf("CTAsDone = %d, want 4 (barrier deadlock?)", st.CTAsDone)
	}
}

func TestLoopKernelIterationCount(t *testing.T) {
	k := &kernels.Kernel{
		Name: "loop", Abbr: "LOP",
		Grid: kernels.Dim3{X: 2}, Block: kernels.Dim3{X: 32},
		Loads: []kernels.LoadSpec{
			{Name: "it", Gen: kernels.Strided1DIter(1<<28, 4, 4096), InLoop: true},
		},
		Program: []kernels.Instr{
			{Kind: kernels.OpLoopStart, Iters: 5},
			{Kind: kernels.OpLoad, Load: 0},
			{Kind: kernels.OpJoin},
			{Kind: kernels.OpLoopEnd},
			{Kind: kernels.OpExit},
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	st := runTiny(t, tinyConfig(), k)
	// 2 CTAs × 1 warp × 5 iterations, one line each.
	if st.DemandAccesses != 10 {
		t.Errorf("DemandAccesses = %d, want 10", st.DemandAccesses)
	}
}

func TestMaxInstsCapStopsRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxInsts = 50
	st := runTiny(t, cfg, tinyKernel(256))
	if st.Instructions < 50 || st.Instructions > 200 {
		t.Errorf("Instructions = %d, want close to the 50-instruction cap", st.Instructions)
	}
	if st.CTAsDone == 256 {
		t.Error("run should have been truncated by the cap")
	}
}

func TestDemandDrivenDispatch(t *testing.T) {
	// More CTAs than slots: every CTA must still execute exactly once.
	cfg := tinyConfig()
	cfg.MaxCTAsPerSM = 2
	st := runTiny(t, cfg, tinyKernel(64))
	if st.CTAsDone != 64 {
		t.Errorf("CTAsDone = %d, want 64", st.CTAsDone)
	}
}

func TestCTAsLimitedByWarpContexts(t *testing.T) {
	cfg := tinyConfig()
	// 48 warps / 2 warps per CTA = 24, further limited by MaxCTAsPerSM=8.
	g, err := New(cfg, tinyKernel(64))
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range g.SMs() {
		if sm.ctaSlots != 8 {
			t.Errorf("ctaSlots = %d, want 8", sm.ctaSlots)
		}
	}
	// A 16-warp CTA allows only 3 slots (48/16).
	big := tinyKernel(8)
	big.Block = kernels.Dim3{X: 512}
	g2, err := New(cfg, big)
	if err != nil {
		t.Fatal(err)
	}
	if g2.SMs()[0].ctaSlots != 3 {
		t.Errorf("512-thread CTA slots = %d, want 3", g2.SMs()[0].ctaSlots)
	}
}

func TestCAPSPipelineProducesUsefulPrefetches(t *testing.T) {
	// A stride-friendly kernel with enough CTAs that trailing warps are
	// prefetched for. Two loads, joins, compute tails.
	k := &kernels.Kernel{
		Name: "stride", Abbr: "STR",
		Grid: kernels.Dim3{X: 128}, Block: kernels.Dim3{X: 256},
		Loads: []kernels.LoadSpec{
			{Name: "a", Gen: kernels.Strided1D(1<<28, 4)},
			{Name: "b", Gen: kernels.Strided1D(1<<30, 4)},
		},
		Program: []kernels.Instr{
			{Kind: kernels.OpCompute, Latency: 4},
			{Kind: kernels.OpLoad, Load: 0},
			{Kind: kernels.OpJoin},
			{Kind: kernels.OpCompute, Latency: 10},
			{Kind: kernels.OpCompute, Latency: 10},
			{Kind: kernels.OpLoad, Load: 1},
			{Kind: kernels.OpJoin},
			{Kind: kernels.OpCompute, Latency: 10},
			{Kind: kernels.OpExit},
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	st := runTiny(t, cfg, k, WithPrefetcher("caps"), WithScheduler(config.SchedPAS))
	if st.PrefIssued == 0 {
		t.Fatal("CAPS issued no prefetches on a stride-friendly kernel")
	}
	if st.Accuracy() < 0.9 {
		t.Errorf("CAPS accuracy = %.3f, want > 0.9 on pure strides", st.Accuracy())
	}
	if st.PrefUseful+st.PrefLate == 0 {
		t.Error("no prefetch was ever consumed")
	}
}

func TestEagerWakeupCounted(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumSMs = 1
	k, err := kernels.ByAbbr("CNV")
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxInsts = 60_000
	st := runTiny(t, cfg, k, WithPrefetcher("caps"), WithScheduler(config.SchedPAS))
	if st.WakeupPromotions == 0 {
		t.Error("PAS eager wake-up never fired on CNV")
	}
	// And with wake-up disabled it must never fire.
	cfg.PrefetchWakeup = false
	st = runTiny(t, cfg, k, WithPrefetcher("caps"), WithScheduler(config.SchedPAS))
	if st.WakeupPromotions != 0 {
		t.Errorf("wake-ups fired despite PrefetchWakeup=false: %d", st.WakeupPromotions)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumSMs = 0
	if _, err := New(cfg, tinyKernel(4)); err == nil {
		t.Error("New accepted an invalid config")
	}
}

func TestUnknownPrefetcherRejected(t *testing.T) {
	if _, err := New(tinyConfig(), tinyKernel(4), WithPrefetcher("bogus")); err == nil {
		t.Error("New accepted an unknown prefetcher")
	}
}

func TestLineSizeMismatchRejected(t *testing.T) {
	cfg := tinyConfig()
	cfg.L1.LineBytes = 64
	cfg.L2.LineBytes = 64
	if _, err := New(cfg, tinyKernel(4)); err == nil {
		t.Error("New accepted a line size differing from kernels.LineBytes")
	}
}

func TestORCHUsesGroupedScheduler(t *testing.T) {
	g, err := New(tinyConfig(), tinyKernel(8), WithPrefetcher("orch"))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.SMs()[0].sched.Name(); got != "tlv-grouped" {
		t.Errorf("ORCH scheduler = %q, want tlv-grouped", got)
	}
}

// loadTracer counts the EvLoadIssue stream, the one channel a per-load
// analysis (Figure 1, memlens) observes demand loads through.
type loadTracer struct {
	t    *testing.T
	seen int64
}

func (lt *loadTracer) Consume(e obs.Event) {
	if e.Kind != obs.EvLoadIssue {
		return
	}
	lt.seen++
	if e.Addr == 0 {
		lt.t.Error("load issue without an address")
	}
}

func TestTracerObservesLoads(t *testing.T) {
	cfg := tinyConfig()
	snk := NewSink(cfg, false, 0)
	lt := &loadTracer{t: t}
	snk.Attach(lt)
	runTiny(t, cfg, tinyKernel(8), WithObs(snk))
	// 8 CTAs × 2 warps × 1 load.
	if lt.seen != 16 {
		t.Errorf("tracer saw %d loads, want 16", lt.seen)
	}
}

// A progress period above MaxProgressEvery has no int64 power of two to
// round up to; New must reject it instead of looping forever.
func TestNewRejectsOversizedProgressEvery(t *testing.T) {
	for _, tc := range []struct {
		every int64
		ok    bool
	}{
		{MaxProgressEvery, true},
		{MaxProgressEvery + 1, false},
		{math.MaxInt64, false},
	} {
		g, err := New(tinyConfig(), tinyKernel(4), WithProgressEvery(tc.every))
		if tc.ok {
			if err != nil {
				t.Errorf("WithProgressEvery(%d): %v", tc.every, err)
			} else if g.beatMask != MaxProgressEvery-1 {
				t.Errorf("WithProgressEvery(%d): beat mask %#x, want %#x", tc.every, g.beatMask, MaxProgressEvery-1)
			}
			continue
		}
		if err == nil {
			t.Errorf("WithProgressEvery(%d) accepted, want an error", tc.every)
		}
	}
}

// TestTinyMSHRFileRunsClean runs a machine whose L1 owns one demand MSHR
// and one prefetch-buffer entry. Demand merges convert prefetch-only
// entries and free their pool slots, so admission does not bound the
// converted population, and these runs outgrow the MSHR table's initial
// eight slots. The table must grow rather than refuse accesses, with the
// sanitizer clean.
func TestTinyMSHRFileRunsClean(t *testing.T) {
	cfg := config.Default()
	cfg.NumSMs = 3
	cfg.MaxCTAsPerSM = 1
	cfg.IssueWidth = 1
	cfg.L1.MSHREntries = 1
	cfg.L1.MissQueue = 1
	cfg.L2.MissQueue = 1
	cfg.DRAM.Channels = 2
	cfg.DRAM.BanksPerChannel = 1
	cfg.ICNTLatency = 0
	cfg.ICNTWidth = 1
	cfg.PrefetchTableSize = 1
	cfg.PrefetchBufferEntries = 1
	cfg.MaxInsts = 8000
	cfg.CheckInvariants = true
	for _, c := range []struct{ bench, pf string }{
		{"MM", "caps"}, {"JC1", "caps"}, {"HST", "caps"}, {"MRQ", "inter"},
	} {
		t.Run(c.bench+"-"+c.pf, func(t *testing.T) {
			k, err := kernels.ByAbbr(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			cfg := cfg
			if c.pf == "caps" {
				cfg.Scheduler = config.SchedPAS
			}
			st := runTiny(t, cfg, k, WithPrefetcher(c.pf))
			if st.Instructions < cfg.MaxInsts {
				t.Fatalf("run stopped at %d instructions, want %d", st.Instructions, cfg.MaxInsts)
			}
		})
	}
}
