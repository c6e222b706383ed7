package sim

import (
	"testing"

	"caps/internal/config"
	"caps/internal/kernels"
)

// TestInitialDispatchRoundRobin checks Section II-B: CTAs are assigned one
// at a time in round-robin order across SMs until every SM is full.
func TestInitialDispatchRoundRobin(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumSMs = 3
	cfg.MaxCTAsPerSM = 2
	g, err := New(cfg, tinyKernel(12))
	if err != nil {
		t.Fatal(err)
	}
	// With 3 SMs × 2 slots, the first six CTAs land as in Fig. 3:
	// SM0: {0, 3}, SM1: {1, 4}, SM2: {2, 5}.
	want := [][]int{{0, 3}, {1, 4}, {2, 5}}
	for smID, sm := range g.SMs() {
		var got []int
		for _, cta := range sm.ctas {
			if cta.active {
				got = append(got, cta.ctaID)
			}
		}
		if len(got) != 2 || got[0] != want[smID][0] || got[1] != want[smID][1] {
			t.Errorf("SM %d initial CTAs = %v, want %v", smID, got, want[smID])
		}
	}
}

// TestDemandDrivenReplacement checks the second half of Fig. 3: after the
// initial assignment, a new CTA goes to whichever SM finished one.
func TestDemandDrivenReplacement(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumSMs = 3
	cfg.MaxCTAsPerSM = 2
	g, err := New(cfg, tinyKernel(12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Stats().CTAsDone != 12 {
		t.Fatalf("CTAsDone = %d, want 12", g.Stats().CTAsDone)
	}
	// All 12 CTAs ran despite only 6 concurrent slots, so 6 were assigned
	// demand-driven. (Which SM got which depends on completion order —
	// that's the point.)
}

// TestNonConsecutiveCTAsPerSM pins the property that breaks INTER (Section
// III-B): the CTAs resident on one SM are not consecutive.
func TestNonConsecutiveCTAsPerSM(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumSMs = 5
	g, err := New(cfg, tinyKernel(64))
	if err != nil {
		t.Fatal(err)
	}
	sm := g.SMs()[0]
	ids := []int{}
	for _, cta := range sm.ctas {
		if cta.active {
			ids = append(ids, cta.ctaID)
		}
	}
	if len(ids) < 2 {
		t.Skip("not enough resident CTAs to check")
	}
	consecutive := true
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			consecutive = false
		}
	}
	if consecutive {
		t.Errorf("SM 0 holds consecutive CTAs %v; round-robin should interleave", ids)
	}
}

// TestStallAccounting sanity-checks cycle bookkeeping: issue + stall cycles
// cover the SM-cycles where warps were live.
func TestStallAccounting(t *testing.T) {
	st := runTiny(t, tinyConfig(), tinyKernel(16))
	if st.IssueCycles == 0 {
		t.Error("no issue cycles recorded")
	}
	if st.IssueCycles > st.Cycles*int64(2) { // 2 SMs
		t.Errorf("issue cycles %d exceed SM-cycles", st.IssueCycles)
	}
}

// TestConcurrentCTALimitRespected runs with a 1-CTA limit and checks the
// Fig. 11 configuration knob.
func TestConcurrentCTALimitRespected(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxCTAsPerSM = 1
	g, err := New(cfg, tinyKernel(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range g.SMs() {
		if sm.ActiveCTAs() > 1 {
			t.Errorf("SM holds %d CTAs with a 1-CTA limit", sm.ActiveCTAs())
		}
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Stats().CTAsDone != 8 {
		t.Errorf("CTAsDone = %d, want 8", g.Stats().CTAsDone)
	}
}

// TestMultiAccessIndirectLoads drives a kernel whose loads produce several
// uncoalesced accesses, exercising the LSU's multi-access path.
func TestMultiAccessIndirectLoads(t *testing.T) {
	k := &kernels.Kernel{
		Name: "gather", Abbr: "GTH",
		Grid: kernels.Dim3{X: 8}, Block: kernels.Dim3{X: 64},
		Loads: []kernels.LoadSpec{
			{Name: "g", Gen: kernels.Indirect(1<<28, 1<<12, 6, 42), Indirect: true},
		},
		Program: []kernels.Instr{
			{Kind: kernels.OpLoad, Load: 0, Blocking: true},
			{Kind: kernels.OpCompute, Latency: 4},
			{Kind: kernels.OpExit},
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	st := runTiny(t, tinyConfig(), k, WithPrefetcher("caps"), WithScheduler(config.SchedPAS))
	if st.CTAsDone != 8 {
		t.Fatalf("CTAsDone = %d, want 8", st.CTAsDone)
	}
	// Indirect loads are excluded: CAPS must not issue anything.
	if st.PrefIssued != 0 {
		t.Errorf("CAPS prefetched %d lines on a purely indirect kernel", st.PrefIssued)
	}
	// 6 accesses per warp (modulo hash collisions) reached L1.
	if st.DemandAccesses < int64(8*2*4) {
		t.Errorf("DemandAccesses = %d, expected several per warp", st.DemandAccesses)
	}
}
