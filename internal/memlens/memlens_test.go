package memlens

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caps/internal/lens"
	"caps/internal/obs"
	"caps/internal/stats"
)

func testCollector() *Collector {
	return NewCollector(Config{SMs: 2, Partitions: 2, Channels: 2, Banks: 4})
}

func loadEvent(pc uint32, cta, warpInCTA int32, addr uint64, indirect bool) obs.Event {
	e := obs.Event{Kind: obs.EvLoadIssue, Dom: obs.DomSM, PC: pc, CTA: cta, Val: int64(warpInCTA), Addr: addr}
	if indirect {
		e.Arg = 1
	}
	return e
}

func TestThetaDeltaExplainsAffineStream(t *testing.T) {
	c := testCollector()
	// addr = θ(CTA) + Δ·warpInCTA with θ(cta) = 0x1000·cta, Δ = 128.
	for cta := int32(0); cta < 4; cta++ {
		for w := int32(0); w < 8; w++ {
			addr := uint64(0x1000)*uint64(cta) + 128*uint64(w)
			c.Consume(loadEvent(0x40, cta, w, addr, false))
		}
	}
	p := c.Build(Meta{Bench: "affine"})
	if len(p.AddrStructure.PCs) != 1 {
		t.Fatalf("want 1 PC, got %d", len(p.AddrStructure.PCs))
	}
	pc := p.AddrStructure.PCs[0]
	if pc.Observations != 32 || pc.Anchors != 4 {
		t.Fatalf("obs=%d anchors=%d, want 32/4", pc.Observations, pc.Anchors)
	}
	if pc.Delta != 128 {
		t.Fatalf("delta=%d, want 128", pc.Delta)
	}
	// Every observation tested against an established Δ matches; the one
	// vote-only seed observation is untested, not unexplained.
	if pc.ExplainedFrac != 1.0 {
		t.Fatalf("explained frac %.3f, want 1.0 (explained=%d unexplained=%d)",
			pc.ExplainedFrac, pc.Explained, pc.Unexplained)
	}
	if pc.ResidualEntropy != 0 {
		t.Fatalf("residual entropy %.3f, want 0", pc.ResidualEntropy)
	}
}

// TestAnchorTableTruncatesAtCap pins the per-PC anchor bound: a PC anchors
// at most maxAnchors CTAs, counting later new CTAs — and any id outside the
// table's range — as truncated, while anchored CTAs keep being tested and
// re-anchored.
func TestAnchorTableTruncatesAtCap(t *testing.T) {
	c := testCollector()
	const pc = 0x40
	// θ(cta) = 0x10000·(cta mod 1024), Δ = 128.
	theta := func(cta int32) uint64 { return 0x10000 * uint64(uint32(cta)%1024) }
	// Ids the table does not cover are turned away even while it has room.
	for _, cta := range []int32{-1, denseCTAs} {
		c.Consume(loadEvent(pc, cta, 0, theta(cta), false))
	}
	for cta := int32(0); cta < maxAnchors; cta++ {
		c.Consume(loadEvent(pc, cta, 0, theta(cta), false))
	}
	// The table is full: new CTAs are turned away.
	for _, cta := range []int32{maxAnchors, maxAnchors + 1} {
		c.Consume(loadEvent(pc, cta, 0, theta(cta), false))
	}
	// Every anchored CTA still tests its warps against its own θ.
	for _, cta := range []int32{0, 7, maxAnchors - 1} {
		for w := int32(1); w < 3; w++ {
			c.Consume(loadEvent(pc, cta, w, theta(cta)+128*uint64(w), false))
		}
	}
	// A same-warp re-issue re-anchors in place.
	c.Consume(loadEvent(pc, maxAnchors-1, 0, theta(maxAnchors-1)+0x800, false))
	got := c.Build(Meta{Bench: "cap"}).AddrStructure.PCs[0]
	if got.Anchors != maxAnchors+1 || got.TruncatedAnchors != 4 {
		t.Fatalf("anchors=%d truncated=%d, want %d/4", got.Anchors, got.TruncatedAnchors, maxAnchors+1)
	}
	// 6 tested warps: the first only seeds Δ, the other 5 match it.
	if got.Explained != 5 || got.Unexplained != 0 || got.Delta != 128 {
		t.Fatalf("explained=%d unexplained=%d delta=%d, want 5/0/128", got.Explained, got.Unexplained, got.Delta)
	}
}

func TestThetaDeltaRejectsRandomStream(t *testing.T) {
	c := testCollector()
	// A deterministic but non-affine address stream (quadratic in warp).
	for w := int32(1); w < 32; w++ {
		addr := uint64(w) * uint64(w) * 64
		c.Consume(loadEvent(0x44, 0, w, addr, false))
	}
	p := c.Build(Meta{})
	pc := p.AddrStructure.PCs[0]
	if pc.ExplainedFrac > 0.2 {
		t.Fatalf("quadratic stream should not look affine: explained %.3f", pc.ExplainedFrac)
	}
	if pc.Unexplained == 0 || pc.ResidualEntropy == 0 {
		t.Fatalf("want unexplained obs with residual entropy, got %d / %.3f",
			pc.Unexplained, pc.ResidualEntropy)
	}
}

func TestIndirectLoadsSkipModel(t *testing.T) {
	c := testCollector()
	for w := int32(0); w < 10; w++ {
		c.Consume(loadEvent(0x48, 0, w, uint64(w)*999, true))
	}
	p := c.Build(Meta{})
	pc := p.AddrStructure.PCs[0]
	if pc.Indirect != 10 || pc.Explained+pc.Unexplained != 0 {
		t.Fatalf("indirect=%d explained=%d unexplained=%d, want 10/0/0",
			pc.Indirect, pc.Explained, pc.Unexplained)
	}
	if p.AddrStructure.IndirectFrac != 1.0 {
		t.Fatalf("indirect frac %.3f, want 1.0", p.AddrStructure.IndirectFrac)
	}
}

func TestSameWarpReissueReanchors(t *testing.T) {
	c := testCollector()
	// Two loop iterations: each iteration is affine in warpInCTA, but the
	// per-iteration base moves by a large non-Δ offset.
	for iter := uint64(0); iter < 2; iter++ {
		for w := int32(0); w < 8; w++ {
			c.Consume(loadEvent(0x4c, 0, w, iter*0x100000+64*uint64(w), false))
		}
	}
	p := c.Build(Meta{})
	pc := p.AddrStructure.PCs[0]
	if pc.Anchors != 2 {
		t.Fatalf("anchors=%d, want 2 (one per iteration)", pc.Anchors)
	}
	if pc.ExplainedFrac != 1.0 {
		t.Fatalf("explained %.3f, want 1.0: re-anchoring should absorb the iteration stride", pc.ExplainedFrac)
	}
}

func memAccess(dom obs.Domain, track int16, addr uint64, class obs.AccessClass, pref bool) obs.Event {
	return obs.Event{Kind: obs.EvMemAccess, Dom: dom, Track: track, Addr: addr, Arg: obs.PackAccess(class, pref)}
}

func TestReuseSampling(t *testing.T) {
	c := testCollector()
	// Cycle through reuseSampleEvery distinct lines 4 times on SM 0: each
	// pass touches line i at access index i + pass·N, so the sampled line
	// (index N) reuses at distance exactly N.
	const n = reuseSampleEvery
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < n; i++ {
			c.Consume(memAccess(obs.DomSM, 0, uint64(i)*64, obs.AccessHit, false))
		}
	}
	p := c.Build(Meta{})
	var l1 ReuseLevel
	for _, r := range p.Reuse {
		if r.Level == "L1" {
			l1 = r
		}
	}
	if l1.Accesses != 4*n {
		t.Fatalf("accesses=%d, want %d", l1.Accesses, 4*n)
	}
	// Pass k samples its Nth access (untracked at that point unless still
	// tracked from an earlier pass); each sampled line reuses one pass later.
	if l1.Sampled == 0 || l1.Reused == 0 {
		t.Fatalf("sampled=%d reused=%d, want both > 0", l1.Sampled, l1.Reused)
	}
	if l1.Reused > l1.Sampled {
		t.Fatalf("reused %d > sampled %d", l1.Reused, l1.Sampled)
	}
	if mean := l1.Hist.Mean; mean != n {
		t.Fatalf("mean reuse interval %.1f, want %d", mean, n)
	}
}

// TestReuseFilterSharesSlots tracks two lines whose keys share a filter
// slot: closing the first line's observation must leave the slot marked
// for the second, whose reuse is still found.
func TestReuseFilterSharesSlots(t *testing.T) {
	first := map[uint32]uint64{}
	var a, b uint64
	for line := uint64(0); b == 0; line += 128 {
		s, _ := lineKey{line: line}.slots()
		if prev, ok := first[s]; ok {
			a, b = prev, line
		}
		first[s] = line
	}
	c := testCollector()
	filler := uint64(1) << 40
	touch := func(line uint64) { c.Consume(memAccess(obs.DomSM, 0, line, obs.AccessHit, false)) }
	// Access n·reuseSampleEvery is sampled: a at 64, b at 128.
	for _, line := range []uint64{a, b} {
		for i := 1; i < reuseSampleEvery; i++ {
			touch(filler)
			filler += 128
		}
		touch(line)
	}
	touch(a)
	touch(b)
	var l1 ReuseLevel
	for _, r := range c.Build(Meta{}).Reuse {
		if r.Level == "L1" {
			l1 = r
		}
	}
	if l1.Sampled != 2 || l1.Reused != 2 {
		t.Fatalf("sampled=%d reused=%d, want 2/2 (lines %#x and %#x share a slot)", l1.Sampled, l1.Reused, a, b)
	}
}

func TestReuseTracksAreIndependent(t *testing.T) {
	c := testCollector()
	// Same line address on two SMs: they are different physical L1s, so a
	// touch on SM 1 must not close SM 0's observation.
	for i := 0; i < reuseSampleEvery; i++ {
		c.Consume(memAccess(obs.DomSM, 0, 0x80, obs.AccessHit, false))
		c.Consume(memAccess(obs.DomSM, 1, 0x80, obs.AccessHit, false))
	}
	p := c.Build(Meta{})
	for _, r := range p.Reuse {
		if r.Level == "L1" && r.Sampled != 2 {
			t.Fatalf("sampled=%d, want 2 (one per SM)", r.Sampled)
		}
	}
}

func prefEvent(kind obs.Kind, sm int16, pc uint32, addr uint64, cycle, val int64) obs.Event {
	return obs.Event{Kind: kind, Dom: obs.DomSM, Track: sm, PC: pc, Addr: addr, Cycle: cycle, Val: val}
}

func TestTimelinessLifecycle(t *testing.T) {
	c := testCollector()
	// Line A: admit @100, fill @300, consume @350 (distance 250).
	c.Consume(prefEvent(obs.EvPrefAdmit, 0, 0x50, 0xA00, 100, 0))
	c.Consume(prefEvent(obs.EvPrefFill, 0, 0x50, 0xA00, 300, 0))
	c.Consume(prefEvent(obs.EvPrefConsume, 0, 0x50, 0xA00, 350, 250))
	// Line B: admit @100, fill @400, evicted unused @500.
	c.Consume(prefEvent(obs.EvPrefAdmit, 0, 0x50, 0xB00, 100, 0))
	c.Consume(prefEvent(obs.EvPrefFill, 0, 0x50, 0xB00, 400, 0))
	c.Consume(prefEvent(obs.EvPrefEarlyEvict, 0, 0x50, 0xB00, 500, 0))
	// Line C: admit @100, fill @600, never touched again (useless).
	c.Consume(prefEvent(obs.EvPrefAdmit, 0, 0x50, 0xC00, 100, 0))
	c.Consume(prefEvent(obs.EvPrefFill, 0, 0x50, 0xC00, 600, 0))
	// Line D: late — demand merged while in flight.
	c.Consume(prefEvent(obs.EvPrefLate, 0, 0x50, 0xD00, 700, 0))

	p := c.Build(Meta{})
	tl := p.Timeliness
	if tl.Admits != 3 || tl.Fills != 3 || tl.Consumes != 1 || tl.Lates != 1 || tl.EarlyEvicts != 1 {
		t.Fatalf("admits=%d fills=%d consumes=%d lates=%d early=%d",
			tl.Admits, tl.Fills, tl.Consumes, tl.Lates, tl.EarlyEvicts)
	}
	if tl.Useless != 1 {
		t.Fatalf("useless=%d, want 1 (line C)", tl.Useless)
	}
	if tl.IssueToFill.Count != 3 || tl.IssueToFill.Mean != (200+300+500)/3.0 {
		t.Fatalf("issue→fill count=%d mean=%.1f", tl.IssueToFill.Count, tl.IssueToFill.Mean)
	}
	if tl.FillToUse.Count != 1 || tl.FillToUse.Mean != 50 {
		t.Fatalf("fill→use count=%d mean=%.1f, want 1/50", tl.FillToUse.Count, tl.FillToUse.Mean)
	}
	if tl.IssueToUse.Count != 1 || tl.IssueToUse.Mean != 250 {
		t.Fatalf("issue→use count=%d mean=%.1f, want 1/250", tl.IssueToUse.Count, tl.IssueToUse.Mean)
	}
	if len(tl.PCs) != 1 || tl.PCs[0].MeanUseDist != 250 {
		t.Fatalf("per-PC timeliness: %+v", tl.PCs)
	}
}

func TestPrefKeyIncludesSM(t *testing.T) {
	c := testCollector()
	// Two SMs prefetch the same line address concurrently; each fill must
	// pair with its own SM's admit.
	c.Consume(prefEvent(obs.EvPrefAdmit, 0, 0x50, 0xA00, 100, 0))
	c.Consume(prefEvent(obs.EvPrefAdmit, 1, 0x50, 0xA00, 200, 0))
	c.Consume(prefEvent(obs.EvPrefFill, 0, 0x50, 0xA00, 400, 0))
	c.Consume(prefEvent(obs.EvPrefFill, 1, 0x50, 0xA00, 400, 0))
	p := c.Build(Meta{})
	// SM 0: 300 cycles, SM 1: 200 cycles — not 300 and 300.
	if got := p.Timeliness.IssueToFill.Mean; got != 250 {
		t.Fatalf("issue→fill mean %.1f, want 250 (per-SM pairing)", got)
	}
}

func TestLocalityFold(t *testing.T) {
	c := testCollector()
	row := func(kind obs.Kind, ch int16, bank uint8) obs.Event {
		return obs.Event{Kind: kind, Dom: obs.DomDRAM, Track: ch, Arg: bank}
	}
	c.Consume(row(obs.EvRowHit, 0, 0))
	c.Consume(row(obs.EvRowHit, 0, 0))
	c.Consume(row(obs.EvRowMiss, 0, 0))
	c.Consume(row(obs.EvRowHit, 1, 3))
	c.Consume(obs.Event{Kind: obs.EvQueueSample, Dom: obs.DomDRAM, Arg: uint8(obs.QueueDRAM), Val: 7})
	c.Consume(obs.Event{Kind: obs.EvQueueSample, Dom: obs.DomDRAM, Arg: uint8(obs.QueueDRAM), Val: 9})

	p := c.Build(Meta{})
	l := p.Locality
	if l.RowHits != 3 || l.RowMisses != 1 || l.RowHitRate != 0.75 {
		t.Fatalf("row hits=%d misses=%d rate=%.2f", l.RowHits, l.RowMisses, l.RowHitRate)
	}
	if len(l.Banks) != 2 {
		t.Fatalf("active banks=%d, want 2", len(l.Banks))
	}
	if l.Banks[1].Channel != 1 || l.Banks[1].Bank != 3 {
		t.Fatalf("bank[1]=%+v, want channel 1 bank 3", l.Banks[1])
	}
	if l.BankSpread <= 0 || l.BankSpread >= 1 {
		t.Fatalf("bank spread %.3f, want in (0,1): 2 of 8 banks active, unevenly", l.BankSpread)
	}
	if len(l.Queues) != 1 || l.Queues[0].Queue != "dram_queue" || l.Queues[0].Samples != 2 {
		t.Fatalf("queues: %+v", l.Queues)
	}
	if l.Queues[0].Mean != 8 {
		t.Fatalf("queue mean %.1f, want 8", l.Queues[0].Mean)
	}
}

func TestLedgerTruncation(t *testing.T) {
	c := testCollector()
	for pc := uint32(0); pc < maxPCs+10; pc++ {
		c.Consume(loadEvent(4*pc, 0, 0, uint64(pc)*64, false))
	}
	p := c.Build(Meta{})
	if len(p.AddrStructure.PCs) != maxPCs {
		t.Fatalf("PCs=%d, want cap %d", len(p.AddrStructure.PCs), maxPCs)
	}
	if p.AddrStructure.TruncatedPCs != 10 {
		t.Fatalf("truncated=%d, want 10", p.AddrStructure.TruncatedPCs)
	}
	// The exact load counter keeps counting past the cap.
	if p.Reconcile.Loads != maxPCs+10 {
		t.Fatalf("loads=%d, want %d", p.Reconcile.Loads, maxPCs+10)
	}
}

func TestValidateReconciles(t *testing.T) {
	c := testCollector()
	c.Consume(memAccess(obs.DomSM, 0, 0x100, obs.AccessHit, false))
	c.Consume(memAccess(obs.DomSM, 0, 0x140, obs.AccessMissNew, false))
	c.Consume(memAccess(obs.DomSM, 1, 0x140, obs.AccessMissMerged, false))
	c.Consume(memAccess(obs.DomSM, 0, 0x180, obs.AccessMissNew, true))
	c.Consume(memAccess(obs.DomPart, 0, 0x140, obs.AccessHit, false))
	c.Consume(memAccess(obs.DomPart, 1, 0x180, obs.AccessMissNew, true))
	c.Consume(prefEvent(obs.EvPrefAdmit, 0, 0x50, 0x180, 10, 0))
	c.Consume(obs.Event{Kind: obs.EvRowHit, Dom: obs.DomDRAM, Track: 0, Arg: 0})

	st := &stats.Sim{
		DemandAccesses: 3, DemandHits: 1, DemandMisses: 1, DemandMerged: 1,
		PrefToMemory: 1,
		L2Accesses:   2, L2Hits: 1, StoresIssued: 0,
		DRAMRowHits: 1,
	}
	p := c.Build(Meta{})
	if err := p.Validate(st); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Any drifted stat must be caught.
	st.L2Hits = 2
	if err := p.Validate(st); err == nil || !strings.Contains(err.Error(), "l2 hits") {
		t.Fatalf("want l2-hits mismatch, got %v", err)
	}
	st.L2Hits = 1
	st.DemandMerged = 0
	if err := p.Validate(st); err == nil {
		t.Fatal("want demand-merge mismatch")
	}
}

func TestProfileRoundTripAndReports(t *testing.T) {
	c := testCollector()
	for cta := int32(0); cta < 2; cta++ {
		for w := int32(0); w < 4; w++ {
			c.Consume(loadEvent(0x40, cta, w, uint64(cta)*0x1000+64*uint64(w), false))
		}
	}
	c.Consume(memAccess(obs.DomSM, 0, 0x100, obs.AccessHit, false))
	c.Consume(prefEvent(obs.EvPrefAdmit, 0, 0x40, 0xA00, 100, 0))
	c.Consume(prefEvent(obs.EvPrefFill, 0, 0x40, 0xA00, 300, 0))
	c.Consume(prefEvent(obs.EvPrefConsume, 0, 0x40, 0xA00, 350, 250))
	c.Consume(obs.Event{Kind: obs.EvRowHit, Dom: obs.DomDRAM, Track: 0, Arg: 1})
	c.Consume(obs.Event{Kind: obs.EvQueueSample, Dom: obs.DomSM, Arg: uint8(obs.QueueL1MSHR), Val: 3})

	p := c.Build(Meta{Bench: "rt", Prefetcher: "caps", Cycles: 1000})
	path := filepath.Join(t.TempDir(), "mem.json")
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != p.Meta || got.Timeliness.Consumes != 1 || len(got.AddrStructure.PCs) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	var text strings.Builder
	if err := p.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mem profile: rt", "address structure", "prefetch timeliness", "row-buffer hit rate"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}
	var htm strings.Builder
	if err := p.WriteHTML(&htm); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "Address structure", "Prefetch timeliness", "Reuse distance", "DRAM"} {
		if !strings.Contains(htm.String(), want) {
			t.Fatalf("html report missing %q", want)
		}
	}
}

func TestTruncationWarningsSurface(t *testing.T) {
	c := testCollector()
	for pc := uint32(0); pc < maxPCs+1; pc++ {
		c.Consume(loadEvent(4*pc, 0, 0, 64, false))
	}
	p := c.Build(Meta{Bench: "trunc"})
	var text, htm strings.Builder
	if err := p.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "WARNING") {
		t.Fatal("text report must surface ledger truncation")
	}
	if err := p.WriteHTML(&htm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(htm.String(), "class=\"warn\"") {
		t.Fatal("html report must surface ledger truncation")
	}
}

func TestDiffGatesDrops(t *testing.T) {
	mk := func(explained, rowHit float64, consumes int64) *Profile {
		return &Profile{
			AddrStructure: AddrStructure{ExplainedFrac: explained},
			Timeliness:    Timeliness{Fills: 100, Consumes: consumes},
			Locality:      Locality{RowHits: 80, RowMisses: 20, RowHitRate: rowHit, BankSpread: 0.9},
			Reuse:         []ReuseLevel{{Level: "L1", Sampled: 100, Reused: 50}},
		}
	}
	base := mk(0.90, 0.80, 70)
	same := mk(0.89, 0.79, 69)
	if regs := Diff(base, same, Thresholds{}); len(regs) != 0 {
		t.Fatalf("within-threshold diff should pass, got %v", regs)
	}
	bad := mk(0.70, 0.50, 30)
	regs := Diff(base, bad, Thresholds{})
	dims := make(map[string]bool)
	for _, r := range regs {
		dims[r.Dimension] = true
	}
	for _, want := range []string{"addr", "timeliness", "dram"} {
		if !dims[want] {
			t.Fatalf("missing %q regression in %v", want, regs)
		}
	}
	// Improvements never gate.
	if regs := Diff(bad, base, Thresholds{}); len(regs) != 0 {
		t.Fatalf("improvement must not gate: %v", regs)
	}
}

func TestHistPercentiles(t *testing.T) {
	var h lens.Hist
	for i := 0; i < 90; i++ {
		h.Observe(1) // bucket le=1
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket le=1023
	}
	e := h.Export()
	if e.Percentile(0.50) != 1 || e.Percentile(0.90) != 1 {
		t.Fatalf("p50=%d p90=%d, want 1/1", e.Percentile(0.50), e.Percentile(0.90))
	}
	if e.Percentile(0.99) != 1023 {
		t.Fatalf("p99=%d, want 1023", e.Percentile(0.99))
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
