package profile

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"caps/internal/obs"
	"caps/internal/stats"
)

// feed pushes a minimal but complete event mix through a collector: two
// SMs, three cycles each, one load PC with a full lifecycle and one drop.
func feed(t *testing.T) (*Collector, *stats.Sim) {
	t.Helper()
	c := NewCollector(2)
	classes := [][]obs.CycleClass{
		{obs.CycleIssue, obs.CycleMemStructural, obs.CycleEmptyReady},
		{obs.CycleIssue, obs.CycleIssue, obs.CycleIdle},
	}
	for cyc := int64(0); cyc < 3; cyc++ {
		for sm := 0; sm < 2; sm++ {
			c.Consume(obs.Event{Cycle: cyc, Kind: obs.EvCycleClass, Track: int16(sm), Arg: uint8(classes[sm][cyc])})
		}
	}
	c.Consume(obs.Event{Kind: obs.EvPrefCandidate, Track: 0, CTA: 3, PC: 7, Addr: 0x100})
	c.Consume(obs.Event{Kind: obs.EvPrefCandidate, Track: 0, CTA: 3, PC: 7, Addr: 0x140})
	c.Consume(obs.Event{Kind: obs.EvPrefDrop, Track: 0, CTA: 3, PC: 7, Addr: 0x140, Arg: uint8(obs.DropDup)})
	c.Consume(obs.Event{Kind: obs.EvPrefAdmit, Track: 0, CTA: 3, PC: 7, Addr: 0x100})
	c.Consume(obs.Event{Kind: obs.EvPrefFill, Track: 0, CTA: -1, PC: 7, Addr: 0x100})
	c.Consume(obs.Event{Kind: obs.EvPrefConsume, Track: 0, CTA: 3, PC: 7, Addr: 0x100, Val: 40})
	st := &stats.Sim{Cycles: 3, Instructions: 4}
	return c, st
}

func testMeta() Meta {
	return Meta{Bench: "MM", Prefetcher: "caps", Scheduler: "pas", SMs: 2}
}

func TestCollectorBuild(t *testing.T) {
	c, st := feed(t)
	p, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalCycles != 3 || len(p.SMs) != 2 {
		t.Fatalf("TotalCycles=%d SMs=%d, want 3/2", p.TotalCycles, len(p.SMs))
	}
	if got := p.StallStack["issue"]; got != 3 {
		t.Errorf("aggregate issue cycles = %d, want 3", got)
	}
	if got := p.SMs[1].Classes["idle"]; got != 1 {
		t.Errorf("SM1 idle cycles = %d, want 1", got)
	}
	if len(p.PCs) != 1 || p.PCs[0].PC != 7 {
		t.Fatalf("PCs = %+v, want one entry for PC 7", p.PCs)
	}
	pc := p.PCs[0]
	if pc.Candidates != 2 || pc.Admits != 1 || pc.Fills != 1 || pc.Consumes != 1 {
		t.Errorf("PC ledger = %+v, want 2 candidates / 1 admit / 1 fill / 1 consume", pc.LedgerCounts)
	}
	if pc.Drops["dup"] != 1 {
		t.Errorf("PC drops = %v, want dup:1", pc.Drops)
	}
	if pc.Accuracy != 1.0 || pc.MeanDistance != 40 {
		t.Errorf("accuracy=%v meanDistance=%v, want 1/40", pc.Accuracy, pc.MeanDistance)
	}
	if len(p.CTAs) != 1 || p.CTAs[0].CTA != 3 || p.CTAs[0].Consumes != 1 {
		t.Errorf("CTAs = %+v, want one entry for CTA 3 with 1 consume", p.CTAs)
	}
}

func TestBuildRejectsUnbalancedStack(t *testing.T) {
	c, st := feed(t)
	st.Cycles = 5 // the collector only saw 3 classified cycles per SM
	if _, err := c.Build(testMeta(), st); err == nil {
		t.Fatal("Build accepted a stall stack that does not sum to Cycles")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c, st := feed(t)
	p, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Meta != p.Meta || q.TotalCycles != p.TotalCycles || len(q.PCs) != len(p.PCs) {
		t.Fatalf("round trip mutated the profile: %+v vs %+v", q, p)
	}
	if q.StallStack["issue"] != p.StallStack["issue"] {
		t.Fatal("round trip lost the stall stack")
	}
}

func TestDiffIdenticalPasses(t *testing.T) {
	c, st := feed(t)
	p, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	if regs := Diff(p, p, DefaultThresholds()); len(regs) != 0 {
		t.Fatalf("identical profiles produced regressions: %v", regs)
	}
}

func TestDiffFlagsInjectedIPCRegression(t *testing.T) {
	c, st := feed(t)
	base, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	cur := *base
	cur.IPC = base.IPC * 0.9 // 10% drop against a 1% gate
	regs := Diff(base, &cur, DefaultThresholds())
	if len(regs) != 1 || regs[0].Metric != "ipc" {
		t.Fatalf("regressions = %v, want exactly [ipc]", regs)
	}
}

func TestDiffFlagsStallShareShift(t *testing.T) {
	c, st := feed(t)
	base, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	cur := *base
	cur.StallStack = map[string]int64{}
	for k, v := range base.StallStack { //simcheck:allow detlint copy into map, order-insensitive
		cur.StallStack[k] = v
	}
	// Move cycles from issue into mem_structural: share rises past 1%.
	cur.StallStack["issue"] -= 2
	cur.StallStack["mem_structural"] += 2
	regs := Diff(base, &cur, DefaultThresholds())
	found := false
	for _, r := range regs {
		if r.Metric == "stall_share[mem_structural]" {
			found = true
		}
	}
	if !found {
		t.Fatalf("regressions = %v, want stall_share[mem_structural]", regs)
	}
}

func TestDiffIgnoresImprovements(t *testing.T) {
	c, st := feed(t)
	base, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	cur := *base
	cur.IPC = base.IPC * 2
	cur.Coverage = base.Coverage + 0.5
	if regs := Diff(base, &cur, DefaultThresholds()); len(regs) != 0 {
		t.Fatalf("improvements reported as regressions: %v", regs)
	}
}

func TestBenchReportDiff(t *testing.T) {
	c, st := feed(t)
	cur, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	base := &BenchReport{
		Prefetcher: "caps", Scheduler: "pas",
		Benchmarks: map[string]BenchMetrics{
			"MM": {IPC: cur.IPC, Coverage: cur.Coverage, Accuracy: cur.Accuracy},
		},
	}
	regs, err := DiffBench(base, cur, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("matching baseline produced regressions: %v", regs)
	}
	base.Benchmarks["MM"] = BenchMetrics{IPC: cur.IPC * 2}
	regs, err = DiffBench(base, cur, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "ipc" {
		t.Fatalf("regressions = %v, want [ipc]", regs)
	}
	if _, err := DiffBench(base, &Profile{Meta: Meta{Bench: "nope"}}, DefaultThresholds()); err == nil {
		t.Fatal("missing benchmark in baseline not reported")
	}
}

func TestDiffBenchReports(t *testing.T) {
	base := &BenchReport{Benchmarks: map[string]BenchMetrics{
		"MM": {IPC: 1.0}, "CNV": {IPC: 2.0},
	}}
	cur := &BenchReport{Benchmarks: map[string]BenchMetrics{
		"MM": {IPC: 0.5}, "CNV": {IPC: 2.0}, "BFS": {IPC: 1.0},
	}}
	regs := DiffBenchReports(base, cur, DefaultThresholds())
	if len(regs) != 1 || regs[0].Metric != "MM.ipc" {
		t.Fatalf("regressions = %v, want [MM.ipc]", regs)
	}
}

func TestReadBaselineSniffsFormat(t *testing.T) {
	dir := t.TempDir()
	c, st := feed(t)
	p, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	profPath := dir + "/run.profile.json"
	if err := p.WriteFile(profPath); err != nil {
		t.Fatal(err)
	}
	benchPath := dir + "/bench.json"
	r := &BenchReport{Benchmarks: map[string]BenchMetrics{"MM": {IPC: 1}}}
	if err := r.WriteFile(benchPath); err != nil {
		t.Fatal(err)
	}

	if b, err := ReadBaseline(profPath); err != nil || b.Profile == nil || b.Bench != nil {
		t.Fatalf("profile sniff failed: %+v, %v", b, err)
	}
	if b, err := ReadBaseline(benchPath); err != nil || b.Bench == nil || b.Profile != nil {
		t.Fatalf("bench sniff failed: %+v, %v", b, err)
	}
}

func TestWriteHTML(t *testing.T) {
	c, st := feed(t)
	p, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHTML(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "<svg", "mem_structural", "Per-PC prefetch ledger", "0x7"} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}

func TestCollectorBoundsLedgers(t *testing.T) {
	c := NewCollector(1)
	for pc := uint32(1); pc <= maxLedgers+10; pc++ {
		c.Consume(obs.Event{Kind: obs.EvPrefCandidate, Track: 0, CTA: -1, PC: pc})
	}
	if len(c.pcs) != maxLedgers {
		t.Fatalf("ledger map grew to %d entries, cap is %d", len(c.pcs), maxLedgers)
	}
	if c.truncPCs != 10 {
		t.Fatalf("truncated events = %d, want 10", c.truncPCs)
	}
}

// TestWantsKindMatchesConsume feeds one event of every kind to a fresh
// collector and requires WantsKind to accept exactly the kinds that
// changed its state: declining a folded kind would silently drop it from
// profiles, and accepting an ignored one would keep it live on the sink.
func TestWantsKindMatchesConsume(t *testing.T) {
	for k := obs.Kind(0); !strings.Contains(k.String(), "("); k++ {
		c := NewCollector(1)
		c.Consume(obs.Event{Kind: k, Track: 0, Warp: 0, CTA: 0, PC: 7, Addr: 0x80, Val: 1})
		changed := !reflect.DeepEqual(c, NewCollector(1))
		if got := c.WantsKind(k); got != changed {
			t.Errorf("WantsKind(%v) = %v, but consuming one changed the collector: %v", k, got, changed)
		}
	}
}
