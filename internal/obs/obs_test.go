package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestNilSinkIsSafe(t *testing.T) {
	var s *Sink
	// Every hook must be a no-op on a nil sink — this is the disabled path
	// the simulator takes on every run without -trace/-metrics.
	s.CTALaunch(1, 0, 0)
	s.CTAFinish(1, 0, 0)
	s.WarpDispatch(1, 0, 0, 0)
	s.WarpStallBegin(1, 0, 0)
	s.WarpStallEnd(2, 0, 0)
	s.CycleClass(1, 0, CycleIssue, 1)
	s.WarpBarrier(1, 0, 0, 0)
	s.WarpFinish(1, 0, 0)
	s.SchedPromote(1, 0, 0)
	s.SchedDemote(1, 0, 0)
	s.SchedWakeup(1, 0, 0)
	s.PickOutcome(1, 0, 0, PickLeadingPromoted)
	s.CTAPhase(1, 0, 0, CTAPhaseLaunch)
	s.TableOp(1, 0, 0, 1, TableDistFill)
	s.DistAlloc(1, 0, 1)
	s.PerCTAFill(1, 0, 0, 1)
	s.PrefCandidate(1, 0, 0, 0, 1, 0x80, -1)
	s.PrefDrop(1, 0, 0, 1, 0x80, DropStale)
	s.PrefAdmit(1, 0, 0, 0, 1, 0x80)
	s.PrefFill(1, 0, 0, 1, 0x80)
	s.PrefConsume(1, 0, 0, 0, 1, 0x80, 10)
	s.PrefLate(1, 0, 1, 0x80)
	s.PrefEarlyEvict(1, 0, 1, 0x80)
	s.MSHRAlloc(1, DomSM, 0, 0x80, false)
	s.MSHRMerge(1, DomPart, 0, 0x80)
	s.MSHRConvert(1, 0, 0x80)
	s.ResFail(1, DomSM, 0, 0x80, true)
	s.ResFails(DomPart, 0, true, 3)
	s.LoadIssue(1, 0, 0, 0, 1, 1, 0x80, false)
	s.MemAccess(1, DomSM, 0, 0, 0, 1, 0x80, AccessHit, false)
	s.QueueSample(1, DomSM, 0, QueueL1MSHR, 3)
	s.RowHit(1, 0, 0, 0x80)
	s.RowMiss(1, 0, 0, 0x80)
	s.DemandLatency(100)
	s.Attach(nil)
	s.RunDone(42)
	if s.Trace() != nil || s.Snapshot() != nil || s.Live(EvResFail) {
		t.Fatal("nil sink accessors must return nil")
	}
}

func TestCountersAndSnapshot(t *testing.T) {
	s := New(Config{SMs: 2, Partitions: 1, Channels: 1})
	s.PrefCandidate(5, 0, 3, 1, 7, 0x1000, 0)
	s.PrefCandidate(6, 1, 4, 2, 7, 0x2000, 2)
	s.PrefAdmit(7, 0, 3, 1, 7, 0x1000)
	s.PrefDrop(8, 1, 2, 7, 0x2000, DropDup)
	s.RowMiss(9, 0, 1, 0x1000)
	s.LoadIssue(9, 0, 3, 1, 0, 7, 0x1000, false)
	s.MemAccess(10, DomSM, 0, 3, 1, 7, 0x1000, AccessMissNew, false)
	s.MemAccess(11, DomPart, 0, 3, 1, 7, 0x1000, AccessHit, true)
	s.RunDone(100)

	if got := SumCounters(s.Snapshot(), "load_issue_total"); got != 1 {
		t.Fatalf("load_issue_total = %d, want 1", got)
	}
	if got := SumCounters(s.Snapshot(), "l1_access_total"); got != 1 {
		t.Fatalf("l1_access_total = %d, want 1", got)
	}
	if got := SumCounters(s.Snapshot(), "l2_access_total"); got != 1 {
		t.Fatalf("l2_access_total = %d, want 1", got)
	}

	if got := SumCounters(s.Snapshot(), "pref_candidate_total"); got != 2 {
		t.Fatalf("pref_candidate_total = %d, want 2", got)
	}
	if got := SumCounters(s.Snapshot(), "pref_admit_total"); got != 1 {
		t.Fatalf("pref_admit_total = %d, want 1", got)
	}
	if got := SumCounters(s.Snapshot(), "pref_drop_total"); got != 1 {
		t.Fatalf("pref_drop_total = %d, want 1", got)
	}

	snap := s.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	for i := 1; i < len(snap); i++ {
		a, b := snap[i-1], snap[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Labels > b.Labels) {
			t.Fatalf("snapshot unsorted at %d: %s%s after %s%s", i, b.Name, b.Labels, a.Name, a.Labels)
		}
	}
	var cycles *Sample
	for i := range snap {
		if snap[i].Name == "sim_cycles" {
			cycles = &snap[i]
		}
	}
	if cycles == nil || cycles.Value != 100 {
		t.Fatalf("sim_cycles gauge missing or wrong: %+v", cycles)
	}
}

func TestHistogramBuckets(t *testing.T) {
	s := New(Config{SMs: 1})
	s.PrefConsume(10, 0, 0, 0, 1, 0x80, 50)   // bucket le=100
	s.PrefConsume(20, 0, 0, 0, 1, 0x80, 150)  // bucket le=200
	s.PrefConsume(30, 0, 0, 0, 1, 0x80, 9999) // overflow
	snap := s.Snapshot()
	want := map[string]int64{
		`pref_distance_cycles_bucket{le="100"}`:  1,
		`pref_distance_cycles_bucket{le="200"}`:  2,
		`pref_distance_cycles_bucket{le="+Inf"}`: 3,
		`pref_distance_cycles_count`:             3,
	}
	got := map[string]int64{}
	for _, sm := range snap {
		got[sm.FullName()] = sm.Value
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
}

func TestTraceCapCountsDrops(t *testing.T) {
	s := New(Config{SMs: 1, Trace: true, TraceCap: 2})
	for i := int64(0); i < 5; i++ {
		s.WarpStallBegin(i, 0, 0)
	}
	if s.Trace().Len() != 2 {
		t.Fatalf("buffered %d events, want 2", s.Trace().Len())
	}
	if s.Trace().Dropped() != 3 {
		t.Fatalf("dropped %d events, want 3", s.Trace().Dropped())
	}
	// Metrics keep counting past the trace cap.
	if got := SumCounters(s.Snapshot(), "warp_stall_begin_total"); got != 5 {
		t.Fatalf("warp_stall_begin_total = %d, want 5", got)
	}
}

func TestChromeExportValidates(t *testing.T) {
	s := New(Config{SMs: 2, Partitions: 1, Channels: 1, Trace: true})
	s.CTALaunch(0, 0, 0)
	s.WarpDispatch(0, 0, 0, 0)
	s.WarpStallBegin(2, 0, 1)
	s.SchedDemote(3, 0, 0)
	s.PrefCandidate(4, 0, 1, 0, 2, 0x4000, -1)
	s.PrefAdmit(5, 0, 1, 0, 2, 0x4000)
	s.MSHRAlloc(5, DomSM, 0, 0x4000, true)
	s.PrefFill(60, 0, 1, 2, 0x4000)
	s.WarpStallEnd(70, 0, 1)
	s.PrefConsume(80, 0, 1, 0, 2, 0x4000, 75)
	s.LoadIssue(81, 0, 1, 0, 0, 2, 0x4000, true)
	s.QueueSample(90, DomSM, 0, QueueL1MSHR, 4)
	s.RowMiss(30, 0, 2, 0x4000)
	s.MSHRAlloc(20, DomPart, 0, 0x4000, false)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("exporter produced invalid JSON:\n%s", buf.String())
	}
	sum, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 14 {
		t.Fatalf("validated %d events, want 14", sum.Events)
	}
	if sum.PrefLifecycle != 1 {
		t.Fatalf("complete prefetch lifecycles = %d, want 1", sum.PrefLifecycle)
	}
	if sum.PrefTriples != 1 {
		t.Fatalf("complete admit→fill→consume triples = %d, want 1", sum.PrefTriples)
	}
	if sum.SchedEvents != 1 {
		t.Fatalf("sched events = %d, want 1", sum.SchedEvents)
	}
	if sum.StallBegins != 1 || sum.StallEnds != 1 {
		t.Fatalf("stall pairs = %d/%d, want 1/1", sum.StallBegins, sum.StallEnds)
	}
	if !strings.Contains(buf.String(), `"thread_name"`) {
		t.Fatal("missing track naming metadata")
	}
}

func TestValidateRejectsOutOfOrder(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"a","ph":"i","ts":10,"pid":1,"tid":0},
		{"name":"b","ph":"i","ts":5,"pid":1,"tid":0}
	]}`
	if _, err := ValidateChromeTrace(strings.NewReader(doc)); err == nil {
		t.Fatal("out-of-order trace accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	s := New(Config{SMs: 1})
	s.CTALaunch(1, 0, 0)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "metric,labels,value\n") {
		t.Fatalf("missing CSV header: %q", out)
	}
	if !strings.Contains(out, `cta_launch_total,"{sm=""0""}",1`) {
		t.Fatalf("cta_launch_total row missing or malformed:\n%s", out)
	}
}

// collectConsumer records every event it is fed (test double for the
// streaming profiler attachment point).
type collectConsumer struct{ events []Event }

func (c *collectConsumer) Consume(e Event) { c.events = append(c.events, e) }

func TestConsumerSeesAllEventsIncludingCycleClass(t *testing.T) {
	s := New(Config{SMs: 1, Trace: true, TraceCap: 2})
	var c collectConsumer
	s.Attach(&c)
	s.CTALaunch(0, 0, 0)
	s.WarpStallBegin(1, 0, 0)
	s.WarpStallEnd(5, 0, 0)           // over the trace cap: dropped from trace, not from consumers
	s.CycleClass(6, 0, CycleIssue, 1) // never buffered, streamed only
	if s.Trace().Len() != 2 || s.Trace().Dropped() != 1 {
		t.Fatalf("trace len=%d dropped=%d, want 2/1", s.Trace().Len(), s.Trace().Dropped())
	}
	if len(c.events) != 4 {
		t.Fatalf("consumer saw %d events, want 4", len(c.events))
	}
	last := c.events[3]
	if last.Kind != EvCycleClass || CycleClass(last.Arg) != CycleIssue {
		t.Fatalf("last consumer event = %+v, want EvCycleClass/issue", last)
	}
	// The trace buffer must never see the per-cycle class stream.
	for _, e := range s.Trace().Events() {
		if e.Kind == EvCycleClass {
			t.Fatal("EvCycleClass leaked into the bounded trace buffer")
		}
	}
}

// kindConsumer declines every kind outside its want set (obs.KindFilter).
type kindConsumer struct {
	collectConsumer
	want map[Kind]bool
}

func (k *kindConsumer) WantsKind(kind Kind) bool { return k.want[kind] }

// TestKindFilterSkipsDeclinedKinds pins the per-kind dispatch contract: a
// KindFilter consumer is dropped from the lists of the kinds it declines
// (including the per-cycle class stream) and still receives the rest. If
// declined kinds started arriving again, a selective collector would pay
// an interface call per EvResFail — the exact cost the filter removes.
func TestKindFilterSkipsDeclinedKinds(t *testing.T) {
	s := New(Config{SMs: 1})
	c := &kindConsumer{want: map[Kind]bool{EvWarpStallBegin: true}}
	s.Attach(c)
	s.CTALaunch(0, 0, 0)                // declined
	s.WarpStallBegin(1, 0, 0)           // wanted
	s.WarpStallEnd(5, 0, 0)             // declined
	s.ResFail(6, DomSM, 0, 0x80, false) // declined — the high-rate kind the filter exists for
	s.CycleClass(7, 0, CycleIssue, 1)   // declined via the same filter
	if len(c.events) != 1 || c.events[0].Kind != EvWarpStallBegin {
		t.Fatalf("filtered consumer saw %d events %v, want exactly one EvWarpStallBegin", len(c.events), c.events)
	}
}

func TestValidateRejectsEndWithoutBegin(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"warp.stall","cat":"warp","ph":"e","ts":10,"pid":1,"tid":0,"id":"stall-0-0"}
	]}`
	if _, err := ValidateChromeTrace(strings.NewReader(doc)); err == nil {
		t.Fatal("stall end without begin accepted")
	}
}

// TestEnumStringsExhaustive fails when a new enum value is added without a
// name: the String fallback prints "kind(N)"-style placeholders, which must
// never be reachable for in-range values. It also requires names to be
// unique so CSV/trace output stays unambiguous.
func TestEnumStringsExhaustive(t *testing.T) {
	check := func(kind string, n int, str func(int) string) {
		t.Helper()
		seen := make(map[string]bool, n)
		for i := 0; i < n; i++ {
			name := str(i)
			if name == "" || strings.Contains(name, "(") {
				t.Errorf("%s value %d has no name (got %q) — add it to the name table", kind, i, name)
			}
			if seen[name] {
				t.Errorf("%s value %d reuses name %q", kind, i, name)
			}
			seen[name] = true
		}
		// One past the end must hit the fallback, proving the sentinel is
		// in sync with the name table.
		if over := str(n); !strings.Contains(over, "(") {
			t.Errorf("%s out-of-range value %d unexpectedly named %q", kind, n, over)
		}
	}
	check("Kind", int(numKinds), func(i int) string { return Kind(i).String() })
	check("Domain", int(numDomains), func(i int) string { return Domain(i).String() })
	check("DropReason", int(numDropReasons), func(i int) string { return DropReason(i).String() })
	check("CycleClass", int(NumCycleClasses), func(i int) string { return CycleClass(i).String() })
	check("AccessClass", int(NumAccessClasses), func(i int) string { return AccessClass(i).String() })
	check("QueueKind", int(NumQueueKinds), func(i int) string { return QueueKind(i).String() })
	check("PickOutcome", NumPickOutcomes, func(i int) string { return PickOutcome(i).String() })
	check("CTAPhase", NumCTAPhases, func(i int) string { return CTAPhase(i).String() })
	check("TableOp", NumTableOps, func(i int) string { return TableOp(i).String() })
}

// TestSnapshotDeterministicOrder registers metrics in a deliberately
// scrambled order and requires Snapshot to come back sorted by (name,
// labels) — the property the CSV export and golden tests depend on.
func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(order []int) []Sample {
		r := NewRegistry()
		reg := []func(){
			func() { r.Counter("zz_total", Label{Key: "sm", Value: "1"}) },
			func() { r.Counter("aa_total") },
			func() { r.Gauge("mm_gauge") },
			func() { r.Counter("zz_total", Label{Key: "sm", Value: "0"}) },
			func() { r.Histogram("hh_cycles", 10, 3) },
		}
		for _, i := range order {
			reg[i]()
		}
		return r.Snapshot()
	}
	a := build([]int{0, 1, 2, 3, 4})
	b := build([]int{4, 3, 2, 1, 0})
	if len(a) != len(b) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].FullName() != b[i].FullName() || a[i].Kind != b[i].Kind {
			t.Fatalf("sample %d differs across registration orders: %q vs %q", i, a[i].FullName(), b[i].FullName())
		}
	}
	for i := 1; i < len(a); i++ {
		prev, cur := a[i-1], a[i]
		if cur.Name < prev.Name || (cur.Name == prev.Name && cur.Labels < prev.Labels) {
			t.Fatalf("snapshot not sorted at %d: %q after %q", i, cur.FullName(), prev.FullName())
		}
	}
}

// TestSampleKinds checks that every snapshot sample is tagged with what it
// was expanded from, and that SumCounters reads only counter samples.
func TestSampleKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Add(3)
	r.Gauge("x_gauge").Set(7)
	h := r.Histogram("lat_cycles", 100, 2)
	h.Observe(50)
	want := map[string]SampleKind{
		"x_total":           SampleCounter,
		"x_gauge":           SampleGauge,
		"lat_cycles_bucket": SampleBucket,
		"lat_cycles_sum":    SampleHistSum,
		"lat_cycles_count":  SampleHistCount,
	}
	snap := r.Snapshot()
	for _, s := range snap {
		if k, ok := want[s.Name]; !ok || s.Kind != k {
			t.Errorf("sample %s: kind %d, want %d (known: %v)", s.FullName(), s.Kind, k, ok)
		}
	}
	if got := SumCounters(snap, "x_total"); got != 3 {
		t.Errorf("SumCounters(x_total) = %d, want 3", got)
	}
	if got := SumCounters(snap, "x_gauge"); got != 0 {
		t.Errorf("SumCounters(x_gauge) = %d, want 0: gauges are not counters", got)
	}
}

func TestWriteCSVFullSnapshot(t *testing.T) {
	s := New(Config{SMs: 1, Partitions: 1, Channels: 1})
	s.PrefDrop(1, 0, 0, 7, 0x80, DropSetFull)
	s.CycleClass(1, 0, CycleMemStructural, 1)
	s.PickOutcome(1, 0, 2, PickDemoteLongLatency)
	s.CTAPhase(1, 0, 0, CTAPhaseFirstIssue)
	s.TableOp(1, 0, -1, 7, TableDistFill)
	s.ResFail(2, DomPart, 0, 0x100, false)
	s.LoadIssue(3, 0, 0, 0, 0, 7, 0x80, false)
	s.MemAccess(3, DomSM, 0, 0, 0, 7, 0x80, AccessMissMerged, false)
	s.MemAccess(4, DomPart, 0, 0, 0, 7, 0x80, AccessMissNew, true)
	s.DemandLatency(42)
	s.RunDone(10)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "metric,labels,value" {
		t.Fatalf("bad header %q", lines[0])
	}
	// Every data row must have exactly three comma-separated fields once
	// the quoted label column is accounted for.
	wantRows := []string{
		`pref_drop_total,"{sm=""0"",reason=""set_full""}",1`,
		`sm_cycle_class_total,"{sm=""0"",class=""mem_structural""}",1`,
		`sched_pick_total,"{sm=""0"",outcome=""demote_longlat""}",1`,
		`cta_phase_total,"{sm=""0"",phase=""first_issue""}",1`,
		`caps_table_op_total,"{sm=""0"",op=""dist_fill""}",1`,
		`l2_resfail_total,"{part=""0"",kind=""mshr""}",1`,
		`load_issue_total,"{sm=""0""}",1`,
		`l1_access_total,"{sm=""0"",outcome=""miss_merged""}",1`,
		`l2_access_total,"{part=""0"",outcome=""miss_new""}",1`,
		`demand_latency_cycles_count,"",1`,
		`sim_cycles,"",10`,
	}
	for _, row := range wantRows {
		if !strings.Contains(out, row) {
			t.Errorf("CSV missing row %q\ngot:\n%s", row, out)
		}
	}
	if len(lines) != len(s.Snapshot())+1 {
		t.Fatalf("CSV has %d data rows, snapshot has %d samples", len(lines)-1, len(s.Snapshot()))
	}
}

// TestChromeExportSchedLensKinds pins the decision-observability trace
// surface: CTA lifetimes render as paired async spans (intermediate phases
// as instants on the same id), pick outcomes and table operations carry
// their enum names in args, and the validator's table census accepts the
// fill-before-hit order the CAPS engine guarantees.
func TestChromeExportSchedLensKinds(t *testing.T) {
	s := New(Config{SMs: 1, Trace: true})
	s.CTAPhase(0, 0, 3, CTAPhaseLaunch)
	s.CTAPhase(1, 0, 3, CTAPhaseFirstIssue)
	s.PickOutcome(2, 0, 1, PickLeadingPromoted)
	s.TableOp(3, 0, -1, 7, TableDistFill)
	s.TableOp(4, 0, -1, 7, TableDistHit)
	s.TableOp(5, 0, 3, 7, TableCTAFill)
	s.TableOp(6, 0, 3, 7, TableCTAHit)
	s.CTAPhase(9, 0, 3, CTAPhaseDrain)
	s.CTAPhase(10, 0, 3, CTAPhaseRetire)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.CTASpans != 1 {
		t.Fatalf("complete CTA spans = %d, want 1", sum.CTASpans)
	}
	if sum.TableOps != 4 {
		t.Fatalf("table ops = %d, want 4", sum.TableOps)
	}
	out := buf.String()
	for _, want := range []string{
		`"outcome":"leading_promoted"`,
		`"phase":"first_issue"`,
		`"op":"cta_hit"`,
		`"id":"cta-0-3"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s:\n%s", want, out)
		}
	}
}

func TestValidateRejectsRetireWithoutLaunch(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"cta.lifetime","cat":"warp","ph":"e","ts":10,"pid":1,"tid":0,"id":"cta-0-3"}
	]}`
	if _, err := ValidateChromeTrace(strings.NewReader(doc)); err == nil {
		t.Fatal("CTA retire without a launch accepted")
	}
}

// TestValidateRejectsTableHitBeforeFill pins the census rule: a table hit,
// eviction or disable may only follow the fill that seeded the entry.
func TestValidateRejectsTableHitBeforeFill(t *testing.T) {
	s := New(Config{SMs: 1, Trace: true})
	s.TableOp(1, 0, 5, 7, TableCTAHit) // no preceding cta_fill for (0,5,7)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("table hit before its fill accepted")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x_total")
	r.Counter("x_total")
}

// fireEveryHook calls each counting hook once, on SM 0, partition 0 and
// channel 0, with both reservation-fail labels at both cache levels.
func fireEveryHook(s *Sink) {
	s.CTALaunch(1, 0, 0)
	s.WarpDispatch(1, 0, 0, 0)
	s.WarpStallBegin(1, 0, 0)
	s.WarpStallEnd(2, 0, 0)
	s.CycleClass(2, 0, CycleIssue, 1)
	s.WarpBarrier(2, 0, 0, 0)
	s.SchedPromote(2, 0, 0)
	s.SchedDemote(2, 0, 0)
	s.SchedWakeup(2, 0, 0)
	s.PickOutcome(2, 0, 0, PickLeadingPromoted)
	s.CTAPhase(2, 0, 0, CTAPhaseLaunch)
	s.TableOp(2, 0, 0, 1, TableDistFill)
	s.DistAlloc(2, 0, 1)
	s.PerCTAFill(2, 0, 0, 1)
	s.PrefCandidate(3, 0, 0, 0, 1, 0x80, -1)
	s.PrefDrop(3, 0, 0, 1, 0x100, DropStale)
	s.PrefAdmit(3, 0, 0, 0, 1, 0x80)
	s.PrefFill(4, 0, 0, 1, 0x80)
	s.PrefConsume(5, 0, 0, 0, 1, 0x80, 2)
	s.PrefLate(5, 0, 1, 0x180)
	s.PrefEarlyEvict(5, 0, 1, 0x200)
	s.LoadIssue(5, 0, 0, 0, 1, 1, 0x80, true)
	for _, dom := range []Domain{DomSM, DomPart} {
		s.MemAccess(6, dom, 0, 0, 0, 1, 0x80, AccessMissNew, false)
		s.MSHRAlloc(6, dom, 0, 0x80, true)
		s.MSHRMerge(6, dom, 0, 0x80)
		s.ResFail(6, dom, 0, 0x80, false)
		s.ResFail(6, dom, 0, 0x80, true)
	}
	s.MSHRConvert(6, 0, 0x80)
	s.QueueSample(7, DomPart, 0, QueueL2MSHR, 3)
	s.RowHit(7, 0, 1, 0x80)
	s.RowMiss(7, 0, 1, 0x80)
	s.CTAFinish(8, 0, 0)
	s.WarpFinish(8, 0, 0)
}

// TestDeadKindStillCounts pins the subscription rule's other half: a hook
// whose kind has no receiver skips the event but never its counter, so a
// metrics-only sink snapshots exactly what a fully subscribed or traced
// one does.
func TestDeadKindStillCounts(t *testing.T) {
	cfg := Config{SMs: 1, Partitions: 1, Channels: 1}
	dead := New(cfg)
	for k := Kind(0); k < numKinds; k++ {
		if dead.Live(k) {
			t.Fatalf("%v live on a sink with no trace or consumer", k)
		}
	}
	fireEveryHook(dead)

	all := New(cfg)
	var c collectConsumer
	all.Attach(&c)
	fireEveryHook(all)

	traced := New(Config{SMs: 1, Partitions: 1, Channels: 1, Trace: true})
	fireEveryHook(traced)

	for _, n := range []string{"l1_resfail_total", "l2_resfail_total", "l1_access_total", "l2_mshr_alloc_total", "dram_row_hit_total", "sm_cycle_class_total"} {
		if SumCounters(dead.Snapshot(), n) == 0 {
			t.Errorf("dead sink left %s at zero", n)
		}
	}
	want := all.Snapshot()
	if got := dead.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("dead-kind snapshot differs from the subscribed one\n got: %v\nwant: %v", got, want)
	}
	if got := traced.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("traced snapshot differs from the subscribed one\n got: %v\nwant: %v", got, want)
	}
	if len(c.events) == 0 || traced.Trace().Len() == 0 {
		t.Fatal("live sinks saw no events")
	}

	// The bulk entry adds to the same counters ResFail does, per label.
	dead.ResFails(DomPart, 0, false, 5)
	dead.ResFails(DomPart, 0, true, 2)
	dead.ResFails(DomPart, 1, true, 9) // no such partition: ignored
	for i := 0; i < 5; i++ {
		all.ResFail(9, DomPart, 0, 0x80, false)
	}
	all.ResFail(9, DomPart, 0, 0x80, true)
	all.ResFail(9, DomPart, 0, 0x80, true)
	if got, want := dead.Snapshot(), all.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("ResFails disagrees with per-event ResFail\n got: %v\nwant: %v", got, want)
	}
}

// TestKindLiveness pins when a kind is live: with a trace, or once a
// consumer subscribed to it attaches.
func TestKindLiveness(t *testing.T) {
	var nilSink *Sink
	if nilSink.Live(EvResFail) {
		t.Fatal("a nil sink reports a live kind")
	}
	s := New(Config{SMs: 1, Partitions: 1})
	s.Attach(&kindConsumer{want: map[Kind]bool{EvLoadIssue: true}})
	for k := Kind(0); k < numKinds; k++ {
		if got := s.Live(k); got != (k == EvLoadIssue) {
			t.Fatalf("after a load-issue subscriber: Live(%v) = %v", k, got)
		}
	}
	s.Attach(&collectConsumer{})
	for k := Kind(0); k < numKinds; k++ {
		if !s.Live(k) {
			t.Fatalf("%v dead with a catch-all consumer attached", k)
		}
	}

	// The trace takes every kind but the stream kinds, which bypass it: a
	// traced sink with no consumer builds no event for those.
	traced := New(Config{SMs: 1, Trace: true})
	for k := Kind(0); k < numKinds; k++ {
		if got, want := traced.Live(k), !kinds[k].stream; got != want {
			t.Fatalf("on a traced sink: Live(%v) = %v, want %v", k, got, want)
		}
	}
	for _, k := range []Kind{EvCycleClass, EvMemAccess, EvProgress} {
		if traced.Live(k) {
			t.Fatalf("stream kind %v live on a traced sink with no consumer", k)
		}
	}
	traced.Attach(&kindConsumer{want: map[Kind]bool{EvMemAccess: true}})
	if !traced.Live(EvMemAccess) || traced.Live(EvCycleClass) {
		t.Fatal("a memory-access consumer on a traced sink: want EvMemAccess live and EvCycleClass dead")
	}
	if s.Live(numKinds) {
		t.Fatal("out-of-range kind reported live")
	}
}

// runFolder folds the cycle-class stream and nothing else, declaring that
// it takes runs (obs.RunFolder), the way capsprof's collector does.
type runFolder struct {
	cycles [NumCycleClasses]int64
	events int
}

func (f *runFolder) Consume(e Event) {
	f.cycles[e.Arg] += e.Cycles()
	f.events++
}
func (f *runFolder) WantsKind(k Kind) bool { return k == EvCycleClass }
func (f *runFolder) FoldsCycleRuns() bool  { return true }

// TestFoldable pins when a sink takes bulk cycle credits: with no
// receiver for EvResFail and only run-folding cycle-class consumers.
// Anything that would see a settled run's events out of their per-cycle
// order — a trace, an EvResFail subscriber, a consumer keeping
// the class stream — turns it off.
func TestFoldable(t *testing.T) {
	var nilSink *Sink
	if !nilSink.Foldable() {
		t.Fatal("a nil sink is not foldable")
	}
	folding := New(Config{SMs: 1})
	folding.Attach(&runFolder{})
	folding.Attach(&kindConsumer{want: map[Kind]bool{EvLoadIssue: true}})
	if !folding.Foldable() {
		t.Fatal("a sink with a run folder and an unrelated subscriber is not foldable")
	}
	traced := New(Config{SMs: 1, Trace: true})
	resFail := New(Config{SMs: 1})
	resFail.Attach(&kindConsumer{want: map[Kind]bool{EvResFail: true}})
	keeper := New(Config{SMs: 1})
	keeper.Attach(&kindConsumer{want: map[Kind]bool{EvCycleClass: true}})
	for name, s := range map[string]*Sink{"traced": traced, "resfail": resFail, "class keeper": keeper} {
		if s.Foldable() {
			t.Errorf("%s sink is foldable", name)
		}
	}
}

// A run reported in one call counts exactly as its cycles reported one by
// one, in the counters and in a run-folding consumer.
func TestCycleClassRunFoldsAsItsLength(t *testing.T) {
	single, bulk := New(Config{SMs: 1}), New(Config{SMs: 1})
	fs, fb := &runFolder{}, &runFolder{}
	single.Attach(fs)
	bulk.Attach(fb)
	for c := int64(10); c < 17; c++ {
		single.CycleClass(c, 0, CycleMemStructural, 1)
	}
	single.CycleClass(17, 0, CycleIdle, 1)
	bulk.CycleClass(10, 0, CycleMemStructural, 7)
	bulk.CycleClass(17, 0, CycleIdle, 1)
	if !reflect.DeepEqual(bulk.Snapshot(), single.Snapshot()) {
		t.Errorf("bulk counters differ from per-cycle ones\n got: %v\nwant: %v", bulk.Snapshot(), single.Snapshot())
	}
	if fb.cycles != fs.cycles || fb.events != 2 || fs.events != 8 {
		t.Errorf("folded %v in %d events, per-cycle %v in %d", fb.cycles, fb.events, fs.cycles, fs.events)
	}
}
