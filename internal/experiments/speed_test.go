package experiments

import (
	"math"
	"strings"
	"testing"

	"caps/internal/config"
	"caps/internal/hostprof"
	"caps/internal/sim"
)

// speedReport hand-builds a report with the given per-bench wall times;
// every bench simulates the same 100 cycles and 1000 instructions.
func speedReport(walls map[string]float64) *SpeedReport {
	r := &SpeedReport{}
	for _, b := range []string{"MM", "STE", "CNV"} {
		if ms, ok := walls[b]; ok {
			r.Entries = append(r.Entries, SpeedEntry{Bench: b, Cycles: 100, Instructions: 1000, WallMS: ms})
		}
	}
	return r
}

// The speed-diff gate must stay NaN/Inf-free when a report carries a zero
// or non-finite wall time (a hand-edited file, a report from before wall
// times were recorded): none of those may anchor or trip the threshold.
func TestDiffSpeedTable(t *testing.T) {
	healthy := map[string]float64{"MM": 300, "STE": 250, "CNV": 200}
	moved := speedReport(healthy)
	moved.Entries[1].Cycles++
	for _, tc := range []struct {
		name      string
		base, cur *SpeedReport
		want      []string // substrings, one per expected message, in order
	}{
		{
			name: "identical reports pass",
			base: speedReport(healthy),
			cur:  speedReport(healthy),
		},
		{
			name: "within tolerance and faster both pass",
			base: speedReport(healthy),
			cur:  speedReport(map[string]float64{"MM": 359, "STE": 100, "CNV": 240}),
		},
		{
			name: "per-bench wall rise trips",
			base: speedReport(healthy),
			cur:  speedReport(map[string]float64{"MM": 450, "STE": 250, "CNV": 200}),
			want: []string{"MM: wall time rose 300.0 ms -> 450.0 ms (+50%, 20% tolerance)"},
		},
		{
			name: "changed simulated work trips whatever the wall time",
			base: speedReport(healthy),
			cur:  moved,
			want: []string{"STE: simulated cycles/instructions 101/1000 differ from the baseline's 100/1000"},
		},
		{
			name: "missing benchmark reported",
			base: speedReport(healthy),
			cur:  speedReport(map[string]float64{"MM": 300, "CNV": 200}),
			want: []string{"STE: present in baseline but missing"},
		},
		{
			name: "zero current wall is flagged, not compared",
			base: speedReport(healthy),
			cur:  speedReport(map[string]float64{"MM": 0, "STE": 250, "CNV": 200}),
			want: []string{"MM: current wall time 0 ms is not comparable"},
		},
		{
			name: "zero baseline skips the gate with a note",
			base: speedReport(map[string]float64{"MM": 0, "STE": 250, "CNV": 200}),
			cur:  speedReport(healthy),
			want: []string{"MM: baseline wall time 0 ms is not comparable"},
		},
		{
			name: "NaN baseline never reaches the threshold arithmetic",
			base: speedReport(map[string]float64{"MM": math.NaN(), "STE": 250, "CNV": 200}),
			cur:  speedReport(healthy),
			want: []string{"MM: baseline wall time NaN ms is not comparable"},
		},
		{
			name: "Inf current against healthy baseline is flagged",
			base: speedReport(healthy),
			cur:  speedReport(map[string]float64{"MM": math.Inf(1), "STE": 250, "CNV": 200}),
			want: []string{"MM: current wall time +Inf ms is not comparable"},
		},
	} {
		msgs := DiffSpeed(tc.base, tc.cur, 0.2)
		if len(msgs) != len(tc.want) {
			t.Errorf("%s: %d messages %v, want %d", tc.name, len(msgs), msgs, len(tc.want))
			continue
		}
		for i, want := range tc.want {
			if !strings.Contains(msgs[i], want) {
				t.Errorf("%s: message %d = %q, want substring %q", tc.name, i, msgs[i], want)
			}
		}
		// The gate's own output must never leak non-finite arithmetic.
		for _, m := range msgs {
			if strings.Contains(m, "rose NaN") || strings.Contains(m, "+Inf%") {
				t.Errorf("%s: non-finite value reached the regression message: %q", tc.name, m)
			}
		}
	}
}

func TestDiffWallBoundary(t *testing.T) {
	// Exactly at the threshold passes: the gate is strict-greater-than.
	if m := diffWall("x", 100, 125, 0.25); m != "" {
		t.Errorf("wall time at exactly (1+tol)*base tripped: %q", m)
	}
	if m := diffWall("x", 100, 125.1, 0.25); m == "" {
		t.Error("wall time just over the threshold passed")
	}
	// Improvements never trip.
	if m := diffWall("x", 100, 50, 0.25); m != "" {
		t.Errorf("improvement tripped the gate: %q", m)
	}
}

func TestIsFinitePos(t *testing.T) {
	for v, want := range map[float64]bool{
		1.5:          true,
		1e-9:         true,
		0:            false,
		-1:           false,
		math.Inf(1):  false,
		math.Inf(-1): false,
	} {
		if got := isFinitePos(v); got != want {
			t.Errorf("isFinitePos(%v) = %v, want %v", v, got, want)
		}
	}
	if isFinitePos(math.NaN()) {
		t.Error("isFinitePos(NaN) = true")
	}
}

func TestHostMismatch(t *testing.T) {
	ctx := hostprof.CaptureContext(1, true)
	with := func(mut func(*hostprof.Context)) *SpeedReport {
		c := ctx
		if mut != nil {
			mut(&c)
		}
		return &SpeedReport{Host: &c}
	}
	// Both pre-hostprof: silent (nothing to warn about).
	if w := HostMismatch(&SpeedReport{}, &SpeedReport{}); w != nil {
		t.Errorf("nil/nil contexts warned: %v", w)
	}
	if w := HostMismatch(&SpeedReport{}, with(nil)); len(w) != 1 || !strings.Contains(w[0], "baseline report has no host context") {
		t.Errorf("nil baseline context: %v", w)
	}
	if w := HostMismatch(with(nil), &SpeedReport{}); len(w) != 1 || !strings.Contains(w[0], "current report has no host context") {
		t.Errorf("nil current context: %v", w)
	}
	if w := HostMismatch(with(nil), with(nil)); len(w) != 0 {
		t.Errorf("identical contexts warned: %v", w)
	}
	w := HostMismatch(with(nil), with(func(c *hostprof.Context) { c.Workers = 8; c.GOMAXPROCS++ }))
	if len(w) != 2 {
		t.Fatalf("%d warnings, want 2: %v", len(w), w)
	}
	joined := strings.Join(w, "; ")
	for _, want := range []string{"GOMAXPROCS", "workers 1 vs 8"} {
		if !strings.Contains(joined, want) {
			t.Errorf("warnings %q missing %q", joined, want)
		}
	}
}

// Options routed through WithRunOptions reach every run, and one that only
// paces the run loop (the progress beat) leaves the statistics exactly as
// the suite's default run produces them.
func TestSuiteRunOptionsPreserveStats(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 20_000
	cfg.NumSMs = 4
	key := PrefetcherKey("MM", "caps")

	plain, err := NewSuite(cfg).Run(key)
	if err != nil {
		t.Fatal(err)
	}
	paced, err := NewSuite(cfg, WithRunOptions(sim.WithProgressEvery(64))).Run(key)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hash64() != paced.Hash64() {
		t.Errorf("paced suite run diverged: cycles %d vs %d, instructions %d vs %d",
			paced.Cycles, plain.Cycles, paced.Instructions, plain.Instructions)
	}
}

// Every repeat of a benchmark must simulate the same work, and the report
// survives a file round trip.
func TestBuildSpeedReportIdentityGate(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 20_000
	cfg.NumSMs = 4
	rep, err := BuildSpeedReport(cfg, []string{"MM"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 || rep.Entries[0].Bench != "MM" {
		t.Fatalf("report entries = %+v, want exactly MM", rep.Entries)
	}
	e := rep.Entries[0]
	if e.Cycles <= 0 || e.Instructions <= 0 {
		t.Errorf("entry recorded no work: %+v", e)
	}
	if e.WallMS <= 0 || rep.WallMS != e.WallMS || e.Host == nil {
		t.Errorf("entry recorded no timing or breakdown: %+v (report %v ms)", e, rep.WallMS)
	}
	if rep.Host == nil || rep.Host.Workers != 1 {
		t.Errorf("host context %+v, want one serial worker", rep.Host)
	}

	path := t.TempDir() + "/speed.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpeedReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.WallMS != rep.WallMS || len(back.Entries) != len(rep.Entries) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", back, rep)
	}
	if msgs := DiffSpeed(rep, back, 0.2); len(msgs) != 0 {
		t.Errorf("a report diffs against its own round trip: %v", msgs)
	}
}

func TestDiffSpeedFlagsRegressions(t *testing.T) {
	base := &SpeedReport{Entries: []SpeedEntry{
		{Bench: "MM", Cycles: 10, Instructions: 20, WallMS: 200},
		{Bench: "STE", Cycles: 30, Instructions: 40, WallMS: 300},
	}}
	same := &SpeedReport{Entries: []SpeedEntry{
		{Bench: "MM", Cycles: 10, Instructions: 20, WallMS: 230},
		{Bench: "STE", Cycles: 30, Instructions: 40, WallMS: 290},
	}}
	if msgs := DiffSpeed(base, same, 0.2); len(msgs) != 0 {
		t.Errorf("within-tolerance diff reported: %v", msgs)
	}
	bad := &SpeedReport{Entries: []SpeedEntry{{Bench: "MM", Cycles: 10, Instructions: 21, WallMS: 200}}}
	msgs := DiffSpeed(base, bad, 0.2)
	if len(msgs) != 2 { // MM's work changed, STE missing
		t.Errorf("got %d regression messages (%v), want 2", len(msgs), msgs)
	}
}
