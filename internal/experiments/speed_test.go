package experiments

import (
	"math"
	"strings"
	"testing"

	"caps/internal/hostprof"
)

// speedReport hand-builds a report with the given per-bench and aggregate
// speedups — the diff gate compares ratios only, so nothing else matters.
func speedReport(aggregate float64, speedups map[string]float64) *SpeedReport {
	r := &SpeedReport{Workers: 8, Speedup: aggregate}
	for _, b := range []string{"MM", "STE", "CNV"} {
		if s, ok := speedups[b]; ok {
			r.Entries = append(r.Entries, SpeedEntry{Bench: b, Speedup: s})
		}
	}
	return r
}

// The speed-diff gate must stay NaN/Inf-free when a report carries a zero
// or near-zero wall-clock: a 0ms tuned run yields Speedup 0 (the builder
// skips the division), a hand-edited file can carry Inf or NaN outright.
// None of those may anchor or trip the ratio threshold.
func TestDiffSpeedTable(t *testing.T) {
	healthy := map[string]float64{"MM": 3.0, "STE": 2.5, "CNV": 2.0}
	for _, tc := range []struct {
		name      string
		base, cur *SpeedReport
		tolerance float64
		want      []string // substrings, one per expected message, in order
	}{
		{
			name: "identical reports pass",
			base: speedReport(2.5, healthy),
			cur:  speedReport(2.5, healthy),
		},
		{
			name: "within tolerance passes",
			base: speedReport(2.5, healthy),
			cur:  speedReport(2.1, map[string]float64{"MM": 2.5, "STE": 2.1, "CNV": 1.7}),
		},
		{
			name:      "per-bench regression trips",
			base:      speedReport(2.5, healthy),
			cur:       speedReport(2.5, map[string]float64{"MM": 1.0, "STE": 2.5, "CNV": 2.0}),
			tolerance: 0.2,
			want:      []string{"MM: speedup regressed 3.00x -> 1.00x"},
		},
		{
			name: "aggregate regression trips",
			base: speedReport(2.5, healthy),
			cur:  speedReport(1.0, healthy),
			want: []string{"aggregate: speedup regressed"},
		},
		{
			name: "missing benchmark reported",
			base: speedReport(2.5, healthy),
			cur:  speedReport(2.5, map[string]float64{"MM": 3.0, "CNV": 2.0}),
			want: []string{"STE: present in baseline but missing"},
		},
		{
			name: "zero current speedup is flagged, not compared",
			base: speedReport(2.5, healthy),
			cur:  speedReport(2.5, map[string]float64{"MM": 0, "STE": 2.5, "CNV": 2.0}),
			want: []string{"MM: current speedup 0 is not comparable"},
		},
		{
			name: "zero baseline skips the gate with a note",
			base: speedReport(2.5, map[string]float64{"MM": 0, "STE": 2.5, "CNV": 2.0}),
			cur:  speedReport(2.5, healthy),
			want: []string{"MM: baseline speedup 0 is not comparable"},
		},
		{
			name: "NaN baseline never reaches the threshold arithmetic",
			base: speedReport(math.NaN(), map[string]float64{"MM": math.NaN(), "STE": 2.5, "CNV": 2.0}),
			cur:  speedReport(2.5, healthy),
			want: []string{
				"MM: baseline speedup NaN is not comparable",
				"aggregate: baseline speedup NaN is not comparable",
			},
		},
		{
			name: "Inf current against healthy baseline is flagged",
			base: speedReport(2.5, healthy),
			cur:  speedReport(2.5, map[string]float64{"MM": math.Inf(1), "STE": 2.5, "CNV": 2.0}),
			want: []string{"MM: current speedup +Inf is not comparable"},
		},
		{
			name: "zero-vs-zero does not fabricate a regression",
			base: speedReport(0, map[string]float64{"MM": 0, "STE": 2.5, "CNV": 2.0}),
			cur:  speedReport(0, map[string]float64{"MM": 0, "STE": 2.5, "CNV": 2.0}),
			want: []string{
				"MM: baseline speedup 0 is not comparable",
				"aggregate: baseline speedup 0 is not comparable",
			},
		},
	} {
		tol := tc.tolerance
		if tol == 0 {
			tol = 0.2
		}
		msgs := DiffSpeed(tc.base, tc.cur, tol)
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
			if strings.Contains(m, "regressed NaN") || strings.Contains(m, "regressed +Inf") {
				t.Errorf("%s: non-finite value reached the regression message: %q", tc.name, m)
			}
		}
	}
}

func TestDiffSpeedupBoundary(t *testing.T) {
	// Exactly at the threshold passes: the gate is strict-less-than.
	if m := diffSpeedup("x", 2.0, 1.6, 0.2); m != "" {
		t.Errorf("speedup at exactly (1-tol)*base tripped: %q", m)
	}
	if m := diffSpeedup("x", 2.0, 1.59, 0.2); m == "" {
		t.Error("speedup just under the threshold passed")
	}
	// Improvements never trip.
	if m := diffSpeedup("x", 2.0, 4.0, 0.2); m != "" {
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
	ctx := hostprof.CaptureContext(8, true)
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
	w := HostMismatch(with(nil), with(func(c *hostprof.Context) { c.Workers = 1; c.GOMAXPROCS++ }))
	if len(w) != 2 {
		t.Fatalf("%d warnings, want 2: %v", len(w), w)
	}
	joined := strings.Join(w, "; ")
	for _, want := range []string{"GOMAXPROCS", "workers 8 vs 1"} {
		if !strings.Contains(joined, want) {
			t.Errorf("warnings %q missing %q", joined, want)
		}
	}
}
