package hostprof

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"caps/internal/lens"
)

// --- sampling machinery ---

func TestNewRoundsSamplePeriodToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct {
		in   int64
		want int64
	}{
		{0, DefaultSampleEvery},
		{-7, DefaultSampleEvery},
		{1, 1},
		{2, 2},
		{3, 4},
		{5, 8},
		{64, 64},
		{65, 128},
	} {
		p := New(tc.in)
		if p.every != tc.want {
			t.Errorf("New(%d).every = %d, want %d", tc.in, p.every, tc.want)
		}
		if p.mask != tc.want-1 {
			t.Errorf("New(%d).mask = %d, want %d", tc.in, p.mask, tc.want-1)
		}
	}
}

func TestBeginStepSamplesOneStepInEvery(t *testing.T) {
	p := New(64)
	p.Init(1)
	var sampled []int64
	for step := int64(1); step <= 130; step++ {
		if p.BeginStep() {
			sampled = append(sampled, step)
			if !p.Sampling() {
				t.Fatalf("step %d: BeginStep true but Sampling() false", step)
			}
			p.EndStep(PhaseCommit)
		} else if p.Sampling() {
			t.Fatalf("step %d: BeginStep false but Sampling() true", step)
		}
	}
	want := []int64{1, 65, 129}
	if !reflect.DeepEqual(sampled, want) {
		t.Errorf("sampled steps %v, want %v", sampled, want)
	}
	if p.sampled != 3 {
		t.Errorf("completed sampled steps = %d, want 3", p.sampled)
	}
}

func TestBeginStepEveryOneSamplesEveryStep(t *testing.T) {
	p := New(1)
	p.Init(1)
	for step := 1; step <= 10; step++ {
		if !p.BeginStep() {
			t.Fatalf("step %d not sampled with every=1", step)
		}
		p.EndStep(PhaseCommit)
	}
	if p.sampled != 10 {
		t.Errorf("sampled = %d, want 10", p.sampled)
	}
}

// A driven profiler — real clock reads, every step sampled — must build a
// profile that satisfies its own accounting invariants end to end.
func TestDrivenProfilerBuildsValidProfile(t *testing.T) {
	p := New(1)
	p.Init(2)
	p.Start()
	for step := 0; step < 50; step++ {
		if !p.BeginStep() {
			t.Fatal("every=1 step not sampled")
		}
		p.MarkPhase(PhaseOther)
		p.MarkPhase(PhaseMem)
		start := p.Clock()
		spin(200)
		p.SMTick(0, p.Clock()-start)
		start = p.Clock()
		spin(200)
		p.SMTick(1, p.Clock()-start)
		p.MarkPhase(PhaseSM)
		p.EndStep(PhaseCommit)
	}
	p.AddReplayCost(3, 7)
	p.Finish()

	pr := p.Build("MM", "caps")
	if err := pr.Validate(1.0); err != nil {
		t.Fatalf("driven profile fails validation: %v", err)
	}
	if pr.Bench != "MM" || pr.Prefetcher != "caps" {
		t.Errorf("labels = %q/%q, want MM/caps", pr.Bench, pr.Prefetcher)
	}
	if pr.Steps != 50 || pr.SampledSteps != 50 {
		t.Errorf("steps=%d sampled=%d, want 50/50", pr.Steps, pr.SampledSteps)
	}
	if len(pr.Phases) != int(NumPhases)+1 {
		t.Fatalf("%d phase buckets, want %d (+loop)", len(pr.Phases), NumPhases+1)
	}
	if last := pr.Phases[len(pr.Phases)-1]; last.Name != PhaseLoop {
		t.Errorf("last phase bucket %q, want %q", last.Name, PhaseLoop)
	}
	if len(pr.Workers) != 1 || len(pr.SMs) != 2 {
		t.Fatalf("%d worker ledgers / %d SMs, want 1/2", len(pr.Workers), len(pr.SMs))
	}
	if w := pr.Workers[0]; w.ID != 0 || w.Ticks != 100 || w.Util <= 0 || w.Util > 1 {
		t.Errorf("tick ledger %+v, want w0 with 100 ticks and util in (0, 1]", w)
	}
	for _, sm := range pr.SMs {
		if sm.TickEWMANS <= 0 {
			t.Errorf("SM %d tick EWMA = %d, want > 0", sm.ID, sm.TickEWMANS)
		}
	}
	if pr.Skip.TickedSteps != 50 || pr.Skip.SkippedCycles != 0 {
		t.Errorf("skip ledger ticked=%d skipped=%d, want 50/0", pr.Skip.TickedSteps, pr.Skip.SkippedCycles)
	}
	if pr.Skip.ReplayFlushes != 3 || pr.Skip.ReplayPicks != 7 {
		t.Errorf("replay cost = %d/%d, want 3/7", pr.Skip.ReplayFlushes, pr.Skip.ReplayPicks)
	}
}

// spin burns a little CPU so sampled spans are nonzero even on coarse
// clocks — a sleep would make the test slow and still not guarantee it.
var spinSink int64

func spin(n int) {
	for i := 0; i < n; i++ {
		spinSink += int64(i * i)
	}
}

// One sampled step that absorbs a host stall must not be multiplied by the
// sample period: it is dropped from the extrapolation and counted, and the
// phase buckets still sum exactly to the wall-clock.
func TestOutlierStepIsNotExtrapolated(t *testing.T) {
	const stall = 20 * time.Millisecond
	run := func(every int64) *Profile {
		p := New(every)
		p.Init(1)
		p.Start()
		for step := int64(1); step <= 4*every; step++ {
			if !p.BeginStep() {
				continue
			}
			p.MarkPhase(PhaseOther)
			start := p.Clock()
			spin(200)
			if step == every+1 {
				time.Sleep(stall) // the second sampled step is descheduled
			}
			p.SMTick(0, p.Clock()-start)
			p.MarkPhase(PhaseSM)
			p.EndStep(PhaseCommit)
		}
		p.Finish()
		return p.Build("CNV", "caps")
	}

	pr := run(64)
	if pr.OutlierSteps < 1 || pr.OutlierNS < int64(stall) {
		t.Fatalf("outliers = %d (%dns), want the %v stall counted", pr.OutlierSteps, pr.OutlierNS, stall)
	}
	if pr.SampledSteps+pr.OutlierSteps != 4 {
		t.Errorf("kept %d + outliers %d sampled steps, want 4", pr.SampledSteps, pr.OutlierSteps)
	}
	if pr.EstimatedNS >= pr.WallNS {
		t.Errorf("estimate %dns >= wall %dns: the stall was extrapolated", pr.EstimatedNS, pr.WallNS)
	}
	if pr.Workers[0].Ticks != pr.SampledSteps {
		t.Errorf("worker ticks = %d, want one per kept step (%d)", pr.Workers[0].Ticks, pr.SampledSteps)
	}
	if err := pr.Validate(1.0); err != nil {
		t.Errorf("profile with an outlier fails its exact invariants: %v", err)
	}

	// Sampling every step multiplies nothing, so a stalled step is real
	// time and stays in.
	if pr := run(1); pr.OutlierSteps != 0 || pr.SampledSteps != 4 {
		t.Errorf("every=1: outliers=%d sampled=%d, want 0/4", pr.OutlierSteps, pr.SampledSteps)
	}
}

func TestFinishIsIdempotentAndStartRequired(t *testing.T) {
	p := New(1)
	p.Init(1)
	// Finish before Start is a no-op.
	p.Finish()
	if p.done || p.wallNS != 0 {
		t.Fatal("Finish before Start set state")
	}
	p.Start()
	spin(1000)
	p.Finish()
	wall := p.wallNS
	if wall < 0 {
		t.Fatalf("wall = %d, want >= 0", wall)
	}
	spin(1000)
	p.Finish()
	if p.wallNS != wall {
		t.Errorf("second Finish moved wall %d -> %d", wall, p.wallNS)
	}
}

// --- Validate ---

// validProfile hand-builds a profile whose invariants hold exactly: phases
// (incl. loop) sum to WallNS, extrapolation at 90% coverage.
func validProfile() *Profile {
	return &Profile{
		WallNS:       1000,
		EstimatedNS:  900,
		Steps:        100,
		SampledSteps: 2,
		SampleEvery:  64,
		Phases: []PhaseTime{
			{Name: "other", NS: 50},
			{Name: "mem", NS: 250},
			{Name: "sm", NS: 500},
			{Name: "commit", NS: 100},
			{Name: PhaseLoop, NS: 100},
		},
	}
}

func TestValidateAcceptsConsistentProfile(t *testing.T) {
	if err := validProfile().Validate(0); err != nil {
		t.Errorf("consistent profile rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Profile)
		want string
	}{
		{"zero wall-clock", func(p *Profile) { p.WallNS = 0 }, "non-positive wall-clock"},
		{"negative wall-clock", func(p *Profile) { p.WallNS = -5 }, "non-positive wall-clock"},
		{"no sampled steps", func(p *Profile) { p.SampledSteps = 0 }, "no sampled steps"},
		{"negative phase", func(p *Profile) { p.Phases[1].NS = -1 }, "negative phase"},
		{"phase sum mismatch", func(p *Profile) { p.Phases[2].NS += 7 }, "phase sum"},
		{
			// Overshoot: estimate 2000 vs wall 1000. Phases sum to the
			// estimate (loop clamped to 0, as Build produces), so the sum
			// check passes and the coverage gate is what fires.
			"coverage overshoot",
			func(p *Profile) {
				p.EstimatedNS = 2000
				p.Phases = []PhaseTime{{Name: "sm", NS: 2000}, {Name: PhaseLoop, NS: 0}}
			},
			"outside",
		},
		{
			"coverage undershoot",
			func(p *Profile) {
				p.EstimatedNS = 100
				p.Phases = []PhaseTime{{Name: "sm", NS: 100}, {Name: PhaseLoop, NS: 900}}
			},
			"outside",
		},
	} {
		p := validProfile()
		tc.mut(p)
		err := p.Validate(0)
		if err == nil {
			t.Errorf("%s: Validate accepted a broken profile", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateToleranceBoundary(t *testing.T) {
	// Coverage 0.70 passes a 0.35 tolerance but fails 0.25.
	p := validProfile()
	p.EstimatedNS = 700
	p.Phases = []PhaseTime{{Name: "sm", NS: 700}, {Name: PhaseLoop, NS: 300}}
	if err := p.Validate(0.35); err != nil {
		t.Errorf("coverage 0.70 rejected at tol 0.35: %v", err)
	}
	if err := p.Validate(0.25); err == nil {
		t.Error("coverage 0.70 accepted at tol 0.25")
	}
}

// --- Breakdown / Imbalance ---

func TestBreakdownCondensesProfile(t *testing.T) {
	p := validProfile()
	p.Workers = []Worker{{ID: 0, Util: 0.954}, {ID: 1, Util: 0.5}}
	p.SMs = []SMTime{
		{ID: 0, TickEWMANS: 100},
		{ID: 1, TickEWMANS: 100},
		{ID: 2, TickEWMANS: 200},
		{ID: 3, TickEWMANS: 0}, // untimed SM: excluded
	}
	b := p.Breakdown()
	if got := b.PhaseMS["sm"]; got != 0.0 { // 500ns rounds to 0.00ms
		t.Errorf("sm phase ms = %v, want 0", got)
	}
	p.Phases[2].NS = 12_345_678 // 12.345ms -> 12.35 after round2
	b = p.Breakdown()
	if got := b.PhaseMS["sm"]; got != 12.35 {
		t.Errorf("sm phase ms = %v, want 12.35", got)
	}
	if want := []float64{0.95, 0.5}; !reflect.DeepEqual(b.WorkerUtil, want) {
		t.Errorf("worker util = %v, want %v", b.WorkerUtil, want)
	}
	// EWMAs 100,100,200: mean 133.33, max 200 -> imbalance 50%.
	if b.ImbalancePct != 50.0 {
		t.Errorf("imbalance = %v%%, want 50%%", b.ImbalancePct)
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	p := validProfile()
	if got := p.Imbalance(); got != 0 {
		t.Errorf("imbalance with no SMs = %v, want 0", got)
	}
	p.SMs = []SMTime{{ID: 0, TickEWMANS: 0}, {ID: 1, TickEWMANS: 0}}
	if got := p.Imbalance(); got != 0 {
		t.Errorf("imbalance with only untimed SMs = %v, want 0", got)
	}
	p.SMs = []SMTime{{ID: 0, TickEWMANS: 500}}
	if got := p.Imbalance(); got != 0 {
		t.Errorf("imbalance with one SM = %v, want 0 (max == mean)", got)
	}
}

// --- persistence ---

func TestProfileFileRoundTrip(t *testing.T) {
	p := validProfile()
	p.Bench, p.Prefetcher = "MM", "caps"
	p.Host = CaptureContext(4, true)
	p.Workers = []Worker{{ID: 0, BusyNS: 10, WaitNS: 2, Ticks: 5, Util: 0.83}}
	p.SMs = []SMTime{{ID: 0, TickEWMANS: 42, SMProf: SMProf{FullWindows: 3, AbortFill: 1}}}
	p.Skip = Skip{TickedSteps: 100, FullWindows: 3, StallReplayCycles: 40}

	path := t.TempDir() + "/host.json"
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestReadFileRejectsGarbage(t *testing.T) {
	path := t.TempDir() + "/bad.json"
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("ReadFile accepted malformed JSON")
	}
	if _, err := ReadFile(t.TempDir() + "/missing.json"); err == nil {
		t.Error("ReadFile accepted a missing file")
	}
}

// --- Diff ---

// diffPair builds a comparable base/cur pair; mut perturbs cur.
func diffPair(mut func(*Profile)) (*Profile, *Profile) {
	mk := func() *Profile {
		p := validProfile()
		p.Workers = []Worker{{ID: 0, Util: 0.9}, {ID: 1, Util: 0.7}}
		for i := range p.Phases {
			p.Phases[i].Share = float64(p.Phases[i].NS) / float64(p.WallNS)
		}
		return p
	}
	base, cur := mk(), mk()
	mut(cur)
	return base, cur
}

func dims(regs []lens.Regression) []string {
	var d []string
	for _, r := range regs {
		d = append(d, r.Dimension)
	}
	return d
}

func TestDiffTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Profile)
		th   Thresholds
		want []string
	}{
		{"identical", func(p *Profile) {}, Thresholds{}, nil},
		{
			"wall within threshold",
			func(p *Profile) { p.WallNS = 1200 }, // +20% < default 25%
			Thresholds{},
			nil,
		},
		{
			"wall regression",
			func(p *Profile) { p.WallNS = 1400 },
			Thresholds{},
			[]string{"wall"},
		},
		{
			"wall regression under loose threshold",
			func(p *Profile) { p.WallNS = 1400 },
			Thresholds{WallFrac: 0.5},
			nil,
		},
		{
			"phase share shift",
			func(p *Profile) { p.Phases[2].Share += 0.10; p.Phases[1].Share -= 0.10 },
			Thresholds{},
			[]string{"phase", "phase"},
		},
		{
			"worker utilization drop",
			func(p *Profile) { p.Workers[0].Util = 0.4 }, // mean 0.8 -> 0.55
			Thresholds{},
			[]string{"worker-util"},
		},
	} {
		base, cur := diffPair(tc.mut)
		regs := Diff(base, cur, tc.th)
		if got := dims(regs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: regressions %v, want %v", tc.name, got, tc.want)
		}
	}
}

// A truncated profile (zero wall-clock) must skip the wall gate instead of
// regressing on a NaN or Inf ratio.
func TestDiffSkipsWallOnZeroWallClock(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(base, cur *Profile)
	}{
		{"zero base", func(base, cur *Profile) { base.WallNS = 0; cur.WallNS = 1400 }},
		{"zero cur", func(base, cur *Profile) { cur.WallNS = 0 }},
		{"both zero", func(base, cur *Profile) { base.WallNS = 0; cur.WallNS = 0 }},
	} {
		base, cur := diffPair(func(*Profile) {})
		tc.mut(base, cur)
		for _, r := range Diff(base, cur, Thresholds{}) {
			if r.Dimension == "wall" {
				t.Errorf("%s: wall gate fired on a zero wall-clock: %v", tc.name, r)
			}
		}
	}
}

func TestDiffSkipsUtilAndSkipGatesOnZeroBaseline(t *testing.T) {
	// A serial baseline (no workers timed, no skip windows) must not flag a
	// serial current run — zero-vs-zero is not a drop.
	base, cur := diffPair(func(p *Profile) {})
	base.Workers, cur.Workers = nil, nil
	if regs := Diff(base, cur, Thresholds{}); len(regs) != 0 {
		t.Errorf("serial pair produced regressions: %v", regs)
	}
}

// --- ContextMismatch ---

func TestContextMismatch(t *testing.T) {
	base := CaptureContext(4, true)
	if w := ContextMismatch(base, base); len(w) != 0 {
		t.Errorf("identical contexts mismatch: %v", w)
	}
	cur := base
	cur.Workers = 8
	cur.IdleSkip = false
	cur.NumCPU = base.NumCPU + 2
	w := ContextMismatch(base, cur)
	if len(w) != 3 {
		t.Fatalf("%d mismatch warnings, want 3: %v", len(w), w)
	}
	joined := strings.Join(w, "; ")
	for _, want := range []string{"workers 4 vs 8", "idle-skip true vs false", "cpu count"} {
		if !strings.Contains(joined, want) {
			t.Errorf("warnings %q missing %q", joined, want)
		}
	}
}

// --- nil safety ---

// Every method the executor wires unconditionally must be a cheap no-op on
// a nil profiler — the serial, unprofiled run pays one branch.
func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.Init(4)
	p.Start()
	p.Finish()
	if p.BeginStep() {
		t.Error("nil profiler reported a sampled step")
	}
	if p.Sampling() {
		t.Error("nil profiler reported sampling")
	}
	p.AddReplayCost(1, 2)
	if sp := p.SMProf(0); sp != nil {
		t.Error("nil profiler returned an SM ledger")
	}
	if got := p.Context(); got != (Context{}) {
		t.Errorf("nil profiler context = %+v, want zero", got)
	}
	if pr := p.Build("MM", "caps"); pr != nil {
		t.Error("nil profiler built a profile")
	}
	var nilProfile *Profile
	if b := nilProfile.Breakdown(); b != nil {
		t.Error("nil profile produced a breakdown")
	}
}

func TestSMProfOutOfRange(t *testing.T) {
	p := New(1)
	p.Init(2)
	if sp := p.SMProf(2); sp != nil {
		t.Error("out-of-range SMProf returned a ledger")
	}
	if sp := p.SMProf(1); sp == nil {
		t.Error("in-range SMProf returned nil")
	}
}
