package hostprof

import (
	"encoding/json"
	"fmt"
	"os"
)

// Profile is the finished host-time attribution for one run: the sampled
// phase spans extrapolated to the full run, per-worker busy/wait, per-SM
// tick EWMAs, and the fast-forward ledger. It is what `capsprof host`
// renders and what runstore persists beside the simulated profile.
type Profile struct {
	Bench      string  `json:"bench,omitempty"`
	Prefetcher string  `json:"prefetcher,omitempty"`
	Host       Context `json:"host"`

	// WallNS is the measured run wall-clock (Start..Finish). EstimatedNS
	// is the extrapolation of the sampled step spans to all steps; the
	// difference is the Run-loop residue reported as the "loop" phase.
	WallNS       int64 `json:"wall_ns"`
	EstimatedNS  int64 `json:"estimated_ns"`
	Steps        int64 `json:"steps"`
	SampledSteps int64 `json:"sampled_steps"`
	SampleEvery  int64 `json:"sample_every"`
	// OutlierSteps counts sampled steps left out of the extrapolation
	// because they ran past OutlierStepNS; OutlierNS is their wall-clock.
	OutlierSteps int64 `json:"outlier_steps"`
	OutlierNS    int64 `json:"outlier_ns"`

	// ClockCostNS is the calibrated cost of one monotonic-clock read,
	// subtracted from per-tick spans and the SM phase (sampled steps pay
	// two reads per tick; without the correction, fast-forward plateaus —
	// where a replayed tick costs little more than its own measurement —
	// overstate the extrapolation far past the Validate tolerance).
	ClockCostNS int64 `json:"clock_cost_ns"`

	// Phases holds the four Step phases plus the synthetic "loop" bucket;
	// the NS values sum exactly to WallNS (see Validate for the tolerance
	// between extrapolation and measurement that makes this honest).
	Phases []PhaseTime `json:"phases"`

	Workers []Worker `json:"workers"`
	SMs     []SMTime `json:"sms"`
	Skip    Skip     `json:"skip"`
}

// PhaseTime is one phase's extrapolated share of the run wall-clock.
type PhaseTime struct {
	Name  string  `json:"name"`
	NS    int64   `json:"ns"`
	Share float64 `json:"share"`
}

// Worker is one tick worker's sampled-step ledger. BusyNS/WaitNS are
// extrapolated to the full run; Util is busy time over the SM phase.
type Worker struct {
	ID     int     `json:"id"`
	BusyNS int64   `json:"busy_ns"`
	WaitNS int64   `json:"wait_ns"`
	Ticks  int64   `json:"ticks"`
	Util   float64 `json:"util"`
}

// SMTime is one SM's tick-duration EWMA plus its fast-forward ledger.
type SMTime struct {
	ID         int   `json:"id"`
	TickEWMANS int64 `json:"tick_ewma_ns"`
	SMProf
}

// Skip is the whole-run fast-forward ledger: how much simulated time was
// jumped instead of ticked, window/abort tallies summed over SMs, and the
// replay cost billed to the schedulers.
type Skip struct {
	Jumps         int64 `json:"jumps"`
	SkippedCycles int64 `json:"skipped_cycles"`
	TickedSteps   int64 `json:"ticked_steps"`

	FullWindows  int64 `json:"full_windows"`
	IssueWindows int64 `json:"issue_windows"`
	StallWindows int64 `json:"stall_windows"`
	AbortFill    int64 `json:"abort_fill"`
	AbortLaunch  int64 `json:"abort_launch"`
	AbortRetire  int64 `json:"abort_retire"`

	FullSleepCycles   int64 `json:"full_sleep_cycles"`
	IssueSleepCycles  int64 `json:"issue_sleep_cycles"`
	StallReplayCycles int64 `json:"stall_replay_cycles"`

	ReplayFlushes int64 `json:"replay_flushes"`
	ReplayPicks   int64 `json:"replay_picks"`

	// Efficiency is skipped/(skipped+ticked) — the fraction of simulated
	// cycles the whole-GPU jump removed from the Step loop.
	Efficiency float64 `json:"efficiency"`
}

// Build assembles the Profile after the run has finished (GPU.Close has
// called Finish and gathered replay cost). bench/prefetcher label the run.
func (p *Profiler) Build(bench, prefetcher string) *Profile {
	if p == nil {
		return nil
	}
	pr := &Profile{
		Bench:        bench,
		Prefetcher:   prefetcher,
		Host:         p.ctx,
		WallNS:       p.wallNS,
		Steps:        p.steps,
		SampledSteps: p.sampled,
		SampleEvery:  p.every,
		OutlierSteps: p.outliers,
		OutlierNS:    p.outlierNS,
		ClockCostNS:  p.clockCost,
	}

	// The sampled SM-phase span contains every per-tick clock read — two
	// per timed tick, concurrent across workers — which SMTick's per-tick
	// correction cannot remove from the span itself. Subtract the wall
	// share here: 2 reads × calibrated cost × ticks, spread over workers.
	var totalTicks int64
	for _, n := range p.workerTicks {
		totalTicks += n
	}
	smPhase := p.phaseNS[PhaseSM]
	if w := int64(len(p.workerBusy)); w > 0 {
		smPhase -= 2 * p.clockCost * totalTicks / w
		if smPhase < 0 {
			smPhase = 0
		}
	}

	// Extrapolate sampled spans to the full run.
	f := 0.0
	if p.sampled > 0 {
		f = float64(p.steps) / float64(p.sampled)
	}
	var est int64
	phases := make([]PhaseTime, 0, NumPhases+1)
	for ph := Phase(0); ph < NumPhases; ph++ {
		raw := p.phaseNS[ph]
		if ph == PhaseSM {
			raw = smPhase
		}
		ns := int64(float64(raw) * f)
		est += ns
		phases = append(phases, PhaseTime{Name: ph.String(), NS: ns})
	}
	pr.EstimatedNS = est
	// The loop bucket absorbs wall-clock outside Step. When sampling noise
	// pushes the extrapolation past the measured wall-clock it clamps to
	// zero — Validate gates how far the two may diverge.
	loop := pr.WallNS - est
	if loop < 0 {
		loop = 0
	}
	phases = append(phases, PhaseTime{Name: PhaseLoop, NS: loop})
	total := est + loop
	for i := range phases {
		if total > 0 {
			phases[i].Share = float64(phases[i].NS) / float64(total)
		}
	}
	pr.Phases = phases

	// Workers: wait is the (read-corrected) sampled SM-phase span minus the
	// worker's busy time in it (clamped: the inline shard-0 worker is the
	// phase's critical path and can exceed the span by measurement
	// granularity).
	for w := range p.workerBusy {
		busy := p.workerBusy[w]
		wait := smPhase - busy
		if wait < 0 {
			wait = 0
		}
		wk := Worker{
			ID:     w,
			BusyNS: int64(float64(busy) * f),
			WaitNS: int64(float64(wait) * f),
			Ticks:  p.workerTicks[w],
		}
		if smPhase > 0 {
			wk.Util = float64(busy) / float64(smPhase)
			if wk.Util > 1 {
				wk.Util = 1
			}
		}
		pr.Workers = append(pr.Workers, wk)
	}

	for i := range p.sm {
		pr.SMs = append(pr.SMs, SMTime{ID: i, TickEWMANS: p.smEWMA[i], SMProf: p.sm[i]})
	}

	s := &pr.Skip
	s.Jumps = p.jumps
	s.SkippedCycles = p.skippedCycles
	s.TickedSteps = p.steps
	s.ReplayFlushes = p.replayFlushes
	s.ReplayPicks = p.replayPicks
	for i := range p.sm {
		sp := &p.sm[i]
		s.FullWindows += sp.FullWindows
		s.IssueWindows += sp.IssueWindows
		s.StallWindows += sp.StallWindows
		s.AbortFill += sp.AbortFill
		s.AbortLaunch += sp.AbortLaunch
		s.AbortRetire += sp.AbortRetire
		s.FullSleepCycles += sp.FullSleepCycles
		s.IssueSleepCycles += sp.IssueSleepCycles
		s.StallReplayCycles += sp.StallReplayCycles
	}
	if tot := s.SkippedCycles + s.TickedSteps; tot > 0 {
		s.Efficiency = float64(s.SkippedCycles) / float64(tot)
	}
	return pr
}

// DefaultTolerance bounds how far the extrapolated Step time may diverge
// from the measured run wall-clock (see Validate). The slack covers
// sampling noise plus the deliberately unsampled Run-loop overhead — the
// workload-drain Done scan, beat processing and the watchdog — which the
// "loop" bucket absorbs. Measured loop shares on the 16-benchmark suite
// sit well under this bound; a profile that fails it was mis-clocked
// (epoch reuse, missing Finish) or the executor grew unattributed work.
const DefaultTolerance = 0.35

// Validate checks the profile's accounting invariant: the phase buckets
// (including "loop") sum exactly to WallNS, and the extrapolated Step
// time stays within tol of the measured wall-clock — i.e. the loop bucket
// holds at most tol of the run, and the extrapolation overshoots by at
// most tol. tol <= 0 selects DefaultTolerance.
func (pr *Profile) Validate(tol float64) error {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	if pr.WallNS <= 0 {
		return fmt.Errorf("hostprof: non-positive wall-clock %dns (run not finished?)", pr.WallNS)
	}
	if pr.SampledSteps == 0 {
		if pr.OutlierSteps > 0 {
			return fmt.Errorf("hostprof: no sampled steps: all %d ran past the %dns outlier bound", pr.OutlierSteps, OutlierStepNS)
		}
		return fmt.Errorf("hostprof: no sampled steps (run shorter than sample period %d?)", pr.SampleEvery)
	}
	var sum int64
	for _, ph := range pr.Phases {
		if ph.NS < 0 {
			return fmt.Errorf("hostprof: negative phase %s: %dns", ph.Name, ph.NS)
		}
		sum += ph.NS
	}
	// Exact when the extrapolation undershoots (loop absorbs the rest);
	// when it overshoots, loop clamped to zero and sum == EstimatedNS.
	want := pr.WallNS
	if pr.EstimatedNS > want {
		want = pr.EstimatedNS
	}
	if sum != want {
		return fmt.Errorf("hostprof: phase sum %dns != %dns", sum, want)
	}
	lo := float64(pr.WallNS) * (1 - tol)
	hi := float64(pr.WallNS) * (1 + tol)
	if e := float64(pr.EstimatedNS); e < lo || e > hi {
		return fmt.Errorf("hostprof: extrapolated step time %dns outside ±%.0f%% of wall-clock %dns (coverage %.2f)",
			pr.EstimatedNS, tol*100, pr.WallNS, e/float64(pr.WallNS))
	}
	return nil
}

// Breakdown is the compact per-run summary committed into
// BENCH_speed.json entries: phase milliseconds, per-worker utilization,
// the SM tick-time imbalance, and the skip efficiency.
type Breakdown struct {
	PhaseMS        map[string]float64 `json:"phase_ms"`
	WorkerUtil     []float64          `json:"worker_util"`
	ImbalancePct   float64            `json:"imbalance_pct"`
	SkipEfficiency float64            `json:"skip_efficiency"`
}

// Breakdown condenses the profile for embedding in speed reports.
func (pr *Profile) Breakdown() *Breakdown {
	if pr == nil {
		return nil
	}
	b := &Breakdown{PhaseMS: make(map[string]float64, len(pr.Phases))}
	for _, ph := range pr.Phases {
		b.PhaseMS[ph.Name] = round2(float64(ph.NS) / 1e6)
	}
	for _, w := range pr.Workers {
		b.WorkerUtil = append(b.WorkerUtil, round2(w.Util))
	}
	b.ImbalancePct = round2(pr.Imbalance() * 100)
	b.SkipEfficiency = round2(pr.Skip.Efficiency)
	return b
}

// Imbalance is (max-mean)/mean over the per-SM tick-duration EWMAs — 0
// for perfectly even SMs, 1.0 when the slowest SM costs twice the mean.
// SMs with no timed ticks (EWMA 0) are excluded.
func (pr *Profile) Imbalance() float64 {
	var sum, max float64
	n := 0
	for _, sm := range pr.SMs {
		if sm.TickEWMANS <= 0 {
			continue
		}
		v := float64(sm.TickEWMANS)
		sum += v
		if v > max {
			max = v
		}
		n++
	}
	if n == 0 || sum == 0 {
		return 0
	}
	mean := sum / float64(n)
	return (max - mean) / mean
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// WriteFile writes the profile as indented JSON.
func (pr *Profile) WriteFile(path string) error {
	data, err := json.MarshalIndent(pr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a profile written by WriteFile.
func ReadFile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var pr Profile
	if err := json.Unmarshal(data, &pr); err != nil {
		return nil, fmt.Errorf("hostprof: parse %s: %w", path, err)
	}
	return &pr, nil
}
