package sim

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"caps/internal/config"
	"caps/internal/hostprof"
	"caps/internal/invariant"
	"caps/internal/kernels"
	"caps/internal/memlens"
	"caps/internal/obs"
	"caps/internal/profile"
	"caps/internal/schedlens"
)

// withTickEverySM selects the reference executor: every SM ticks on every
// cycle, settling its window cycles one tick at a time (options.tickEvery).
func withTickEverySM() Option { return func(o *options) { o.tickEvery = true } }

// withoutFastForward selects the plain per-cycle pipeline: no SM ever
// opens a sleep or stall-replay window (options.noFastForward), so every
// cycle runs the full tick. It is the reference the fast-forward is held
// to; the L2 partitions' stalled-retry verdict has its own reference in
// internal/mem (refPartition).
func withoutFastForward() Option { return func(o *options) { o.noFastForward = true } }

// windowRun is everything one run of the window-skip differential yields.
type windowRun struct {
	stats    uint64
	hashes   []uint64 // state hash every windowHashEvery cycles
	skip     hostprof.Skip
	smLedger []hostprof.SMProf
	skipped  int64 // SM ticks the GPU left out

	snap  []obs.Sample
	prof  *profile.Profile
	mem   *memlens.Profile
	sched *schedlens.Profile
}

const windowHashEvery = 512

// windowStateHash folds what the determinism harness's StateHash folds:
// statistics, every SM and L1, every L2 slice and the cycle.
func windowStateHash(g *GPU) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], g.Stats().Hash64())
	h.Write(buf[:])
	for _, sm := range g.SMs() {
		sm.L1().HashState(h)
		sm.HashState(h)
	}
	for _, p := range g.Partitions() {
		p.L2().HashState(h)
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(g.Cycle()))
	h.Write(buf[:])
	return h.Sum64()
}

// runWindowed steps k to the instruction cap under CAPS with a host
// profiler, the sanitizer and opts, in one of the differential's
// variants: "bare" (no sink) or "lensed" (capsprof, memlens and schedlens
// on a metrics sink). The sanitizer
// audits every settled window span and every skipped partition tick.
func runWindowed(t *testing.T, k *kernels.Kernel, variant string, opts ...Option) *windowRun {
	t.Helper()
	cfg := config.Default()
	cfg.Scheduler = config.SchedPAS
	cfg.MaxInsts = 30_000
	cfg.CheckInvariants = true
	hp := hostprof.New(hostprof.DefaultSampleEvery)
	opts = append(opts, WithPrefetcher("caps"), WithHostProf(hp))
	var (
		snk *obs.Sink
		col *profile.Collector
		ml  *memlens.Collector
		sl  *schedlens.Collector
	)
	if variant == "lensed" {
		snk = NewSink(cfg, false, 0)
		col = profile.NewCollector(cfg.NumSMs)
		snk.Attach(col)
		ml, sl = memlens.ForConfig(cfg), schedlens.ForConfig(cfg)
		opts = append(opts, WithObs(snk), WithConsumer(ml), WithConsumer(sl))
	}
	g, err := New(cfg, k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	r := &windowRun{}
	hp.Start()
	for !g.Done() && g.Instructions() < cfg.MaxInsts {
		if g.Cycle()%windowHashEvery == 0 {
			r.hashes = append(r.hashes, windowStateHash(g))
		}
		if g.skipping() {
			for _, sm := range g.sms {
				if sm.asleep(g.cycle) {
					r.skipped++
				}
			}
		}
		if err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	r.stats = st.Hash64()
	r.hashes = append(r.hashes, windowStateHash(g))
	r.skip = hp.Build(k.Abbr, "caps").Skip
	for i := range g.sms {
		r.smLedger = append(r.smLedger, *hp.SMProf(i))
	}
	if snk != nil {
		r.snap = snk.Snapshot()
		if r.prof, err = col.Build(profile.Meta{Bench: k.Abbr, Prefetcher: "caps", SMs: cfg.NumSMs}, st); err != nil {
			t.Fatal(err)
		}
		r.mem = ml.Build(memlens.Meta{Bench: k.Abbr, Prefetcher: "caps", Cycles: st.Cycles})
		r.sched = sl.Build(schedlens.Meta{Bench: k.Abbr, Prefetcher: "caps", Cycles: st.Cycles})
	}
	return r
}

// TestWindowSkipMatchesPerCycle is the differential for the per-SM
// fast-forward and its window settlement: leaving SMs unticked inside
// their full-sleep and stall-replay windows, and settling the skipped
// cycles in bulk, must be indistinguishable from ticking every SM on
// every cycle, and both from the plain per-cycle pipeline where no window
// opens — statistics, the checkpoint hash series, the capsprof stall
// stacks, the lens profiles and every metric — with no sink and with the
// lenses attached. The windowed run and the
// every-SM reference must also agree on the hostprof skip ledger. BFS and
// LPS spend most SM-cycles in stall-replay windows, JC1 and CNV mix them
// with full ticks, and MM and MRQ spend about a third of theirs in stall
// replay (MM) and full sleep (MRQ).
func TestWindowSkipMatchesPerCycle(t *testing.T) {
	for _, bench := range []string{"BFS", "LPS", "JC1", "CNV", "MM", "MRQ"} {
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			k, err := kernels.ByAbbr(bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, variant := range []string{"bare", "lensed"} {
				plain := runWindowed(t, k, variant, withoutFastForward())
				if w := plain.skip.FullSleepCycles + plain.skip.StallReplayCycles; w != 0 || plain.skipped != 0 {
					t.Fatalf("%s: the plain reference settled %d window cycles and skipped %d SM ticks", variant, w, plain.skipped)
				}
				ref := runWindowed(t, k, variant, withTickEverySM())
				got := runWindowed(t, k, variant)
				compareWindowed(t, variant, plain, ref, got)
			}
		})
	}
}

// compareWindowed holds one variant's every-SM reference (ref) and
// windowed run (got) to each other and to the plain run.
func compareWindowed(t *testing.T, variant string, plain, ref, got *windowRun) {
	t.Helper()
	if ref.skipped != 0 {
		t.Fatalf("%s: the reference skipped %d SM ticks", variant, ref.skipped)
	}
	if got.skipped == 0 {
		t.Errorf("%s: no SM tick was skipped; the differential exercises nothing", variant)
	}
	if got.skip != ref.skip || !reflect.DeepEqual(got.smLedger, ref.smLedger) {
		t.Errorf("%s: hostprof skip ledger differs\n got: %+v\nwant: %+v", variant, got.skip, ref.skip)
	}
	if ref.skip.FullSleepCycles+ref.skip.StallReplayCycles == 0 {
		t.Errorf("%s: no window cycles at all", variant)
	}
	for _, r := range []struct {
		side string
		run  *windowRun
	}{{"every-SM reference", ref}, {"windowed run", got}} {
		if r.run.stats != plain.stats {
			t.Errorf("%s: %s stats hash %#x, want %#x", variant, r.side, r.run.stats, plain.stats)
		}
		if !reflect.DeepEqual(r.run.hashes, plain.hashes) {
			t.Errorf("%s: %s checkpoint hash series differs (%d vs %d checkpoints)", variant, r.side, len(r.run.hashes), len(plain.hashes))
		}
		if !reflect.DeepEqual(r.run.snap, plain.snap) {
			t.Errorf("%s: %s metrics snapshot differs", variant, r.side)
		}
		if !reflect.DeepEqual(r.run.prof, plain.prof) {
			t.Errorf("%s: %s capsprof profile differs\n got: %v\nwant: %v", variant, r.side, stallStack(r.run.prof), stallStack(plain.prof))
		}
		if !reflect.DeepEqual(r.run.mem, plain.mem) || !reflect.DeepEqual(r.run.sched, plain.sched) {
			t.Errorf("%s: %s memlens or schedlens profile differs", variant, r.side)
		}
	}
}

func stallStack(p *profile.Profile) map[string]int64 {
	if p == nil {
		return nil
	}
	return p.StallStack
}

// TestFastForwardSeriesWithClampsActive holds the fast-forward to the
// plain pipeline at 4 SMs, under CAPS and without a prefetcher, with a
// 512-cycle beat and a cycle cap that cuts the run mid-flight: the state
// hash series up to the cap and the final statistics must be
// bit-identical, so windows still open at the cap settle exactly.
func TestFastForwardSeriesWithClampsActive(t *testing.T) {
	for _, c := range []struct {
		bench, pf string
		sched     config.SchedulerKind
	}{{"STE", "caps", config.SchedPAS}, {"MM", "caps", config.SchedPAS}, {"MM", "none", config.SchedTwoLevel}} {
		cfg := config.Default()
		cfg.NumSMs = 4
		cfg.Scheduler = c.sched
		cfg.MaxCycle = 12_000
		k, err := kernels.ByAbbr(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		series := func(opts ...Option) (hashes []uint64, stats uint64, skipped int) {
			g, err := New(cfg, k, append(opts, WithPrefetcher(c.pf), WithProgressEvery(512))...)
			if err != nil {
				t.Fatal(err)
			}
			for !g.Done() && g.Cycle() < cfg.MaxCycle {
				for _, sm := range g.sms {
					if g.skipping() && sm.asleep(g.cycle) {
						skipped++
					}
				}
				if err := g.Step(); err != nil {
					t.Fatal(err)
				}
				if g.Cycle()%512 == 0 {
					hashes = append(hashes, windowStateHash(g))
				}
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			return append(hashes, windowStateHash(g)), g.Stats().Hash64(), skipped
		}
		plain, plainStats, _ := series(withoutFastForward())
		got, gotStats, skipped := series()
		if skipped == 0 {
			t.Errorf("%s/%s: no SM tick was skipped; the comparison exercises nothing", c.bench, c.pf)
		}
		if gotStats != plainStats || !reflect.DeepEqual(got, plain) {
			t.Errorf("%s/%s: fast-forward diverged from the plain pipeline (stats %#x vs %#x, %d vs %d checkpoints)",
				c.bench, c.pf, gotStats, plainStats, len(got), len(plain))
		}
	}
}

// A window end that outlives its premise must not be settled silently:
// under the sanitizer the settled span's audit names the SM and the cycle.
// Each case opens a window by hand, the staleness a missed wake would
// leave behind, over an SM whose state breaks the window's premise: a
// full sleep over queued loads, and a stall replay facing free MSHRs (at
// the run's start the L1s are empty). A Step reports the breach when it
// ends the window; when the run stops one cycle into it, Close must.
func TestSanitizerCatchesStaleWindowEnd(t *testing.T) {
	sleep := func(sm *SM, end int64) { sm.idleUntil = end }
	stall := func(sm *SM, end int64) { sm.stallUntil = end }
	cases := []struct {
		name  string
		plant func(sm *SM, end int64)
		msg   string
		close bool // stop after one cycle and take Close's error
	}{
		{"full-sleep", sleep, "full-sleep window settled with queued", false},
		{"stall-replay", stall, "stall-replay window settled with a free MSHR", false},
		{"full-sleep at close", sleep, "full-sleep window settled with queued", true},
		{"stall-replay at close", stall, "stall-replay window settled with a free MSHR", true},
	}
	for _, c := range cases {
		cfg := config.Default()
		cfg.Scheduler = config.SchedPAS
		cfg.MaxInsts = 30_000
		cfg.CheckInvariants = true
		k, err := kernels.ByAbbr("BFS")
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(cfg, k, WithPrefetcher("caps"))
		if err != nil {
			t.Fatal(err)
		}
		var victim *SM
		for victim == nil {
			if err := g.Step(); err != nil {
				t.Fatalf("%s: clean prefix failed: %v", c.name, err)
			}
			for _, sm := range g.sms {
				if len(sm.lsuQ) > 0 && sm.l1.MSHRsFree() > 0 && !sm.asleep(g.cycle) {
					victim = sm
					break
				}
			}
		}
		// The window opens as trySleep would at the end of the last tick.
		planted, end := g.cycle, g.cycle+200
		victim.winFrom = planted
		c.plant(victim, end)
		if c.close {
			// The victim sleeps through this cycle, so only Close settles it.
			if err := g.Step(); err != nil {
				t.Fatalf("%s: the step into the window reported %v", c.name, err)
			}
			err = g.Close()
		} else {
			for i := 0; i < 400 && err == nil; i++ {
				err = g.Step()
			}
			g.Close()
		}
		var v *invariant.Violation
		if !errors.As(err, &v) {
			t.Fatalf("%s: stale window end planted at cycle %d went unreported (err %v)", c.name, planted, err)
		}
		if v.Component != victim.sanComp || v.Cycle < planted || v.Cycle >= end {
			t.Fatalf("%s: violation %v, want one from %s within the planted window [%d, %d)", c.name, err, victim.sanComp, planted, end)
		}
		if !strings.Contains(v.Msg, c.msg) {
			t.Fatalf("%s: violation %q does not name the breach (%q)", c.name, v.Msg, c.msg)
		}
	}
}
