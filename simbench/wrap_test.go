package main

import (
	"testing"

	"caps/internal/config"
	"caps/internal/hostprof"
	"caps/internal/kernels"
	"caps/internal/prefetch"
	"caps/internal/sched"
	"caps/internal/sim"
	"caps/internal/stats"
)

func testCtx(t *testing.T, w workload) *ctx {
	t.Helper()
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	return &ctx{w: w, digests: d, clockNS: clockCost()}
}

// The probes must forward every interface internal/sim asserts, or a
// fast-forward path silently turns off while digests stay equal.
func TestProbesForwardOptionalInterfaces(t *testing.T) {
	cfg := config.Default()
	for _, name := range probedScheds {
		sc, err := sched.New(probePrefix+name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sc.(fullScheduler); !ok {
			t.Errorf("%s: probe drops an optional scheduler interface", name)
		}
		if sc.Name() != name {
			t.Errorf("probe of %s is named %q", name, sc.Name())
		}
	}
	for _, name := range probedPrefs {
		inner, _ := prefetch.New(name, cfg, &stats.Sim{})
		pf, err := prefetch.New(probePrefix+name, cfg, &stats.Sim{})
		if err != nil {
			t.Fatal(err)
		}
		_, innerHas := inner.(prefExtras)
		_, probeHas := pf.(prefExtras)
		if innerHas != probeHas {
			t.Errorf("%s: inner has optional interfaces %v, probe %v", name, innerHas, probeHas)
		}
		if pf.Name() != name {
			t.Errorf("probe of %s is named %q", name, pf.Name())
		}
	}
}

// The traced run must leave the simulation and the fast-forward ledger
// exactly as a hostprof-only run has them.
func TestTracedRunKeepsDigestAndLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole kernels")
	}
	for _, w := range []workload{
		{Name: "serial", Workers: 1, IdleSkip: true},
		{Name: "parallel", Workers: 2, IdleSkip: true},
	} {
		c := testCtx(t, w)
		for _, s := range []spec{{"JC1", "caps"}, {"JC1", "none"}} {
			ref := c.execute(s, attach{hostprof: true}, 0, "hostprof")
			tr := c.execute(s, attach{hostprof: true, probed: true, heap: true}, 0, "traced")
			if ref.err != nil || tr.err != nil {
				t.Fatalf("%s/%s: %v / %v", w.Name, s.key(), ref.err, tr.err)
			}
			lr, lt := ledger(ref.host), ledger(tr.host)
			if lr != lt {
				t.Errorf("%s/%s: ledger %+v, hostprof-only %+v", w.Name, s.key(), lt, lr)
			}
			if lr.SleepCycles == 0 || lr.StallReplayCycles == 0 {
				t.Errorf("%s/%s: ledger %+v exercises no sleep or stall replay", w.Name, s.key(), lr)
			}
			if tr.probes.Picks == 0 || tr.probes.Loads == 0 {
				t.Errorf("%s/%s: probes saw no calls: %+v", w.Name, s.key(), tr.probes)
			}
		}
	}
}

// bareName is PAS behind a wrapper that hides every optional interface.
const bareName = "simbench-test-bare"

func init() {
	sched.Register(bareName, func(cfg config.GPUConfig) sched.Scheduler {
		inner, _ := sched.New("pas", cfg)
		return struct{ sched.Scheduler }{inner}
	})
}

// A wrapper that hides the optional interfaces keeps the digest but
// changes the ledger, which is why the ledger is compared at all.
func TestLedgerCatchesDroppedInterface(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole kernels")
	}
	c := testCtx(t, workload{Workers: 1, IdleSkip: true})
	s := spec{"JC1", "caps"}
	ref := c.execute(s, attach{hostprof: true}, 0, "ref")
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	k, err := kernels.ByAbbr(s.Bench)
	if err != nil {
		t.Fatal(err)
	}
	hp := hostprof.New(hostprof.DefaultSampleEvery)
	g, err := sim.New(config.Default(), k, sim.WithPrefetcher("caps"),
		sim.WithScheduler(bareName), sim.WithIdleSkip(), sim.WithHostProf(hp))
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.check(s, st); err != nil {
		t.Fatalf("hiding interfaces changed the simulation: %v", err)
	}
	if got := ledger(hp.Build(s.Bench, s.Pref)); got == ledger(ref.host) {
		t.Fatalf("ledger %+v unchanged with every optional interface hidden", got)
	}
}
