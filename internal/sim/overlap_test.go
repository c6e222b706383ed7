package sim

import (
	"fmt"
	"runtime"
	"testing"

	"caps/internal/config"
	"caps/internal/hostprof"
	"caps/internal/kernels"
)

// withSerial keeps Run on Step alone (options.serial): the reference the
// overlapped run is held to.
func withSerial() Option { return func(o *options) { o.serial = true } }

// spareProcs gives the test's runs a processor for their memory domain,
// restoring GOMAXPROCS when the test ends.
func spareProcs(t *testing.T) {
	t.Helper()
	if p := runtime.GOMAXPROCS(0); p < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(p) })
	}
}

// outcome is what a run leaves behind: its statistics, its final state
// hash (statistics, every SM, L1 and L2 slice, and the cycle), its cycle
// and instruction counts, and whether it overlapped.
type outcome struct {
	stats, state  uint64
	cycles, insts int64
	overlapped    bool
}

// runOutcome runs k to cfg's caps under prefetcher pf and opts.
func runOutcome(t *testing.T, cfg config.GPUConfig, k *kernels.Kernel, pf string, opts ...Option) outcome {
	t.Helper()
	if pf == "caps" {
		cfg.Scheduler = config.SchedPAS
	}
	g, err := New(cfg, k, append(opts, WithPrefetcher(pf))...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run()
	if err != nil {
		t.Fatalf("%s/%s: %v", k.Abbr, pf, err)
	}
	return outcome{stats: st.Hash64(), state: windowStateHash(g), cycles: g.Cycle(), insts: g.Instructions(), overlapped: g.Overlapped()}
}

// checkOverlap holds an overlapped run of k to the serial reference.
func checkOverlap(t *testing.T, name string, cfg config.GPUConfig, k *kernels.Kernel, pf string) {
	t.Helper()
	ref := runOutcome(t, cfg, k, pf, withSerial())
	got := runOutcome(t, cfg, k, pf)
	if ref.overlapped {
		t.Errorf("%s: the serial reference overlapped", name)
	}
	if !got.overlapped {
		t.Errorf("%s: Run did not overlap an unobserved run with a spare processor", name)
	}
	got.overlapped = ref.overlapped
	if got != ref {
		t.Errorf("%s: overlapped run %+v, serial %+v", name, got, ref)
	}
}

// The overlapped Run must reproduce Step exactly: statistics, cycles,
// instructions and the final machine state, on every kernel, on tiny
// interconnect queues that keep request pushes waiting on the memory
// domain, at the shortest band Run overlaps at, and under caps that stop
// the SMs inside the band.
func TestConcurrentRunMatchesSerial(t *testing.T) {
	spareProcs(t)
	cfg := config.Default()
	cfg.MaxInsts = 20_000
	for _, k := range kernels.All() {
		for _, pf := range []string{"caps", "none"} {
			checkOverlap(t, k.Abbr+"/"+pf, cfg, k, pf)
		}
	}

	for _, abbr := range []string{"BFS", "MM"} {
		k, err := kernels.ByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		for _, lat := range []int{overlapMinLatency, 150} {
			for q := 1; q <= 4; q++ {
				tiny := config.Default()
				tiny.MaxInsts = 8_000
				tiny.ICNTLatency, tiny.ICNTQueue = lat, q
				checkOverlap(t, fmt.Sprintf("%s latency %d queue %d", abbr, lat, q), tiny, k, "caps")
			}
		}
	}

	k, err := kernels.ByAbbr("BFS")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ insts, cycles int64 }{{0, 100}, {0, 3001}, {0, 20_011}, {12_345, 0}, {777, 0}} {
		capped := config.Default()
		capped.MaxInsts, capped.MaxCycle = c.insts, c.cycles
		checkOverlap(t, fmt.Sprintf("BFS insts cap %d cycle cap %d", c.insts, c.cycles), capped, k, "caps")
	}
}

// A run that ends its overlap part-way, as Run does once the process runs
// out of spare processors, must continue on Step exactly.
func TestOverlapEndsMidRun(t *testing.T) {
	spareProcs(t)
	cfg := config.Default()
	cfg.MaxInsts = 20_000
	k, err := kernels.ByAbbr("BFS")
	if err != nil {
		t.Fatal(err)
	}
	ref := runOutcome(t, cfg, k, "none", withSerial())

	g, err := New(cfg, k, WithPrefetcher("none"))
	if err != nil {
		t.Fatal(err)
	}
	busy.Add(1) // the Run this test stands in for
	if !g.overlap() {
		t.Fatal("overlap declined an unobserved run with a spare processor")
	}
	for g.cycle < 5_003 {
		if err := g.dom.Step(); err != nil {
			t.Fatal(err)
		}
	}
	err = g.endOverlap()
	busy.Add(-1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := outcome{stats: st.Hash64(), state: windowStateHash(g), cycles: g.Cycle(), insts: g.Instructions()}
	ref.overlapped = false
	if got != ref {
		t.Errorf("run that ended its overlap at cycle 5003: %+v, serial %+v", got, ref)
	}
}

// Only an unobserved run with a spare processor and a long enough band
// overlaps; everything else takes the serial path.
func TestOverlapGating(t *testing.T) {
	spareProcs(t)
	cfg := config.Default()
	cfg.MaxInsts = 2_000
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	overlaps := func(cfg config.GPUConfig, opts ...Option) bool {
		t.Helper()
		g, err := New(cfg, k, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return g.Overlapped()
	}
	if !overlaps(cfg) {
		t.Fatal("an unobserved run did not overlap")
	}
	short, sanitized := cfg, cfg
	short.ICNTLatency = overlapMinLatency - 1
	sanitized.CheckInvariants = true
	for name, c := range map[string]struct {
		cfg  config.GPUConfig
		opts []Option
	}{
		"metrics sink":      {cfg, []Option{WithObs(NewSink(cfg, false, 0))}},
		"host profiler":     {cfg, []Option{WithHostProf(hostprof.New(hostprof.DefaultSampleEvery))}},
		"flight recorder":   {cfg, []Option{WithFlight(NewFlightRecorder(cfg))}},
		"sanitizer":         {sanitized, nil},
		"band below floor":  {short, nil},
		"serial reference":  {cfg, []Option{withSerial()}},
		"plain pipeline":    {cfg, []Option{withoutFastForward()}},
		"every-SM ticks":    {cfg, []Option{withTickEverySM()}},
		"every-slice ticks": {cfg, []Option{withTickEveryPartition()}},
	} {
		if overlaps(c.cfg, c.opts...) {
			t.Errorf("%s: the run overlapped", name)
		}
	}

	prev := runtime.GOMAXPROCS(1)
	if overlaps(cfg) {
		t.Error("GOMAXPROCS=1: the run overlapped")
	}
	runtime.GOMAXPROCS(prev)

	// Another run already keeps every other processor busy.
	others := int32(runtime.GOMAXPROCS(0) - 1)
	busy.Add(others)
	if overlaps(cfg) {
		t.Error("no spare processor: the run overlapped")
	}
	busy.Add(-others)
}
