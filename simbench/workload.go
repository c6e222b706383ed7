package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"caps/internal/config"
	"caps/internal/hostprof"
	"caps/internal/kernels"
	"caps/internal/memlens"
	"caps/internal/obs"
	"caps/internal/profile"
	"caps/internal/schedlens"
	"caps/internal/sim"
	"caps/internal/stats"
)

// spec is one simulation: a Table IV kernel under CAPS (caps prefetcher,
// PAS scheduler) or the baseline (no prefetcher, two-level scheduler).
type spec struct {
	Bench string
	Pref  string // "caps" or "none"
}

func (s spec) sched() string {
	if s.Pref == "caps" {
		return "pas"
	}
	return "tlv"
}

// key names the run the way the expected-digest file does.
func (s spec) key() string { return s.Bench + "-" + s.Pref + "-" + s.sched() }

// workload is one named set of runs plus the executor settings and
// attachments they share. WORKLOADS.md records why each exists.
type workload struct {
	Name     string
	Runs     []spec
	Workers  int
	IdleSkip bool
	// Lensed attaches capsprof, memlens, schedlens and hostprof to every
	// run and counts their Build+Validate in the measured time.
	Lensed bool
	// Probe is the subset the traced run's lens-overhead passes repeat.
	Probe []spec
}

func both(benches ...string) []spec {
	var out []spec
	for _, b := range benches {
		out = append(out, spec{b, "caps"}, spec{b, "none"})
	}
	return out
}

func capsOnly(benches ...string) []spec {
	var out []spec
	for _, b := range benches {
		out = append(out, spec{b, "caps"})
	}
	return out
}

var workloads = []workload{
	{Name: "sm_bound", Runs: both("CP", "CNV", "MM", "MRQ"), Workers: 1,
		Probe: capsOnly("CNV")},
	{Name: "mem_bound", Runs: both("BFS", "LPS", "JC1"), Workers: 1, IdleSkip: true,
		Probe: capsOnly("JC1")},
	{Name: "lensed", Runs: capsOnly("CNV", "BFS"), Workers: 1, IdleSkip: true, Lensed: true,
		Probe: capsOnly("CNV", "BFS")},
	{Name: "parallel", Runs: capsOnly("CNV", "MM"), Workers: 2, IdleSkip: true,
		Probe: capsOnly("MM")},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// order returns the workload's runs permuted by seed. The kernels are the
// fixed Table IV models and take no input seed; the seed decides only the
// order runs execute in, so no run always follows the same neighbour.
func (w workload) order(seed int64) []spec {
	out := append([]spec(nil), w.Runs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// attach selects what rides along one run.
type attach struct {
	sink, profile, memlens, schedlens, hostprof bool
	probed                                      bool // probed scheduler and prefetcher
	heap                                        bool // heap counters around GPU.Run
}

// attach is what the workload itself attaches to each of its runs.
func (w workload) attach() attach {
	if !w.Lensed {
		return attach{}
	}
	return attach{sink: true, profile: true, memlens: true, schedlens: true, hostprof: true}
}

// result is one finished run.
type result struct {
	spec spec
	st   stats.Sim

	kernelNS, newNS int64            // set-up: kernels.ByAbbr, sim.New
	simNS           int64            // GPU.Run
	buildNS         [numLenses]int64 // each lens's Build+Validate

	host         *hostprof.Profile
	coverageMiss bool // host profile outside hostprof's timing tolerance
	probes       probeTotals
	events       int64

	allocBytes uint64
	gcs        uint32
	err        error
}

func (r *result) buildTotalNS() int64 {
	var n int64
	for _, v := range r.buildNS {
		n += v
	}
	return n
}

// Lenses in the order their Build+Validate runs.
const (
	lensProfile = iota
	lensMemlens
	lensSchedlens
	lensHostprof
	numLenses
)

var lensNames = [numLenses]string{"profile", "memlens", "schedlens", "hostprof"}

// ctx carries what every run of one invocation shares.
type ctx struct {
	w       workload
	digests map[string]digest
	tr      *tracer // nil with tracing off
	clockNS float64
}

// built is a constructed, not yet run, simulation with its attachments.
type built struct {
	g                          *sim.GPU
	snk                        *obs.Sink
	col                        *profile.Collector
	ml                         *memlens.Collector
	sl                         *schedlens.Collector
	hp                         *hostprof.Profiler
	ps                         *probes
	kernelNS, lensNewNS, newNS int64
}

// build is the set-up of one run: kernel construction, lens constructors
// and sim.New, each timed.
func (c *ctx) build(s spec, a attach) (*built, error) {
	b := &built{}
	t0 := time.Now()
	k, err := kernels.ByAbbr(s.Bench)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	cfg := config.Default()
	var opts []sim.Option
	if a.sink || a.profile {
		b.snk = sim.NewSink(cfg, false, 0)
		opts = append(opts, sim.WithObs(b.snk))
	}
	if a.profile {
		b.col = profile.NewCollector(cfg.NumSMs)
		b.snk.Attach(b.col)
	}
	if a.memlens {
		b.ml = memlens.ForConfig(cfg)
		opts = append(opts, sim.WithMemLens(b.ml))
	}
	if a.schedlens {
		b.sl = schedlens.ForConfig(cfg)
		opts = append(opts, sim.WithSchedLens(b.sl))
	}
	if a.hostprof {
		b.hp = hostprof.New(hostprof.DefaultSampleEvery)
		opts = append(opts, sim.WithHostProf(b.hp))
	}
	t2 := time.Now()
	pf, sc := s.Pref, s.sched()
	if a.probed {
		pf, sc = probePrefix+pf, probePrefix+sc
		b.ps = &probes{}
		current = b.ps
		defer func() { current = nil }()
	}
	opts = append(opts, sim.WithPrefetcher(pf), sim.WithScheduler(config.SchedulerKind(sc)),
		sim.WithWorkers(c.w.Workers))
	if c.w.IdleSkip {
		opts = append(opts, sim.WithIdleSkip())
	}
	b.g, err = sim.New(cfg, k, opts...)
	if err != nil {
		return nil, err
	}
	b.kernelNS, b.lensNewNS, b.newNS = int64(t1.Sub(t0)), int64(t2.Sub(t1)), int64(time.Since(t2))
	return b, nil
}

// execute builds and runs one simulation, checks its digest and validates
// every attached lens. Any error or panic is returned in result.err; the
// caller counts it as a failed operation.
func (c *ctx) execute(s spec, a attach, parent int, label string) (r result) {
	r.spec = s
	span := c.tr.begin("run", parent, map[string]string{"run": s.key(), "pass": label})
	defer c.tr.end(span)
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("%s: panic: %v", s.key(), p)
		}
	}()

	setup := c.tr.begin("setup", span, nil)
	b, err := c.build(s, a)
	c.tr.end(setup)
	if err != nil {
		r.err = fmt.Errorf("%s: %w", s.key(), err)
		return r
	}
	r.kernelNS, r.newNS = b.kernelNS, b.newNS

	// Start every run from a collected heap, outside the timed span.
	runtime.GC()
	var m0, m1 runtime.MemStats
	if a.heap {
		runtime.ReadMemStats(&m0)
	}
	simSpan := c.tr.begin("simulate", span, nil)
	t0 := time.Now()
	st, err := b.g.Run()
	r.simNS = int64(time.Since(t0))
	c.tr.end(simSpan)
	if a.heap {
		runtime.ReadMemStats(&m1)
		r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		r.gcs = m1.NumGC - m0.NumGC
	}
	if st != nil {
		r.st = *st
	}
	if err == nil {
		err = c.check(s, st)
	}
	if err == nil {
		err = c.validate(span, s, b, &r)
	}
	if err != nil {
		r.err = fmt.Errorf("%s: %w", s.key(), err)
		return r
	}
	if b.ps != nil {
		r.probes = b.ps.totals(c.clockNS)
	}
	r.events = countEvents(b.snk)
	return r
}

// validate builds every attached lens's profile and validates it against
// the run's statistics, timing each Build+Validate under its own span.
func (c *ctx) validate(parent int, s spec, b *built, r *result) error {
	st := &r.st
	cycles := st.Cycles
	steps := []struct {
		lens int
		on   bool
		fn   func() error
	}{
		{lensProfile, b.col != nil, func() error {
			_, err := b.col.Build(profile.Meta{Bench: s.Bench, Prefetcher: s.Pref, Scheduler: s.sched(), SMs: len(b.g.SMs())}, st)
			return err
		}},
		{lensMemlens, b.ml != nil, func() error {
			return b.ml.Build(memlens.Meta{Bench: s.Bench, Prefetcher: s.Pref, Cycles: cycles}).Validate(st)
		}},
		{lensSchedlens, b.sl != nil, func() error {
			return b.sl.Build(schedlens.Meta{Bench: s.Bench, Prefetcher: s.Pref, Scheduler: s.sched(), Cycles: cycles}).Validate(st)
		}},
		{lensHostprof, b.hp != nil, func() error {
			r.host = b.hp.Build(s.Bench, s.Pref)
			return validateHost(r)
		}},
	}
	for _, step := range steps {
		if !step.on {
			continue
		}
		span := c.tr.begin("build_validate", parent, map[string]string{"lens": lensNames[step.lens]})
		t0 := time.Now()
		err := step.fn()
		r.buildNS[step.lens] = int64(time.Since(t0))
		c.tr.end(span)
		if err != nil {
			return fmt.Errorf("%s: %w", lensNames[step.lens], err)
		}
	}
	return nil
}

// validateHost applies hostprof.Validate at DefaultTolerance. Its exact
// invariants (phase buckets non-negative and summing to the run's
// wall-clock or estimate) fail the run. Its ±35% bound on extrapolated
// against measured time is a timing check: one sampled step that absorbs
// a host stall is multiplied by the sample period (a 19 ms stall on a
// 1.2 s CNV run gave coverage 2.01). A miss there says the run's host
// profile is unreliable, not that the simulation or the lens is wrong, so
// it is reported and counted in coverageMiss instead of failing the run.
func validateHost(r *result) error {
	err := r.host.Validate(hostprof.DefaultTolerance)
	if err == nil {
		return nil
	}
	if exact := r.host.Validate(math.MaxFloat64); exact != nil {
		return exact
	}
	r.coverageMiss = true
	fmt.Fprintf(os.Stderr, "simbench: warning: %s: %v\n", r.spec.key(), err)
	return nil
}

// setupOnce builds every run of the workload, with the workload's own
// attachments, without running it and returns the summed set-up time.
func (c *ctx) setupOnce(runs []spec) (time.Duration, error) {
	var total int64
	for _, s := range runs {
		b, err := c.build(s, c.w.attach())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.key(), err)
		}
		total += b.kernelNS + b.lensNewNS + b.newNS
		b.g.Close()
	}
	return time.Duration(total), nil
}

// countEvents sums the counters of a sink's metric snapshot: one count
// per event the simulator emitted.
func countEvents(snk *obs.Sink) int64 {
	var n int64
	for _, smp := range snk.Snapshot() {
		if smp.Kind == obs.SampleCounter {
			n += smp.Value
		}
	}
	return n
}
