// Package flight is the simulator's black-box recorder: an always-on,
// allocation-free set of per-unit ring buffers holding the last N
// observability events, dumped to a decodable JSONL file when a run dies
// (invariant violation, panic, forward-progress watchdog, SIGQUIT). Where
// the obs.Trace buffer answers "what happened over the whole run" for runs
// that finish, the flight recorder answers "what happened in the cycles
// that mattered" for runs that don't — the window right before the abort,
// plus a machine-state snapshot (per-warp scheduler state, MSHR occupancy,
// queue depths) taken at the moment of death.
//
// The recorder is an obs.Consumer: it attaches to the run's sink and folds
// every event into a preallocated ring keyed by (domain, track), so steady
// state costs one index computation and one struct store per event — no
// allocation, no branch on buffer growth. Rings overwrite oldest-first;
// the dump records how many events each timeline lost.
package flight

import (
	"sort"

	"caps/internal/obs"
)

// Ring sizing defaults: SM tracks carry the densest timelines (prefetch
// lifecycle + warp transitions), partitions and DRAM channels are sparser,
// and the run track only sees the periodic progress beat. Sizes trade the
// dump window against the recorder's fixed footprint (the rings are
// preallocated per run); the defaults keep a full-size machine under two
// megabytes.
const (
	DefaultPerSM   = 1024
	DefaultPerPart = 512
	DefaultPerChan = 256
	DefaultPerRun  = 256
)

// RecorderConfig sizes a Recorder for one GPU.
type RecorderConfig struct {
	SMs        int
	Partitions int
	Channels   int

	// PerSM/PerPart/PerChan/PerRun bound each timeline's ring (events);
	// the package defaults apply when <= 0.
	PerSM   int
	PerPart int
	PerChan int
	PerRun  int

	// KeepCycleClass retains EvCycleClass events (one per SM per cycle).
	// Off by default: at full rate they would flush every lifecycle event
	// out of an SM ring within PerSM cycles.
	KeepCycleClass bool
}

func (c *RecorderConfig) fill() {
	if c.PerSM <= 0 {
		c.PerSM = DefaultPerSM
	}
	if c.PerPart <= 0 {
		c.PerPart = DefaultPerPart
	}
	if c.PerChan <= 0 {
		c.PerChan = DefaultPerChan
	}
	if c.PerRun <= 0 {
		c.PerRun = DefaultPerRun
	}
	// Ring capacities are rounded up to powers of two so the hot-path
	// index is a mask, not a division.
	c.PerSM = ceilPow2(c.PerSM)
	c.PerPart = ceilPow2(c.PerPart)
	c.PerChan = ceilPow2(c.PerChan)
	c.PerRun = ceilPow2(c.PerRun)
}

func ceilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// ring is one timeline's bounded history. buf is preallocated at
// construction (power-of-two length, indexed by mask); n counts every
// event ever appended, so n - len(buf) (when positive) is the number of
// overwritten events.
type ring struct {
	buf  []obs.Event
	mask int64
	n    int64
}

func (r *ring) append(e obs.Event) {
	r.buf[r.n&r.mask] = e
	r.n++
}

// events returns the ring's contents oldest-first.
func (r *ring) events(out []obs.Event) []obs.Event {
	size := int64(len(r.buf))
	if r.n <= size {
		return append(out, r.buf[:r.n]...)
	}
	start := r.n % size
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}

func (r *ring) overwritten() int64 {
	if over := r.n - int64(len(r.buf)); over > 0 {
		return over
	}
	return 0
}

// Recorder is the in-memory flight recorder. It is not safe for concurrent
// use; like every obs.Consumer it runs on the simulation goroutine.
type Recorder struct {
	cfg  RecorderConfig
	sm   []ring
	part []ring
	ch   []ring
	run  ring // track -1 (EvProgress) and anything without a unit track
}

// NewRecorder builds a recorder with every ring preallocated, carved out
// of one flat backing array (a single allocation for the whole recorder).
func NewRecorder(cfg RecorderConfig) *Recorder {
	cfg.fill()
	r := &Recorder{cfg: cfg}
	total := cfg.SMs*cfg.PerSM + cfg.Partitions*cfg.PerPart + cfg.Channels*cfg.PerChan + cfg.PerRun
	backing := make([]obs.Event, total)
	r.sm, backing = makeRings(backing, cfg.SMs, cfg.PerSM)
	r.part, backing = makeRings(backing, cfg.Partitions, cfg.PerPart)
	r.ch, backing = makeRings(backing, cfg.Channels, cfg.PerChan)
	r.run.buf = backing[:cfg.PerRun:cfg.PerRun]
	r.run.mask = int64(cfg.PerRun) - 1
	return r
}

func makeRings(backing []obs.Event, n, per int) ([]ring, []obs.Event) {
	rs := make([]ring, n)
	for i := range rs {
		rs[i].buf = backing[:per:per]
		rs[i].mask = int64(per) - 1
		backing = backing[per:]
	}
	return rs, backing
}

// Consume implements obs.Consumer: route the event to its unit's ring.
// This is the recorder's hot path — no allocation, no map, one store.
func (r *Recorder) Consume(e obs.Event) {
	t := int(e.Track)
	switch {
	case t < 0:
		r.run.append(e)
	case e.Dom == obs.DomSM && t < len(r.sm):
		r.sm[t].append(e)
	case e.Dom == obs.DomPart && t < len(r.part):
		r.part[t].append(e)
	case e.Dom == obs.DomDRAM && t < len(r.ch):
		r.ch[t].append(e)
	}
}

// WantsKind implements obs.KindFilter: unless configured to keep them,
// the recorder declines EvCycleClass, so the sink never constructs the
// per-SM-per-cycle events at all — that stream alone would otherwise
// dominate the recorder's overhead. Every other kind is kept.
func (r *Recorder) WantsKind(k obs.Kind) bool {
	return k != obs.EvCycleClass || r.cfg.KeepCycleClass
}

var (
	_ obs.Consumer   = (*Recorder)(nil)
	_ obs.KindFilter = (*Recorder)(nil)
)

// Config returns the recorder's (default-filled) configuration.
func (r *Recorder) Config() RecorderConfig { return r.cfg }

// Events merges every ring oldest-first and sorts the result by cycle
// (stable, so same-cycle events keep each ring's emission order and every
// per-track subsequence stays cycle-monotonic). Called at dump time only.
func (r *Recorder) Events() []obs.Event {
	total := 0
	for _, rs := range [][]ring{r.sm, r.part, r.ch} {
		for i := range rs {
			n := rs[i].n
			if max := int64(len(rs[i].buf)); n > max {
				n = max
			}
			total += int(n)
		}
	}
	out := make([]obs.Event, 0, total+len(r.run.buf))
	for _, rs := range [][]ring{r.sm, r.part, r.ch} {
		for i := range rs {
			out = rs[i].events(out)
		}
	}
	out = r.run.events(out)
	sortEventsByCycle(out)
	return out
}

// Overwritten returns the total number of events lost to ring wraparound
// across all timelines.
func (r *Recorder) Overwritten() int64 {
	var total int64
	for _, rs := range [][]ring{r.sm, r.part, r.ch} {
		for i := range rs {
			total += rs[i].overwritten()
		}
	}
	return total + r.run.overwritten()
}

// sortEventsByCycle orders a concatenation of per-ring (already
// cycle-ordered) runs globally by cycle. Stability preserves each ring's
// emission order for same-cycle events, which keeps every per-track
// subsequence monotonic — the invariant the Chrome exporter's validator
// checks.
func sortEventsByCycle(ev []obs.Event) {
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].Cycle < ev[j].Cycle })
}
