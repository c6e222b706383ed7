package telemetry

import (
	"caps/internal/hostprof"
	"caps/internal/obs"
)

// RunProgress is the periodic obs.Consumer feeding the hub: it ignores
// every event except the simulator's liveness beat (obs.EvProgress, one per
// ~8K cycles), on which it snapshots the run's registry — safely, since
// Consume executes on the simulation goroutine that owns the registry — and
// publishes position plus metrics to the hub. Attach one per run before the
// first simulated cycle.
//
// When the run carries a host profiler (sim.WithHostProf), attach it with
// AttachHostProf: each beat then also publishes live host-time stats (wall
// clock, cycles/sec, worker utilization). Reading the
// profiler here is safe for the same reason the registry snapshot is — the
// beat executes between steps on the simulation goroutine, after the
// barrier has ordered every worker write. Without the profiler reference
// the consumer still forwards the beat's EvHostTime wall-clock stamp.
type RunProgress struct {
	hub    *Hub
	meta   RunMeta
	reg    *obs.Registry
	hp     *hostprof.Profiler
	wallNS int64
}

// NewRunProgress builds the consumer for one run. reg may be nil (progress
// only, no metric snapshots).
func NewRunProgress(hub *Hub, meta RunMeta, reg *obs.Registry) *RunProgress {
	return &RunProgress{hub: hub, meta: meta, reg: reg}
}

// AttachHostProf enables live host-time stats on every beat. Pass the
// same profiler handed to sim.WithHostProf.
func (p *RunProgress) AttachHostProf(hp *hostprof.Profiler) { p.hp = hp }

var _ obs.Consumer = (*RunProgress)(nil)

// Consume implements obs.Consumer.
func (p *RunProgress) Consume(e obs.Event) {
	switch e.Kind {
	case obs.EvHostTime:
		p.wallNS = e.Val
		return
	case obs.EvProgress:
	default:
		return
	}
	if p.hub == nil {
		return
	}
	var samples []obs.Sample
	if p.reg != nil {
		samples = p.reg.Snapshot()
	}
	var live *hostprof.Live
	if p.hp != nil {
		l := p.hp.LiveStats(e.Cycle)
		live = &l
	} else if p.wallNS > 0 {
		l := hostprof.Live{WallNS: p.wallNS}
		if e.Cycle > 0 {
			l.CyclesPerSec = int64(float64(e.Cycle) / (float64(p.wallNS) / 1e9))
		}
		live = &l
	}
	p.hub.PublishLive(p.meta, e.Cycle, e.Val, live, samples)
}
