package sim

import (
	"caps/internal/config"
	"caps/internal/flight"
)

// NewFlightRecorder sizes a flight recorder for a configuration: one ring
// per SM, memory partition and DRAM channel, at the package default depths.
func NewFlightRecorder(cfg config.GPUConfig) *flight.Recorder {
	return flight.NewRecorder(flight.RecorderConfig{
		SMs:        cfg.NumSMs,
		Partitions: cfg.NumPartitions,
		Channels:   cfg.DRAM.Channels,
	})
}

// schedQueues is implemented by schedulers that expose their ready/pending
// queues (TwoLevel); the snapshot degrades gracefully for ones that don't.
type schedQueues interface {
	ReadySlots() []int
	PendingSlots() []int
}

// DumpNow builds a black box from the attached flight recorder: header,
// machine-state snapshot, and the ring-buffer event window (stall pairs
// repaired). It returns nil when no recorder is attached. Run calls it on
// every abort path; tests and the divergence localizer call it directly.
func (g *GPU) DumpNow(reason flight.Reason, msg string) *flight.Dump {
	if g.flight == nil {
		return nil
	}
	g.settle()
	h := flight.Header{
		Reason:       reason,
		Message:      msg,
		Cycle:        g.cycle,
		Instructions: g.st.Instructions,
		Bench:        g.kernel.Abbr,
		Prefetcher:   g.prefName,
		Scheduler:    string(g.cfg.Scheduler),
		SMs:          g.cfg.NumSMs,
		Partitions:   g.cfg.NumPartitions,
		Channels:     g.cfg.DRAM.Channels,
		Machine:      g.machineState(),
	}
	return flight.Build(h, g.flight)
}

// emitDump is the internal abort hook: build the dump and hand it to the
// run's OnDump callback, if any.
func (g *GPU) emitDump(reason flight.Reason, msg string) {
	d := g.DumpNow(reason, msg)
	if d != nil && g.onDump != nil {
		g.onDump(d)
	}
}

// machineState snapshots what a post-mortem needs from every SM: per-warp
// scheduler state, MSHR occupancy and queue depths at the moment of death.
func (g *GPU) machineState() *flight.MachineState {
	ms := &flight.MachineState{Cycle: g.cycle, Instructions: g.st.Instructions}
	ms.SMs = make([]flight.SMSnapshot, len(g.sms))
	for i, sm := range g.sms {
		ms.SMs[i] = sm.snapshot()
	}
	return ms
}

// snapshot captures one SM's queue depths, MSHR occupancy, scheduler
// queues and live warp contexts.
func (sm *SM) snapshot() flight.SMSnapshot {
	s := flight.SMSnapshot{
		ID:            sm.id,
		LiveWarps:     sm.liveWarps,
		ActiveCTAs:    sm.activeCTAs,
		LSUQueue:      len(sm.lsuQ),
		StoreQueue:    len(sm.storeQ),
		PrefQueue:     len(sm.prefQ),
		MSHRs:         sm.l1.OutstandingMSHRs(),
		PrefetchMSHRs: sm.l1.PrefetchMSHRs(),
		MissQueue:     sm.l1.MissQueueLen(),
	}
	if q, ok := sm.sched.(schedQueues); ok {
		s.ReadyQueue = q.ReadySlots()
		s.PendingQueue = q.PendingSlots()
	}
	for i := range sm.warps {
		w := &sm.warps[i]
		if !w.active && !w.finished {
			continue
		}
		s.Warps = append(s.Warps, flight.WarpSnapshot{
			Slot:        w.slot,
			CTA:         w.ctaID,
			PC:          int(w.pc),
			Outstanding: w.outstanding,
			BusyUntil:   w.busyUntil,
			WaitLoad:    w.waitLoad,
			AtBarrier:   w.atBarrier,
			Finished:    w.finished,
		})
	}
	return s
}

// PerturbedAt reports the cycle at which the one-shot prefetch perturbation
// (WithPerturbPrefetchAt) actually fired on SM 0, or 0 if it has not.
// Divergence-localizer tests compare it against the bisected cycle.
func (g *GPU) PerturbedAt() int64 { return g.sms[0].perturbedAt }
