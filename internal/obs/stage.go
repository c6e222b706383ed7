package obs

// Event staging for the parallel SM phase (sim.WithWorkers). While SMs
// tick concurrently, every DomSM hook parks its event in a per-SM lane
// instead of touching the shared sink state (counters, histograms, the
// trace buffer, consumers); the commit phase then replays the lanes in
// fixed SM order with staging off. Replay re-enters the public hook
// methods, so counters, histograms, trace and consumers see exactly the
// byte-identical event sequence a serial tick would have produced:
// SM 0's full tick, then SM 1's, and so on. Workers write only their own
// SMs' lanes, so the staged appends are race-free without locks.

// stageState holds the per-SM staging lanes. Lanes keep their capacity
// across cycles (reset to length zero on replay), so steady-state staging
// allocates nothing.
type stageState struct {
	on  bool
	ev  [][]Event // staged events, one lane per SM
	lat [][]int64 // staged DemandLatency observations, one lane per SM
}

// EnableStaging arms staging support (idempotent, nil-safe). The GPU calls
// it once at construction when workers > 1; without it every hook stays on
// its zero-overhead serial path.
func (s *Sink) EnableStaging() {
	if s == nil || s.stage != nil {
		return
	}
	s.stage = &stageState{
		ev:  make([][]Event, len(s.sm)),
		lat: make([][]int64, len(s.sm)),
	}
}

// StageBegin diverts DomSM hooks into the staging lanes until StageEnd.
// Call only from the simulation goroutine, before the SM fan-out.
func (s *Sink) StageBegin() {
	if s != nil && s.stage != nil {
		s.stage.on = true
	}
}

// StageEnd returns the sink to direct emission (the commit phase replays
// with staging off, so replayed hooks reach counters and consumers).
func (s *Sink) StageEnd() {
	if s != nil && s.stage != nil {
		s.stage.on = false
	}
}

// StageReplay drains one SM's staged lane in emission order, re-running
// each hook against the live sink, and resets the lane for the next cycle.
// The commit phase calls it once per SM in ascending SM order.
func (s *Sink) StageReplay(sm int) {
	if s == nil || s.stage == nil || sm < 0 || sm >= len(s.stage.ev) {
		return
	}
	st := s.stage
	evs := st.ev[sm]
	for i := range evs {
		s.applyEvent(evs[i])
	}
	st.ev[sm] = evs[:0]
	for _, l := range st.lat[sm] {
		s.demandLat.Observe(l)
	}
	st.lat[sm] = st.lat[sm][:0]
}

// stageEvent parks a DomSM event in its SM's lane and reports true, or
// reports false when the sink is not currently staging (or the event is
// not track-addressable) and the caller should emit directly.
//
//caps:shared-sync obs-stage
func (s *Sink) stageEvent(e Event) bool {
	st := s.stage
	if st == nil || !st.on || e.Dom != DomSM {
		return false
	}
	t := int(e.Track)
	if t < 0 || t >= len(st.ev) {
		return false
	}
	st.ev[t] = append(st.ev[t], e) //caps:alloc-ok staging lanes retain capacity across cycles; bounded by one SM tick's event volume
	return true
}

// stageLatency parks one DemandLatency observation; same contract as
// stageEvent.
//
//caps:shared-sync obs-stage
func (s *Sink) stageLatency(sm int, lat int64) bool {
	st := s.stage
	if st == nil || !st.on || sm < 0 || sm >= len(st.lat) {
		return false
	}
	st.lat[sm] = append(st.lat[sm], lat) //caps:alloc-ok staging lanes retain capacity across cycles; bounded by one SM tick's fill volume
	return true
}

// applyEvent re-runs the hook a staged event came from. The Event fields
// are a faithful union of every DomSM hook's parameters (see Event), so
// dispatching on Kind reconstructs the original call exactly.
func (s *Sink) applyEvent(e Event) {
	c, t := e.Cycle, int(e.Track)
	switch e.Kind {
	case EvCTALaunch:
		s.CTALaunch(c, t, int(e.CTA))
	case EvCTAFinish:
		s.CTAFinish(c, t, int(e.CTA))
	case EvWarpDispatch:
		s.WarpDispatch(c, t, int(e.Warp), int(e.CTA))
	case EvWarpStallBegin:
		s.WarpStallBegin(c, t, int(e.Warp))
	case EvWarpStallEnd:
		s.WarpStallEnd(c, t, int(e.Warp))
	case EvWarpBarrier:
		s.WarpBarrier(c, t, int(e.Warp), int(e.CTA))
	case EvWarpFinish:
		s.WarpFinish(c, t, int(e.Warp))
	case EvSchedPromote:
		s.SchedPromote(c, t, int(e.Warp))
	case EvSchedDemote:
		s.SchedDemote(c, t, int(e.Warp))
	case EvSchedWakeup:
		s.SchedWakeup(c, t, int(e.Warp))
	case EvPickOutcome:
		s.PickOutcome(c, t, int(e.Warp), PickOutcome(e.Arg))
	case EvCTAPhase:
		s.CTAPhase(c, t, int(e.CTA), CTAPhase(e.Arg))
	case EvTableOp:
		s.TableOp(c, t, int(e.CTA), e.PC, TableOp(e.Arg))
	case EvDistAlloc:
		s.DistAlloc(c, t, e.PC)
	case EvPerCTAFill:
		s.PerCTAFill(c, t, int(e.CTA), e.PC)
	case EvPrefCandidate:
		s.PrefCandidate(c, t, int(e.Warp), int(e.CTA), e.PC, e.Addr, int(e.Val))
	case EvPrefDrop:
		s.PrefDrop(c, t, int(e.CTA), e.PC, e.Addr, DropReason(e.Arg))
	case EvPrefAdmit:
		s.PrefAdmit(c, t, int(e.Warp), int(e.CTA), e.PC, e.Addr)
	case EvPrefFill:
		s.PrefFill(c, t, int(e.Warp), e.PC, e.Addr)
	case EvPrefConsume:
		s.PrefConsume(c, t, int(e.Warp), int(e.CTA), e.PC, e.Addr, e.Val)
	case EvPrefLate:
		s.PrefLate(c, t, e.PC, e.Addr)
	case EvPrefEarlyEvict:
		s.PrefEarlyEvict(c, t, e.PC, e.Addr)
	case EvMSHRAlloc:
		s.MSHRAlloc(c, e.Dom, t, e.Addr, e.Arg == 1)
	case EvMSHRMerge:
		s.MSHRMerge(c, e.Dom, t, e.Addr)
	case EvMSHRConvert:
		s.MSHRConvert(c, t, e.Addr)
	case EvResFail:
		s.ResFail(c, e.Dom, t, e.Addr, e.Arg == 1)
	case EvLoadIssue:
		s.LoadIssue(c, t, int(e.Warp), int(e.CTA), int(e.Val), e.PC, e.Addr, e.Arg == 1)
	case EvMemAccess:
		class, pref := UnpackAccess(e.Arg)
		s.MemAccess(c, e.Dom, t, int(e.Warp), int(e.CTA), e.PC, e.Addr, class, pref)
	case EvCycleClass:
		s.CycleClass(c, t, CycleClass(e.Arg))
	}
}
