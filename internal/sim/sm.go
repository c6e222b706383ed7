package sim

import (
	"fmt"
	"math"

	"caps/internal/config"
	"caps/internal/hostprof"
	"caps/internal/invariant"
	"caps/internal/kernels"
	"caps/internal/mem"
	"caps/internal/obs"
	"caps/internal/prefetch"
	"caps/internal/sched"
	"caps/internal/stats"
)

// lsuGroup is one issued load instruction waiting to present its coalesced
// accesses to L1, one access per cycle.
type lsuGroup struct {
	warp  *warpState
	addrs []uint64
	idx   int
	pc    uint32
}

const (
	lsuQueueCap    = 16   // pending load groups
	prefQueueCap   = 128  // pending prefetch candidates
	prefTTL        = 2000 // cycles before a queued candidate goes stale
	prefPerCycle   = 4    // prefetch admissions per cycle
	prefWaysPerSet = 1    // max unconsumed prefetched lines per L1 set
	storeQueueCap  = 16
	respPerCycle   = 4 // fills accepted per cycle
)

// SM is one streaming multiprocessor.
type SM struct {
	id  int
	cfg config.GPUConfig
	st  *stats.Sim

	kernel      *kernels.Kernel
	warpsPerCTA int
	ctaSlots    int

	warps []warpState
	ctas  []ctaState

	// gate is the warps' dense issue gate: gate[slot] is the warp's
	// busyUntil while it can issue, and gateNever while it is inactive,
	// finished, at a barrier or waiting on a load. Eligible, Blocked and
	// the fast-forward bound scans read only the gate; every write to a
	// field it derives from is followed by regate.
	gate []int64

	sched sched.Scheduler
	pref  prefetch.Prefetcher
	l1    *mem.Cache
	ic    *mem.Interconnect

	lsuQ   []*lsuGroup
	prefQ  []prefetch.Candidate
	prefIn map[uint64]bool // lines queued in prefQ
	storeQ []*mem.Request

	// reqFree and lsuFree recycle the SM's own request and LSU-group
	// objects so the steady-state Tick path allocates nothing: every fill
	// waiter returned by acceptResponses is a demand or prefetch request
	// this SM created, and an LSU group dies when its last coalesced
	// access retires. Store requests are the exception — they retire
	// inside the memory partition and never come back.
	reqFree []*mem.Request
	lsuFree []*lsuGroup

	activeCTAs int
	liveWarps  int

	// snk is the observability sink (nil when disabled; every call is
	// nil-safe). schedClock, when the scheduler supports it, receives the
	// current cycle at the top of each Tick so scheduler-internal events
	// are stamped correctly even when they fire before Pick.
	snk        *obs.Sink
	schedClock obsClock

	// onCTADone is invoked when a CTA completes so the GPU can dispatch
	// the next one (demand-driven distribution).
	onCTADone func(smID int)

	// staged redirects this tick's cross-SM effects into per-SM lanes for
	// the parallel Step's commit phase: interconnect pushes land in icLane
	// and CTA-completion dispatch requests are counted in stagedDispatch,
	// both drained in fixed SM order after the barrier (see parallel.go).
	// Off (the default) on the serial path, so nothing changes there.
	staged         bool
	icLane         []*mem.Request
	stagedDispatch int

	// memStallEv latches "a memory structural stall happened this cycle"
	// (LSU replay after a reservation fail, or a full LSU/store queue) so
	// cycle classification can separate structural stalls from an
	// empty-ready-queue wait. Reset at the top of every Tick.
	memStallEv bool

	// sanitize enables the per-cycle invariant audit (internal/invariant);
	// sanComp and sanSlots are preallocated so the audit itself stays off
	// the allocator's hot path.
	sanitize bool
	sanComp  string
	sanSlots []int
	sanNext  int64

	// idleSkipOn enables the per-SM sleep fast paths (set when the run was
	// built WithIdleSkip). Two cached verdicts, both derived state that is
	// recomputed on wake and excluded from state hashes:
	//
	// idleUntil caches trySleep's full-sleep verdict from the last full
	// tick (issueBound plus empty LSU/store/prefetch/miss queues): for
	// every cycle strictly below it the whole tick pipeline is provably a
	// no-op unless a fill arrives, so the cycle only settles (settle) and
	// the GPU need not tick the SM at all. sleepClass is the stall-stack
	// class each slept cycle records — constant across the window because
	// nothing in its inputs changes on a no-op cycle.
	//
	// issueIdleUntil caches the weaker issueBound verdict (quiescent
	// scheduler, no warp eligible before that cycle): the memory pipes
	// still tick — an LSU head replaying reservation fails, stores and
	// misses draining — but the issue stage is provably a failed Pick, so
	// Tick skips the scheduler scan and records the stall directly. The
	// Quiescer contract makes the skipped Pick a true no-op.
	//
	// stallUntil caches the structural-stall replay verdict (tryStallReplay):
	// for every cycle strictly below it the whole tick is the one stall
	// pattern that dominates memory-saturated phases — the LSU head replays
	// a reservation fail against a full MSHR file while every warp the
	// scheduler can pick sits at a load the full LSU queue rejects. settle
	// applies any number of such cycles' exact deltas (two counters, the
	// ResFail count, the stall-cycle and stall-class accounting, and the
	// scheduler-cursor evolution via sched.StallRunner) in O(1) instead of
	// running the pipeline. stallPicks distinguishes the flavor where Picks succeed and
	// fail in execute (IssueWidth extra MemStalls plus cursor movement) from
	// the one where every Pick returns -1; stallSched is the scheduler's
	// StallRunner, cached so the replay avoids a per-cycle type assertion.
	//
	// All three windows are voided by wake(): any accepted response (fills
	// free MSHRs, clear waitLoad, and may promote warps), a CTA launch, and
	// pumpLSU retiring a warp's last outstanding access (the warp becomes
	// promotable mid-window).
	// sleepRetryAt backs off the sleep/stall-window search after a failed
	// attempt: when trySleep establishes no window, re-scanning every
	// no-issue cycle is pure overhead, so the next attempt waits a few
	// cycles unless a wake event (which can open a window) clears the
	// backoff. Purely a wall-clock heuristic — trySleep has no observable
	// effect, so delaying it cannot change results. Derived state,
	// excluded from determinism hashes.
	idleSkipOn     bool
	idleUntil      int64
	issueIdleUntil int64
	sleepClass     obs.CycleClass
	stallUntil     int64
	stallPicks     bool
	stallSched     sched.StallRunner
	stallSR        sched.StallRunner // sched's StallRunner side, nil if none
	stallTicks     int
	sleepRetryAt   int64

	// winFrom is the open window's first cycle not yet settled (see
	// settle). clock points at the GPU's cycle counter, so readers outside
	// a tick (HashState) can settle the SM up to the machine's current
	// cycle. settleErr latches a breach the sanitizer's window-premise
	// audit found, reported through the preallocated sanSettle so the
	// audit allocates nothing; Tick returns it.
	winFrom   int64
	clock     *int64
	settleErr error
	sanSettle invariant.Violation

	// runClass, runFrom and runLen are the pending run of identical
	// cycle classes reportClass has not yet handed to a Foldable sink, and
	// runResFails the L1 reservation fails settle credited in bulk (see
	// flushRuns).
	runClass    obs.CycleClass
	runFrom     int64
	runLen      int64
	runResFails int64

	// hprof is this SM's always-on fast-forward ledger (nil without
	// WithHostProf): slept-cycle tallies, windows opened, and per-reason
	// window aborts. Written only by the goroutine ticking this SM (the
	// barrier orders the writes), read after the run — pure observation,
	// excluded from determinism hashes like the windows themselves.
	hprof *hostprof.SMProf

	// perturbAt arms the one-shot divergence-test perturbation
	// (WithPerturbPrefetchAt): the first prefetch candidate that
	// can actually enqueue at or after that cycle is shifted by one line.
	// perturbedAt records the cycle it fired.
	perturbAt   int64
	perturbedAt int64

	// unblockGen backs sched.View.UnblockGen: it advances at every site
	// that can turn a Blocked warp unblocked — a blocking warp's last
	// outstanding load returning (acceptResponses, or an L1 hit in
	// pumpLSU), a barrier releasing, and LaunchCTA. Derived state for the
	// scheduler's dry-refill memo, excluded from state hashes.
	unblockGen uint64

	nowCache int64
	addrBuf  []uint64
}

func newSM(id int, cfg config.GPUConfig, k *kernels.Kernel, sc sched.Scheduler,
	pf prefetch.Prefetcher, ic *mem.Interconnect, st *stats.Sim, onCTADone func(int)) *SM {

	wpc := k.WarpsPerCTA()
	slots := cfg.MaxCTAsPerSM
	if maxByWarps := cfg.MaxWarpsPerSM / wpc; maxByWarps < slots {
		slots = maxByWarps
	}
	if slots < 1 {
		slots = 1
	}
	sm := &SM{
		id:          id,
		cfg:         cfg,
		st:          st,
		kernel:      k,
		warpsPerCTA: wpc,
		ctaSlots:    slots,
		warps:       make([]warpState, slots*wpc),
		gate:        make([]int64, slots*wpc),
		ctas:        make([]ctaState, slots),
		sched:       sc,
		pref:        pf,
		l1:          mem.NewCacheWithPrefetchPool(cfg.L1, true, cfg.PrefetchBufferEntries),
		ic:          ic,
		lsuQ:        make([]*lsuGroup, 0, lsuQueueCap),
		prefQ:       make([]prefetch.Candidate, 0, prefQueueCap),
		prefIn:      make(map[uint64]bool),
		storeQ:      make([]*mem.Request, 0, storeQueueCap),
		onCTADone:   onCTADone,
	}
	for i := range sm.warps {
		sm.warps[i].slot = i
		sm.gate[i] = gateNever
	}
	// Resolve the scheduler's stall-replay capability once; tryStallReplay
	// runs on every failed-issue tick and the repeated interface assertion
	// is measurable there.
	sm.stallSR, _ = sc.(sched.StallRunner)
	if cfg.CheckInvariants {
		sm.sanitize = true
		sm.sanComp = fmt.Sprintf("SM[%d]", id)
		sm.sanSettle.Component = sm.sanComp
		sm.sanSlots = make([]int, 0, len(sm.warps))
		sm.l1.EnableSanitizer(fmt.Sprintf("L1[%d]", id))
	}
	return sm
}

// obsAttacher is implemented by schedulers and prefetchers that carry their
// own trace hooks (TwoLevel, CAPS); baselines without events need nothing.
type obsAttacher interface {
	AttachObs(*obs.Sink, int)
}

// obsClock is implemented by schedulers whose event hooks can fire outside
// Pick and therefore need the current cycle pushed to them.
type obsClock interface {
	ObsTick(now int64)
}

// AttachObs connects the SM, its L1, and (when they support it) its
// scheduler and prefetcher to an observability sink. Attaching nil is a
// no-op at every event site.
func (sm *SM) AttachObs(s *obs.Sink) {
	sm.snk = s
	sm.l1.AttachObs(s, obs.DomSM, sm.id)
	if a, ok := sm.sched.(obsAttacher); ok {
		a.AttachObs(s, sm.id)
	}
	if s != nil {
		sm.schedClock, _ = sm.sched.(obsClock)
	}
	if a, ok := sm.pref.(obsAttacher); ok {
		a.AttachObs(s, sm.id)
	}
}

// FreeCTASlot returns the index of an unoccupied CTA slot, or -1.
func (sm *SM) FreeCTASlot() int {
	for i := range sm.ctas {
		if !sm.ctas[i].active {
			return i
		}
	}
	return -1
}

// LaunchCTA places a CTA into the given slot and activates its warps.
func (sm *SM) LaunchCTA(slot, ctaID int) {
	sm.wake(wakeLaunch) // fresh warps can issue immediately: end any sleep window
	sm.unblockGen++
	coord := sm.kernel.Grid.Coord(ctaID)
	sm.ctas[slot] = ctaState{
		active:    true,
		ctaID:     ctaID,
		coord:     coord,
		warpBase:  slot * sm.warpsPerCTA,
		warpCount: sm.warpsPerCTA,
		warpsLeft: sm.warpsPerCTA,
	}
	sm.pref.OnCTALaunch(slot)
	sm.snk.CTALaunch(sm.nowCache, sm.id, ctaID)
	sm.snk.CTAPhase(sm.nowCache, sm.id, ctaID, obs.CTAPhaseLaunch)
	for w := 0; w < sm.warpsPerCTA; w++ {
		ws := &sm.warps[slot*sm.warpsPerCTA+w]
		ws.reset(slot, ctaID, coord, w, len(sm.kernel.Loads))
		sm.regate(ws)
		sm.sched.OnActivate(ws.slot, w == 0)
		sm.snk.WarpDispatch(sm.nowCache, sm.id, ws.slot, ctaID)
	}
	sm.activeCTAs++
	sm.liveWarps += sm.warpsPerCTA
}

// gateNever is the issue gate of a warp that cannot issue until an event
// (a launch, a fill, a barrier release) re-gates it.
const gateNever = int64(math.MaxInt64)

// regate recomputes w's issue gate from its context; it follows every
// write to active, finished, atBarrier, waitLoad or busyUntil.
func (sm *SM) regate(w *warpState) { sm.gate[w.slot] = gateOf(w) }

// gateOf is the issue gate w's context implies (see SM.gate).
func gateOf(w *warpState) int64 {
	if !w.active || w.finished || w.atBarrier || w.waitLoad {
		return gateNever
	}
	return w.busyUntil
}

// Eligible implements sched.View; nowCache holds the current cycle during
// Tick so the View interface does not need a time parameter.
func (sm *SM) Eligible(slot int) bool { return sm.gate[slot] <= sm.nowCache }

// Blocked implements sched.View: the warp waits on memory or a barrier.
func (sm *SM) Blocked(slot int) bool { return sm.gate[slot] == gateNever }

// UnblockGen implements sched.View.
func (sm *SM) UnblockGen() uint64 { return sm.unblockGen }

// StallPickable implements sched.StallView: during a stall-replay
// snapshot, a Pick returning slot is provably a mutation-free structural
// stall only when it would hand a load to a full LSU queue.
func (sm *SM) StallPickable(slot int) bool {
	return len(sm.lsuQ) >= lsuQueueCap && sm.kernel.Program[sm.warps[slot].pc].Kind == kernels.OpLoad
}

var _ sched.StallView = (*SM)(nil)

// Busy reports whether the SM still has live warps or in-flight memory.
func (sm *SM) Busy() bool {
	return sm.liveWarps > 0 || len(sm.lsuQ) > 0 || len(sm.storeQ) > 0
}

// ActiveCTAs returns the number of resident CTAs.
func (sm *SM) ActiveCTAs() int { return sm.activeCTAs }

// L1 exposes the data cache for end-of-run accounting and tests.
func (sm *SM) L1() *mem.Cache { return sm.l1 }

// Prefetcher exposes the SM's prefetch engine (determinism tests reach
// through it to mutate CAP table state).
func (sm *SM) Prefetcher() prefetch.Prefetcher { return sm.pref }

// Tick advances the SM one cycle. It returns the number of instructions
// issued (the GPU uses it for the instruction cap) and the first invariant
// violation detected this cycle (always nil unless Config.CheckInvariants
// is set, except for fills without an MSHR, which are structural bugs and
// always surface).
//
// Tick is the per-cycle hot path (hotlint root) and the unit the future
// parallel core runs concurrently across SMs (isolint root): everything
// it reaches must be allocation-free and write only SM-owned state, with
// every exception annotated and ratcheted.
//
//caps:hotpath //caps:isolated
func (sm *SM) Tick(now int64) (int, error) {
	// Settle the window cycles the GPU skipped since this SM last ticked
	// (see fastforward.go); under the sanitizer the settlement audits the
	// window's premise over them.
	sm.settle(now)
	if sm.settleErr != nil {
		return 0, sm.settleErr
	}
	sm.nowCache = now
	sm.memStallEv = false
	if sm.schedClock != nil {
		sm.schedClock.ObsTick(now)
	}
	if sm.ic.ResponseReady(now, sm.id) {
		if err := sm.acceptResponses(now); err != nil {
			return 0, err
		}
	}
	if now < sm.idleUntil || now < sm.stallUntil {
		// Asleep or stall-replaying: the last full tick proved (trySleep,
		// tryStallReplay) that every cycle before the window's end repeats
		// constant deltas unless a fill arrives, and acceptResponses above
		// just cancelled the window if one did. Settle this cycle the way
		// the GPU settles the cycles it skips.
		sm.settle(now + 1)
		return 0, nil
	}
	sm.flushStallTicks()
	sm.drainStores(now)
	sm.pumpLSU(now)
	sm.drainMisses(now)
	issued := 0
	if now < sm.issueIdleUntil {
		// Issue sleep: the scheduler is quiescent and no warp can become
		// eligible before issueIdleUntil (pumpLSU above would have voided
		// the window had it just made one promotable), so issue(now) would
		// run a failed Pick. Record its only effect — a stall cycle while
		// warps are live — without the scan.
		if sm.liveWarps > 0 {
			sm.st.StallCycles++ //caps:shared-sync stats-reduce

		}
		if sm.hprof != nil {
			sm.hprof.IssueSleepCycles++
		}
	} else {
		issued = sm.issue(now)
	}
	if sm.snk != nil {
		sm.reportClass(now, sm.classifyCycle(issued), 1)
	}
	sm.admitPrefetches(now)
	if sm.sanitize {
		if err := sm.checkInvariants(now); err != nil { //caps:alloc-ok sanitizer cordon: the audit runs only under CheckInvariants

			return issued, err
		}
	}
	// Re-evaluate sleep only at a window's edge: while issueIdleUntil still
	// covers the next cycle the cached verdict stands and the scan would be
	// pure overhead.
	if sm.idleSkipOn && issued == 0 && now+1 >= sm.issueIdleUntil && now >= sm.sleepRetryAt {
		sm.trySleep(now)
	}
	return issued, nil
}

// wakeReason tags why a sleep/stall window is being voided, for the
// hostprof abort ledger: a fill (acceptResponses), a CTA launch, or
// pumpLSU retiring a warp's last outstanding access.
type wakeReason uint8

const (
	wakeFill wakeReason = iota
	wakeLaunch
	wakeRetire
)

// wake voids the cached sleep and stall-replay windows (see their field
// comment): the caller just changed state that can make a warp eligible, a
// scheduler non-quiescent, or the replayed reservation fail succeed. A
// window voided with covered cycles still ahead of it counts as an abort
// under the wake's reason in the hostprof ledger — the profiling signal
// for fast-forward windows that cost their scan but never paid out.
//
//caps:hotpath
func (sm *SM) wake(why wakeReason) {
	if hp := sm.hprof; hp != nil {
		edge := sm.nowCache + 1
		if sm.idleUntil > edge || sm.issueIdleUntil > edge || sm.stallUntil > edge {
			switch why {
			case wakeFill:
				hp.AbortFill++
			case wakeLaunch:
				hp.AbortLaunch++
			default:
				hp.AbortRetire++
			}
		}
	}
	sm.flushStallTicks()
	sm.idleUntil = 0
	sm.issueIdleUntil = 0
	sm.stallUntil = 0
	sm.sleepRetryAt = 0
}

// flushStallTicks applies the stall-replay pick batches deferred by the
// frozen tick (see stallTicks) to the scheduler's cursor. Callers run it
// before any scheduler read: the full tick pipeline, a wake, and the
// determinism hash.
//
//caps:hotpath
func (sm *SM) flushStallTicks() {
	if sm.stallTicks > 0 {
		sm.stallSched.StallTick(sm.stallTicks)
		sm.stallTicks = 0
	}
}

// newRequest returns a zeroed request from the SM's free list, minting a
// new one only while the list warms up.
func (sm *SM) newRequest() *mem.Request {
	if n := len(sm.reqFree); n > 0 {
		r := sm.reqFree[n-1]
		sm.reqFree = sm.reqFree[:n-1]
		return r
	}
	return &mem.Request{} //caps:alloc-ok free-list warm-up; steady state recycles dead requests
}

// recycleRequest returns a dead request (no cache, queue or interconnect
// reference left) to the free list.
func (sm *SM) recycleRequest(r *mem.Request) {
	sm.reqFree = append(sm.reqFree, r) //caps:alloc-ok free-list capacity converges to the peak in-flight request count
}

// newLSUGroup returns a group from the free list, keeping the address
// buffer capacity of recycled groups.
func (sm *SM) newLSUGroup() *lsuGroup {
	if n := len(sm.lsuFree); n > 0 {
		g := sm.lsuFree[n-1]
		sm.lsuFree = sm.lsuFree[:n-1]
		g.warp, g.idx, g.pc = nil, 0, 0
		return g
	}
	return &lsuGroup{} //caps:alloc-ok free-list warm-up; steady state recycles retired groups
}

// recycleLSUGroup returns a retired group to the free list.
func (sm *SM) recycleLSUGroup(g *lsuGroup) {
	g.warp = nil
	sm.lsuFree = append(sm.lsuFree, g) //caps:alloc-ok free-list capacity converges to lsuQueueCap
}

// pushToPartition forwards one request toward its memory partition. On the
// serial path it is a direct interconnect push; during a staged parallel
// tick the request parks in the SM's commit lane instead and the push is
// unconditionally accepted — the pre-tick congestion check (icntPrecheck)
// reserved room for every request this SM could emit this cycle.
func (sm *SM) pushToPartition(now int64, r *mem.Request) bool {
	if sm.staged {
		sm.icLane = append(sm.icLane, r) //caps:alloc-ok commit lane retains capacity; bounded by storeQueueCap + the L1 miss queue
		return true
	}
	return sm.ic.PushToPartition(now, r)
}

// addIcntDemand accumulates, per partition, the worst-case number of
// interconnect pushes this SM's next tick can perform: every buffered
// store, every queued L1 miss, and one new miss from the LSU head access.
func (sm *SM) addIcntDemand(d []int) {
	for _, r := range sm.storeQ {
		d[r.Partition]++
	}
	for i, n := 0, sm.l1.MissQueueLen(); i < n; i++ {
		d[sm.l1.MissQueueAt(i).Partition]++
	}
	if len(sm.lsuQ) > 0 {
		g := sm.lsuQ[0]
		a := g.addrs[g.idx]
		d[mem.PartitionOf(a, sm.cfg.PartitionChunkBytes, sm.cfg.NumPartitions)]++
	}
}

// acceptResponses drains fills returning from the interconnect.
//
//caps:shared-sync stats-reduce
func (sm *SM) acceptResponses(now int64) error {
	for i := 0; i < respPerCycle; i++ {
		r := sm.ic.PopForSM(now, sm.id)
		if r == nil {
			return nil
		}
		// A response changes memory state (MSHR freed, warps may wake):
		// any sleep window proven before it arrived is void.
		sm.wake(wakeFill)
		fill, err := sm.l1.Fill(now, r.LineAddr)
		if err != nil {
			return err
		}
		if fill.EvictedUnusedPrefetch {
			sm.st.PrefEarlyEvict++
			sm.snk.PrefEarlyEvict(now, sm.id, fill.EvictedPrefPC, r.LineAddr)
		}
		for _, w := range fill.Waiters {
			switch w.Kind {
			case mem.Demand:
				sm.st.DemandLatencySum += now - w.IssueCycle
				sm.st.DemandLatencyCount++
				sm.snk.DemandLatency(sm.id, now-w.IssueCycle)
				ws := &sm.warps[w.WarpSlot]
				if ws.active && ws.outstanding > 0 {
					ws.outstanding--
					if ws.outstanding == 0 {
						if ws.waitLoad {
							sm.snk.WarpStallEnd(now, sm.id, ws.slot)
							// The data return unblocks the warp: it is
							// promotable again on the next refill.
							sm.snk.PickOutcome(now, sm.id, ws.slot, obs.PickWakeupData)
							sm.unblockGen++
						}
						ws.waitLoad = false
						sm.regate(ws)
					}
				}
			case mem.Prefetch:
				// Eager warp wake-up (Section V-A): promote the warp the
				// prefetch is bound to.
				if sm.cfg.PrefetchWakeup && w.WarpSlot >= 0 && w.WarpSlot < len(sm.warps) {
					ws := &sm.warps[w.WarpSlot]
					if ws.active && !ws.finished {
						if sm.sched.OnWake(w.WarpSlot) {
							sm.st.WakeupPromotions++
							sm.snk.SchedWakeup(now, sm.id, w.WarpSlot)
							sm.snk.PickOutcome(now, sm.id, w.WarpSlot, obs.PickWakeupEager)
						}
					}
				}
			}
		}
		// Every waiter is a request this SM minted (the response r itself
		// is the first waiter); nothing downstream references them now.
		for _, w := range fill.Waiters {
			sm.recycleRequest(w)
		}
	}
	return nil
}

// drainStores pushes buffered stores into the interconnect.
//
//caps:shared-sync stats-reduce
func (sm *SM) drainStores(now int64) {
	for len(sm.storeQ) > 0 {
		r := sm.storeQ[0]
		if !sm.pushToPartition(now, r) {
			return
		}
		sm.st.CoreToMemRequests++
		copy(sm.storeQ, sm.storeQ[1:])
		sm.storeQ = sm.storeQ[:len(sm.storeQ)-1]
	}
}

// pumpLSU presents the head load group's next coalesced access to L1.
//
//caps:shared-sync stats-reduce
func (sm *SM) pumpLSU(now int64) {
	if len(sm.lsuQ) == 0 {
		return
	}
	g := sm.lsuQ[0]
	addr := g.addrs[g.idx]
	req := sm.newRequest()
	*req = mem.Request{
		LineAddr:   addr,
		Kind:       mem.Demand,
		SMID:       sm.id,
		WarpSlot:   g.warp.slot,
		PC:         g.pc,
		IssueCycle: now,
		Partition:  mem.PartitionOf(addr, sm.cfg.PartitionChunkBytes, sm.cfg.NumPartitions),
	}
	sm.st.DemandAccesses++
	sm.st.L1Accesses++
	res := sm.l1.Access(now, req)
	switch res.Outcome {
	case mem.Hit:
		sm.recycleRequest(req) // hits are never parked on an MSHR
		sm.st.DemandHits++
		if res.FirstUseOfPrefetch {
			sm.st.PrefUseful++
			sm.st.PrefDistanceSum += now - res.PrefIssueCycle
			sm.st.PrefDistanceCount++
			sm.snk.PrefConsume(now, sm.id, g.warp.slot, g.warp.ctaID, res.PrefPC, addr, now-res.PrefIssueCycle)
		}
		g.warp.outstanding--
		if g.warp.outstanding == 0 {
			if g.warp.waitLoad {
				sm.snk.WarpStallEnd(now, sm.id, g.warp.slot)
				sm.unblockGen++
			}
			g.warp.waitLoad = false
			sm.regate(g.warp)
			// The warp is promotable again — this cycle's issue stage must
			// see it, so any cached sleep window is void.
			sm.wake(wakeRetire)
		}
	case mem.MissNew:
		sm.st.DemandMisses++
		for _, c := range sm.pref.OnMiss(now, addr, g.pc) {
			sm.enqueuePrefetch(now, c)
		}
	case mem.MissMerged:
		sm.st.DemandMerged++
		if res.MergedIntoPrefetch {
			sm.st.PrefLate++
			sm.st.PrefDistanceSum += now - res.PrefIssueCycle
			sm.st.PrefDistanceCount++
			sm.snk.PrefLate(now, sm.id, res.PrefPC, addr)
		}
	case mem.ResFailMSHR, mem.ResFailQueue:
		sm.recycleRequest(req) // rejected outright; the access replays
		sm.st.ReservationFails++
		sm.st.MemStalls++
		sm.memStallEv = true
		sm.st.UncountDemandReplay() // not accepted; it will be replayed
		return
	}
	g.idx++
	if g.idx == len(g.addrs) {
		copy(sm.lsuQ, sm.lsuQ[1:])
		sm.lsuQ = sm.lsuQ[:len(sm.lsuQ)-1]
		sm.recycleLSUGroup(g)
	}
}

// drainMisses moves L1 miss-queue entries into the interconnect.
//
//caps:shared-sync stats-reduce
func (sm *SM) drainMisses(now int64) {
	for {
		head := sm.l1.PeekMiss()
		if head == nil {
			return
		}
		if !sm.pushToPartition(now, head) {
			return
		}
		sm.l1.PopMiss()
		sm.st.CoreToMemRequests++
	}
}

// issue asks the scheduler for warps and executes their next instruction.
//
//caps:shared-sync stats-reduce
func (sm *SM) issue(now int64) int {
	issued := 0
	for i := 0; i < sm.cfg.IssueWidth; i++ {
		slot := sm.sched.Pick(now, sm)
		if slot < 0 {
			break
		}
		if sm.execute(now, &sm.warps[slot]) {
			issued++
			// First successful issue of the CTA's residency: the launch →
			// first-issue gap is scheduler queueing delay (schedlens). The
			// stall fast-forwards only elide cycles where nothing issues,
			// so this transition is never skipped.
			if cta := &sm.ctas[sm.warps[slot].ctaSlot]; !cta.firstIssued {
				cta.firstIssued = true
				sm.snk.CTAPhase(now, sm.id, cta.ctaID, obs.CTAPhaseFirstIssue)
			}
		}
	}
	if issued > 0 {
		sm.st.IssueCycles++
	} else if sm.liveWarps > 0 {
		sm.st.StallCycles++
	}
	sm.st.Instructions += int64(issued)
	return issued
}

// classifyCycle attributes the just-finished issue stage's cycle to exactly
// one stall-stack bucket (DESIGN §"Cycle accounting taxonomy"). Precedence:
// issuing beats every stall cause; with no live warps the SM is draining
// in-flight memory or idle; among stall causes a structural memory stall
// observed this cycle wins, then a memory wait (ready queue drained by
// outstanding loads), then a barrier. Live warps blocked by none of those
// are mid multi-cycle ops — a latency-empty ready queue, same bucket as the
// memory wait.
func (sm *SM) classifyCycle(issued int) obs.CycleClass {
	if issued > 0 {
		return obs.CycleIssue
	}
	if sm.liveWarps == 0 {
		if len(sm.lsuQ) > 0 || len(sm.storeQ) > 0 || sm.l1.OutstandingMSHRs() > 0 {
			return obs.CycleDrain
		}
		return obs.CycleIdle
	}
	if sm.memStallEv {
		return obs.CycleMemStructural
	}
	barrier := false
	for i := range sm.warps {
		w := &sm.warps[i]
		if !w.active || w.finished {
			continue
		}
		if w.waitLoad {
			return obs.CycleEmptyReady
		}
		if w.atBarrier {
			barrier = true
		}
	}
	if barrier {
		return obs.CycleBarrier
	}
	return obs.CycleEmptyReady
}

// execute runs one instruction of the warp; it returns false when the
// instruction could not issue (structural stall) so the warp retries.
//
//caps:shared-sync stats-reduce
func (sm *SM) execute(now int64, w *warpState) bool {
	in := &sm.kernel.Program[w.pc]
	switch in.Kind {
	case kernels.OpCompute:
		w.busyUntil = now + int64(in.Latency)
		sm.regate(w)
		w.pc++
		sm.st.ALUOps++

	case kernels.OpShared:
		w.busyUntil = now + int64(in.Latency)
		sm.regate(w)
		w.pc++
		sm.st.SharedMemOps++

	case kernels.OpJoin:
		w.pc++
		if w.outstanding > 0 {
			w.waitLoad = true
			sm.regate(w)
			sm.snk.WarpStallBegin(now, sm.id, w.slot)
			// The warp now waits on memory: demote it so the two-level
			// ready queue stays populated with runnable warps.
			sm.sched.OnLongLatency(w.slot)
		}

	case kernels.OpLoopStart:
		if w.loopDepth < len(w.loopStack) {
			w.loopStack[w.loopDepth] = loopFrame{bodyStart: w.pc + 1, remaining: in.Iters}
		} else {
			w.loopStack = append(w.loopStack, loopFrame{bodyStart: w.pc + 1, remaining: in.Iters}) //caps:alloc-ok warp loop stacks retain capacity across CTAs; grows only to the peak nest depth
		}
		w.loopDepth++
		w.pc++

	case kernels.OpLoopEnd:
		f := &w.loopStack[w.loopDepth-1]
		f.remaining--
		if f.remaining > 0 {
			w.pc = f.bodyStart
		} else {
			w.loopDepth--
			w.pc++
		}

	case kernels.OpBarrier:
		cta := &sm.ctas[w.ctaSlot]
		w.atBarrier = true
		sm.regate(w)
		cta.barrierCnt++
		w.pc++
		sm.snk.WarpBarrier(now, sm.id, w.slot, w.ctaID)
		if cta.barrierCnt == cta.warpsLeft {
			cta.barrierCnt = 0
			sm.unblockGen++
			for i := 0; i < cta.warpCount; i++ {
				ws := &sm.warps[cta.warpBase+i]
				if ws.active && !ws.finished {
					ws.atBarrier = false
					sm.regate(ws)
				}
			}
		} else {
			// Deschedule so the two-level ready queue does not clog with
			// barrier-blocked warps.
			sm.sched.OnLongLatency(w.slot)
		}

	case kernels.OpLoad:
		if len(sm.lsuQ) >= lsuQueueCap {
			sm.st.MemStalls++
			sm.memStallEv = true
			return false
		}
		spec := &sm.kernel.Loads[in.Load]
		iter := w.iterCount[in.Load]
		w.iterCount[in.Load]++
		g := sm.newLSUGroup()
		g.warp, g.pc = w, pcOf(in.Load)
		g.addrs = sm.genAddrs(g.addrs[:0], w, in.Load, iter)
		addrs := g.addrs
		if len(addrs) == 0 {
			sm.recycleLSUGroup(g)
			w.pc++
			return true
		}
		sm.snk.LoadIssue(now, sm.id, w.slot, w.ctaID, w.warpInCTA, pcOf(in.Load), addrs[0], spec.Indirect)
		obs := prefetch.Observation{
			Now:         now,
			SMID:        sm.id,
			PC:          pcOf(in.Load),
			CTASlot:     w.ctaSlot,
			CTAID:       w.ctaID,
			WarpSlot:    w.slot,
			WarpInCTA:   w.warpInCTA,
			WarpsPerCTA: sm.warpsPerCTA,
			CTAWarpBase: sm.ctas[w.ctaSlot].warpBase,
			Iter:        iter,
			Addrs:       addrs,
			Indirect:    spec.Indirect,
		}
		for _, c := range sm.pref.OnLoad(&obs) {
			sm.enqueuePrefetch(now, c)
		}
		w.outstanding += len(addrs)
		sm.lsuQ = append(sm.lsuQ, g) //caps:alloc-ok lsuQ is preallocated to lsuQueueCap; the cap check above bounds it
		if in.Blocking {
			// A dependent use follows immediately: the warp stalls on the
			// long-latency load and leaves the two-level ready queue.
			w.waitLoad = true
			sm.regate(w)
			sm.snk.WarpStallBegin(now, sm.id, w.slot)
			sm.sched.OnLongLatency(w.slot)
			if w.warpInCTA == 0 {
				sm.markBaseReady(now, w)
			}
		}
		w.pc++

	case kernels.OpStore:
		iter := w.iterCount[in.Load]
		addrs := sm.genAddrs(sm.addrBuf[:0], w, in.Load, iter)
		sm.addrBuf = addrs[:0]
		if len(sm.storeQ)+len(addrs) > storeQueueCap {
			sm.st.MemStalls++
			sm.memStallEv = true
			return false
		}
		w.iterCount[in.Load]++
		for _, a := range addrs {
			//caps:alloc-ok store requests retire silently inside the DRAM channel and cannot be recycled per SM
			sm.storeQ = append(sm.storeQ, &mem.Request{
				LineAddr:   a,
				Kind:       mem.Store,
				SMID:       sm.id,
				WarpSlot:   w.slot,
				PC:         pcOf(in.Load),
				IssueCycle: now,
				Partition:  mem.PartitionOf(a, sm.cfg.PartitionChunkBytes, sm.cfg.NumPartitions),
			})
		}
		w.pc++

	case kernels.OpExit:
		sm.finishWarp(w)
		return false
	}
	return in.Kind != kernels.OpExit
}

// addrCtx builds the address-generation context for a warp and load.
func (sm *SM) addrCtx(w *warpState, load int, iter int64) kernels.AddrCtx {
	return kernels.AddrCtx{
		CTAID:       w.ctaID,
		CTA:         w.ctaCoord,
		Grid:        sm.kernel.Grid,
		Block:       sm.kernel.Block,
		WarpInCTA:   w.warpInCTA,
		WarpsPerCTA: sm.warpsPerCTA,
		Iter:        iter,
	}
}

// genAddrs produces deduplicated line addresses for one load execution,
// writing them into dst (typically a recycled LSU-group buffer) so the
// per-issue copy the old signature forced is gone.
func (sm *SM) genAddrs(dst []uint64, w *warpState, loadIdx int, iter int64) []uint64 {
	raw := sm.kernel.Loads[loadIdx].Gen(sm.addrCtx(w, loadIdx, iter)) //caps:alloc-ok addrgen closures own their result buffers (kernels API) //caps:shared-sync addrgen

	out := dst[:0]
	for _, a := range raw {
		a = mem.LineAddrOf(a, sm.cfg.L1.LineBytes)
		dup := false
		for _, b := range out {
			if a == b {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, a) //caps:alloc-ok capacity converges to the warp's coalesced width and is retained by the group buffer
		}
	}
	return out
}

// markBaseReady records the CTA lifetime phase where the leading warp's
// first blocking load establishes the CTA's base address (the θ/Δ seed,
// paper Fig. 8b). Once per residency; a helper because execute's OpLoad
// case shadows the obs package with its Observation local.
func (sm *SM) markBaseReady(now int64, w *warpState) {
	if cta := &sm.ctas[w.ctaSlot]; !cta.baseReady {
		cta.baseReady = true
		sm.snk.CTAPhase(now, sm.id, w.ctaID, obs.CTAPhaseBaseReady)
	}
}

// finishWarp retires a warp; when the whole CTA is done the GPU is told so
// it can dispatch the next CTA to this SM (demand-driven distribution).
//
//caps:shared-sync stats-reduce
func (sm *SM) finishWarp(w *warpState) {
	w.finished = true
	w.active = false
	sm.regate(w)
	sm.liveWarps--
	sm.st.WarpsDone++
	sm.sched.OnFinish(w.slot)
	sm.snk.WarpFinish(sm.nowCache, sm.id, w.slot)
	cta := &sm.ctas[w.ctaSlot]
	if !cta.draining {
		// First warp retirement: the CTA enters its drain phase — the
		// drain → retire gap is tail-warp imbalance (schedlens).
		cta.draining = true
		sm.snk.CTAPhase(sm.nowCache, sm.id, w.ctaID, obs.CTAPhaseDrain)
	}
	cta.warpsLeft--
	if cta.warpsLeft == 0 {
		cta.active = false
		sm.activeCTAs--
		sm.st.CTAsDone++
		sm.snk.CTAFinish(sm.nowCache, sm.id, w.ctaID)
		sm.snk.CTAPhase(sm.nowCache, sm.id, w.ctaID, obs.CTAPhaseRetire)
		if sm.staged {
			// Parallel tick: the dispatch request is replayed in SM order
			// by the commit phase, matching the serial dispatchReq order.
			sm.stagedDispatch++
		} else if sm.onCTADone != nil {
			sm.onCTADone(sm.id) //caps:alloc-ok CTA dispatch runs at CTA, not cycle, granularity //caps:shared-sync cta-dispatch

		}
	}
}

// enqueuePrefetch admits a candidate into the bounded prefetch queue with
// line-level deduplication.
//
//caps:shared-sync stats-reduce
func (sm *SM) enqueuePrefetch(now int64, c prefetch.Candidate) {
	c.Addr = mem.LineAddrOf(c.Addr, sm.cfg.L1.LineBytes)
	if c.GenCycle == 0 {
		c.GenCycle = now
	}
	if sm.perturbAt > 0 && now >= sm.perturbAt {
		// Only consume the perturbation when the altered address is
		// guaranteed to enqueue; otherwise both runs would drop the
		// candidate identically and no state would diverge this cycle.
		altered := c.Addr + uint64(sm.cfg.L1.LineBytes)
		if !sm.prefIn[altered] && len(sm.prefQ) < prefQueueCap {
			c.Addr = altered
			sm.perturbAt = 0
			sm.perturbedAt = now
		}
	}
	sm.snk.PrefCandidate(now, sm.id, c.TargetWarpSlot, c.TargetCTAID, c.PC, c.Addr, c.SeedWarp)
	if sm.prefIn[c.Addr] {
		sm.st.PrefDropped++
		sm.st.PrefDropDup++
		sm.snk.PrefDrop(now, sm.id, c.TargetCTAID, c.PC, c.Addr, obs.DropDup)
		return
	}
	if len(sm.prefQ) >= prefQueueCap {
		sm.st.PrefDropped++
		sm.st.PrefDropQueueFull++
		sm.snk.PrefDrop(now, sm.id, c.TargetCTAID, c.PC, c.Addr, obs.DropQueueFull)
		return
	}
	sm.prefIn[c.Addr] = true
	sm.prefQ = append(sm.prefQ, c) //caps:alloc-ok prefQ is preallocated to prefQueueCap; the bound check above holds it there
}

// admitPrefetches lets queued prefetches access L1 at lower priority than
// demand traffic: prefetch-only misses may hold at most prefMSHRShare
// MSHRs, stale candidates are discarded, and a candidate whose target warp
// slot has been re-assigned to another CTA is dead (its prediction was for
// the departed CTA).
//
//caps:shared-sync stats-reduce
func (sm *SM) admitPrefetches(now int64) {
	admitted := 0
	for len(sm.prefQ) > 0 && admitted < prefPerCycle {
		c := sm.prefQ[0]
		if sm.l1.PrefetchMSHRs() >= sm.cfg.PrefetchBufferEntries ||
			sm.l1.MissQueueLen() >= sm.cfg.L1.MissQueue {
			return // wait for a prefetch-buffer entry or queue slot
		}
		copy(sm.prefQ, sm.prefQ[1:])
		sm.prefQ = sm.prefQ[:len(sm.prefQ)-1]
		delete(sm.prefIn, c.Addr)

		if now-c.GenCycle > prefTTL {
			sm.st.PrefDropped++
			sm.st.PrefDropStale++
			sm.snk.PrefDrop(now, sm.id, c.TargetCTAID, c.PC, c.Addr, obs.DropStale)
			continue
		}
		if c.TargetWarpSlot >= 0 && c.TargetCTAID >= 0 && c.TargetWarpSlot < len(sm.warps) {
			w := &sm.warps[c.TargetWarpSlot]
			if !w.active || w.ctaID != c.TargetCTAID {
				sm.st.PrefDropped++
				sm.st.PrefDropCTAGone++
				sm.snk.PrefDrop(now, sm.id, c.TargetCTAID, c.PC, c.Addr, obs.DropCTAGone)
				continue
			}
		}
		if sm.l1.Probe(c.Addr) {
			sm.st.PrefDropped++
			sm.st.PrefDropPresent++
			sm.snk.PrefDrop(now, sm.id, c.TargetCTAID, c.PC, c.Addr, obs.DropPresent)
			continue
		}
		if sm.l1.InFlight(c.Addr) {
			sm.st.PrefDropped++
			sm.st.PrefDropInFlight++
			sm.snk.PrefDrop(now, sm.id, c.TargetCTAID, c.PC, c.Addr, obs.DropInFlight)
			continue
		}
		if sm.l1.UnconsumedPrefetchesInSet(c.Addr) >= prefWaysPerSet {
			// The set already holds its share of unconsumed prefetched
			// data; admitting more would crowd out demand lines.
			sm.st.PrefDropped++
			sm.st.PrefDropSetFull++
			sm.snk.PrefDrop(now, sm.id, c.TargetCTAID, c.PC, c.Addr, obs.DropSetFull)
			continue
		}
		req := sm.newRequest()
		*req = mem.Request{
			LineAddr:   c.Addr,
			Kind:       mem.Prefetch,
			SMID:       sm.id,
			WarpSlot:   c.TargetWarpSlot,
			PC:         c.PC,
			IssueCycle: now,
			Partition:  mem.PartitionOf(c.Addr, sm.cfg.PartitionChunkBytes, sm.cfg.NumPartitions),
		}
		sm.st.L1Accesses++
		res := sm.l1.Access(now, req)
		switch res.Outcome {
		case mem.MissNew:
			sm.st.PrefIssued++
			sm.st.PrefToMemory++
			admitted++
			sm.snk.PrefAdmit(now, sm.id, c.TargetWarpSlot, c.TargetCTAID, c.PC, c.Addr)
		case mem.MissMerged:
			// Defensive: the InFlight guard above makes a merge unreachable,
			// but a merged request is parked on the MSHR and must not be
			// recycled here.
			sm.st.PrefDropped++
			sm.snk.PrefDrop(now, sm.id, c.TargetCTAID, c.PC, c.Addr, obs.DropRejected)
		default:
			// Present or rejected: the prefetch does no work and the cache
			// holds no reference.
			sm.recycleRequest(req)
			sm.st.PrefDropped++
			sm.snk.PrefDrop(now, sm.id, c.TargetCTAID, c.PC, c.Addr, obs.DropRejected)
		}
	}
}

// pcOf maps a static load index to the PC the prefetch tables key on.
func pcOf(loadIdx int) uint32 { return uint32(loadIdx + 1) }
