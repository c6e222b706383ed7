package sim

import "caps/internal/obs"

// Idle-cycle fast-forward works per SM and runs on every simulation; the
// plain per-cycle pipeline, where no window ever opens, survives only as
// the reference the differential tests compare against.
//
// Sleep: at the end of a tick that issued nothing, the SM caches how long
// its issue stage is provably dead (trySleep). Two windows nest: the
// issue sleep (issueBound: quiescent scheduler, no warp eligible before
// the bound) lets Tick skip the scheduler scan while the memory pipes
// keep ticking — the dominant case in memory-saturated phases, where the
// LSU head replays reservation fails for thousands of cycles — and the
// full sleep (additionally empty LSU/store/prefetch/miss queues) covers
// the whole tick. Fills, CTA launches and pumpLSU retiring a warp's last
// access void both windows (SM.wake), and every slept cycle records
// exactly the stall cycle and stall-stack class the full pipeline would
// have. Workloads where one SM streams memory while the rest wait spend
// their idle SM-cycles here, skipping the scheduler scan that dominates
// them.
//
// Stall replay (tryStallReplay) covers the structural stall the sleep
// windows cannot: warps stay eligible but nothing can move, so every
// cycle repeats the same constant deltas.
//
// Window settlement. Inside a full-sleep or stall-replay window a cycle's
// deltas are constant, so they are applied in closed form: settle(upTo)
// adds n cycles' worth of stall cycles, reservation fails, memory stalls,
// deferred scheduler ticks and hostprof window cycles, and credits the
// sink the span's cycle class and reservation fails, which the SM holds
// back in per-class tallies until a reader settles the GPU (reportClass,
// flushRuns). Tick
// settles a window cycle it runs as settle(now+1), and the GPU does not
// tick an SM at all while the cycle is inside its window and no response
// for it is ready (GPU.tickSerial): the next Tick, and
// every reader of SM state (LaunchCTA, GPU.Stats, HashState, the flight
// dump, Close), settles the skipped cycles first. Settling leaves the
// SM's clock (nowCache, the scheduler's ObsTick) at its last tick: only
// Tick advances it, and the one reader outside a tick, a CTA launch,
// follows a tick of the same SM at that cycle (the retiring CTA asked for
// it). On BFS-CAPS 86% of SM-cycles (51% on CNV) sit in such windows,
// so bulk credits pay per SM where the removed whole-GPU clock jump,
// which covered 0.55% of steps, did not.
//
// Skipping is derived, not configured: it is on unless the run's sink
// cannot take bulk credits (obs.Sink.Foldable). A receiver of EvResFail —
// a trace or a subscriber — or a consumer that keeps each EvCycleClass
// event in order (a flight recorder with KeepCycleClass) would see a
// settled run's events late and out of their per-cycle order, so such runs
// tick every SM on every cycle and settle one cycle per tick. Under the
// sanitizer skipping stays on and settle audits each settled span's
// premise (auditSettle).
//
// Every cycle still executes a GPU.Step, so beats, caps and the memory
// units land exactly as on the per-cycle pipeline, and state hashes and
// statistics are bit-identical to it.

// asleep reports whether the GPU may skip this SM's tick at now: the cycle
// lies inside a full-sleep or stall-replay window and no response for the
// SM is ready, so the tick would only settle the cycle.
func (sm *SM) asleep(now int64) bool {
	return (now < sm.idleUntil || now < sm.stallUntil) && !sm.ic.ResponseReady(now, sm.id)
}

// settle applies the deltas of the open window's cycles from winFrom up
// to, not including, upTo in closed form (see the package comment above),
// and advances winFrom past them. Cycles outside the window are left
// alone: a full tick accounts for them. A run longer than one cycle
// reports its class and its reservation fails in bulk, which only a
// Foldable sink receives (the GPU skips no tick otherwise). At most one of
// the full-sleep and stall-replay windows is open: trySleep opens one only
// from a full tick, which runs once both have ended.
//
//caps:hotpath
func (sm *SM) settle(upTo int64) {
	// The check inlines into every Tick; the span's work does not.
	if end := min(upTo, max(sm.idleUntil, sm.stallUntil)); sm.winFrom < end {
		sm.settleSpan(sm.winFrom, end)
	}
}

// settleSpan is settle's work for the window cycles [from, end).
func (sm *SM) settleSpan(from, end int64) {
	if sm.sanitize {
		if msg := sm.auditSettle(end - 1); msg != "" {
			sm.sanSettle.Cycle, sm.sanSettle.Msg = end-1, msg
			sm.settleErr = &sm.sanSettle
			return
		}
	}
	sm.winFrom = end
	n := end - from
	if from < sm.idleUntil {
		if sm.liveWarps > 0 {
			sm.st.StallCycles += n
		}
		if sm.hprof != nil {
			sm.hprof.FullSleepCycles += n
		}
		if sm.snk != nil {
			sm.reportClass(from, sm.sleepClass, n)
		}
		return
	}
	// Stall replay: the LSU head replays its reservation fail, and the
	// issue stage's Picks either all stall in execute (stallPicks:
	// IssueWidth more memory stalls and scheduler ticks a cycle) or all
	// return -1.
	if n == 1 {
		g := sm.lsuQ[0]
		sm.l1.ReplayResFail(from, g.addrs[g.idx], false)
	} else {
		sm.l1.HoldResFails(false, n)
	}
	sm.st.ReservationFails += n
	sm.st.MemStalls += n
	if sm.stallPicks {
		w := int64(sm.cfg.IssueWidth)
		sm.st.MemStalls += n * w
		// StallTick is associative (the cursor walk is linear in the pick
		// count), so the ticks batch into one deferred call;
		// flushStallTicks runs it before anything can observe scheduler
		// state — a full tick, a wake, or a state hash.
		sm.stallTicks += int(n * w)
	}
	sm.st.StallCycles += n
	if sm.hprof != nil {
		sm.hprof.StallReplayCycles += n
	}
	if sm.snk != nil {
		sm.reportClass(from, obs.CycleMemStructural, n)
	}
}

// reportClass attributes the n cycles from `from` on to class. On a
// Foldable sink it adds them to the SM's pending tally for the class, which
// reaches the sink only when a reader settles the GPU (flushRuns); any
// other sink receives each call as it comes.
//
//caps:hotpath
func (sm *SM) reportClass(from int64, class obs.CycleClass, n int64) {
	if !sm.snk.Foldable() {
		sm.snk.CycleClass(from, sm.id, class, n)
		return
	}
	if sm.classCycles[class] == 0 {
		sm.classFrom[class] = from
	}
	sm.classCycles[class] += n
}

// flushRuns hands the sink what the SM holds back from it: one
// cycle-class event per class with pending cycles, stamped with the first
// of them, and the reservation fails its L1 holds (Cache.FlushResFails).
// GPU.settle calls it before anything reads the sink.
func (sm *SM) flushRuns() {
	for c, n := range sm.classCycles {
		if n > 0 {
			sm.snk.CycleClass(sm.classFrom[c], sm.id, obs.CycleClass(c), n)
			sm.classCycles[c] = 0
		}
	}
	sm.l1.FlushResFails()
}

// auditSettle checks, under the sanitizer, that the window premise settle
// relied on held through cycle last, and describes the first breach: no
// response for the SM became ready, a stall-replay window still faces a
// full MSHR file with the LSU head neither cached nor in flight, and a
// full-sleep window's queues are still empty. The SM's state cannot
// change inside a window, so checking it at the span's end covers the
// span; a breach means a stale window end.
func (sm *SM) auditSettle(last int64) string {
	if sm.ic.ResponseReady(last, sm.id) {
		return "window cycles settled past a ready response"
	}
	if last < sm.idleUntil {
		if len(sm.lsuQ) > 0 || len(sm.storeQ) > 0 || len(sm.prefQ) > 0 || sm.l1.MissQueueLen() > 0 {
			return "full-sleep window settled with queued LSU, store, prefetch or miss entries"
		}
		return ""
	}
	if len(sm.lsuQ) == 0 {
		return "stall-replay window settled with an empty LSU queue"
	}
	g := sm.lsuQ[0]
	addr := g.addrs[g.idx]
	switch {
	case sm.l1.MSHRsFree() > 0:
		return "stall-replay window settled with a free MSHR"
	case sm.l1.Probe(addr) || sm.l1.InFlight(addr):
		return "stall-replay window settled while the LSU head line is cached or in flight"
	}
	return ""
}

// trySleep caches the sleep verdicts so subsequent ticks can short-circuit
// (see the package comment above): the issue sleep whenever the issue
// stage is provably dead, upgraded to the full sleep when the memory pipes
// are empty too. Windows of one cycle are not worth caching: the first
// fast-path cycle would already be the wake cycle.
//
//caps:hotpath
func (sm *SM) trySleep(now int64) {
	if b, ok := sm.issueBound(now); ok && b > now+1 {
		sm.issueIdleUntil = b
		if len(sm.lsuQ) == 0 && len(sm.storeQ) == 0 && len(sm.prefQ) == 0 && sm.l1.MissQueueLen() == 0 {
			sm.idleUntil = b
			sm.winFrom = now + 1
			sm.sleepClass = sm.skipClass()
			if sm.hprof != nil {
				sm.hprof.FullWindows++
			}
		} else if sm.hprof != nil {
			sm.hprof.IssueWindows++
		}
		return
	}
	sm.tryStallReplay(now)
	if sm.stallUntil <= now+1 {
		// No window opened: back off the search (see sleepRetryAt) until a
		// wake event makes one possible again.
		sm.sleepRetryAt = now + sleepRetryBackoff
	}
}

// sleepRetryBackoff is how many cycles a failed trySleep waits before
// re-scanning, absent a wake event. Large enough to amortize the scan,
// small enough that a window opening without a wake (a busy-latency expiry
// reshaping the eligibility set) is entered almost immediately relative to
// typical window lengths (hundreds of cycles).
const sleepRetryBackoff = 8

// tryStallReplay caches the structural-stall replay verdict — the dominant
// stall mode the sleep windows cannot cover, where warps stay *eligible*
// but nothing can move: the LSU head replays a reservation fail against a
// full MSHR file and every warp the scheduler can pick sits at a load the
// full LSU queue rejects, burning the whole issue stage on Picks that
// succeed and executes that fail. Such a cycle's deltas are constant and
// the scheduler's cursor movement is a fixed orbit (sched.StallRunner), so
// Tick can replay it in O(1) until the first cycle the pattern can change:
// a warp's busyUntil expiring (the bound below) or a wake() event — a fill
// changing the MSHR file, the cache contents or a warp's waitLoad, or a
// CTA launch.
//
//caps:hotpath
func (sm *SM) tryStallReplay(now int64) {
	if sm.liveWarps == 0 || len(sm.lsuQ) == 0 || len(sm.storeQ) > 0 || sm.l1.MissQueueLen() > 0 {
		return
	}
	// A prefetch queue that could admit would pop and mutate every cycle;
	// one blocked on the full prefetch-MSHR pool stays untouched (only a
	// fill frees a pool entry, and fills wake).
	if len(sm.prefQ) > 0 && sm.l1.PrefetchMSHRs() < sm.cfg.PrefetchBufferEntries {
		return
	}
	// The head access must be provably rejected, cycle after cycle: no free
	// demand MSHR, the line neither cached nor in flight (a hit or a merge
	// would advance the LSU queue). All three only change on a fill.
	if sm.l1.MSHRsFree() > 0 {
		return
	}
	g := sm.lsuQ[0]
	addr := g.addrs[g.idx]
	if sm.l1.Probe(addr) || sm.l1.InFlight(addr) {
		return
	}
	sr := sm.stallSR
	if sr == nil {
		return
	}
	// Every warp the scheduler's pick orbit can return must stall in
	// execute without mutating anything, which only a load rejected by the
	// full LSU queue guarantees (SM.StallPickable).
	picks, ok := sr.BeginStall(sm)
	if !ok {
		return
	}
	// The pattern holds until a busy warp's latency expires and changes the
	// eligibility set (blocked warps only change via wake events).
	bound := gateNever
	for _, g := range sm.gate {
		if g <= now {
			g = gateNever // eligible now: no expiry ahead
		}
		bound = min(bound, g)
	}
	if bound <= now+1 {
		return
	}
	sm.stallUntil = bound
	sm.winFrom = now + 1
	sm.stallPicks = picks
	sm.stallSched = sr
	if sm.hprof != nil {
		sm.hprof.StallWindows++
	}
}

// issueBound is the sleep verdict's issue-stage half: it reports whether a Pick
// this cycle (and, absent new wake events, on every following cycle up to
// the bound) is provably a failed no-op — a quiescent scheduler with no
// warp eligible before the bound. Memory pipes are not consulted: a
// replaying LSU head or draining miss queue leaves the verdict intact,
// which is exactly the window the issue sleep exploits.
func (sm *SM) issueBound(now int64) (int64, bool) {
	if sm.quiescer == nil || !sm.quiescer.Quiescent(sm) {
		return 0, false
	}
	bound := gateNever
	for _, g := range sm.gate {
		if g <= now {
			// An eligible warp: the scheduler can issue this cycle.
			return 0, false
		}
		bound = min(bound, g)
	}
	return bound, true
}

// skipClass is classifyCycle specialized to a provably idle cycle: nothing
// issued and no structural stall is possible (the LSU and store queues are
// empty), leaving the drain/idle and blocked-warp buckets.
func (sm *SM) skipClass() obs.CycleClass {
	if sm.liveWarps == 0 {
		if sm.l1.OutstandingMSHRs() > 0 {
			return obs.CycleDrain
		}
		return obs.CycleIdle
	}
	return sm.blockedClass()
}
