package sim

import (
	"caps/internal/obs"
	"caps/internal/sched"
)

// Idle-cycle fast-forward (WithIdleSkip) works per SM.
//
// Sleep: at the end of a tick that issued nothing, the SM caches how long
// its issue stage is provably dead (trySleep). Two windows nest: the
// issue sleep (issueBound: quiescent scheduler, no warp eligible before
// the bound) lets Tick skip the scheduler scan while the memory pipes
// keep ticking — the dominant case in memory-saturated phases, where the
// LSU head replays reservation fails for thousands of cycles — and the
// full sleep (additionally empty LSU/store/prefetch/miss queues)
// short-circuits the whole tick right after acceptResponses. Fills, CTA
// launches and pumpLSU retiring a warp's last access void both windows
// (SM.wake), and every slept cycle records exactly the stall cycle and
// stall-stack class the full pipeline would have. Workloads where one SM
// streams memory while the rest wait spend their idle SM-cycles here,
// skipping the scheduler scan that dominates them.
//
// Stall replay (tryStallReplay) covers the structural stall the sleep
// windows cannot: warps stay eligible but nothing can move, so Tick
// replays the cycle's constant deltas in O(1).
//
// Every cycle still executes a GPU.Step, so beats, caps and the per-cycle
// event stream land exactly as without the option, and state hashes and
// statistics are bit-identical either way.

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
	q, ok := sm.sched.(sched.Quiescer)
	if !ok || !q.Quiescent(sm) {
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
