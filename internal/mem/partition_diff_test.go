package mem

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"caps/internal/config"
	"caps/internal/obs"
	"caps/internal/stats"
)

// The differential test drives Partition and the verbatim refPartition with
// one seeded traffic script and requires identical observable behaviour
// after every tick: events, stats, L2 state, responses toward the SMs, DRAM
// completions and idleness. In its gated mode the Partition rig ticks its
// DRAM channel and partitions only when they are due, as GPU.Step does,
// while the reference still ticks every unit on every cycle.

// partitionUnit is the subset of the partition API the harness drives.
type partitionUnit interface {
	Tick(now int64) error
	DeliverFromDRAM(now int64, r *Request) error
	L2() *Cache
	AttachObs(s *obs.Sink)
	EnableStallReplay()
	Idle() bool
}

// eventRecorder is an obs.Consumer that keeps every event it is handed.
type eventRecorder struct{ evs []obs.Event }

func (e *eventRecorder) Consume(ev obs.Event) { e.evs = append(e.evs, ev) }

// quietRecorder keeps every event except reservation fails, which it
// declines, so EvResFail is dead on its sink and only counters see fails.
type quietRecorder struct{ eventRecorder }

func (*quietRecorder) WantsKind(k obs.Kind) bool { return k != obs.EvResFail }

// sinkMode is what observes the rig's partitions.
type sinkMode int

const (
	noSink      sinkMode = iota
	allEvents            // a recorder subscribed to every kind
	resFailDead          // a recorder that declines EvResFail
)

// String names the subtests; the first two keep their sink=false and
// sink=true names from when the sink was a bool.
func (m sinkMode) String() string {
	return [...]string{"false", "true", "resfail-dead"}[m]
}

// diffRig is two partitions sharing one DRAM channel, like partitions i and
// i+6 of Table III, behind one interconnect.
type diffRig struct {
	st    *stats.Sim
	ic    *Interconnect
	dram  *DRAMChannel
	parts [2]partitionUnit
	snk   *obs.Sink
	rec   *eventRecorder
	gated bool // tick only the units that are due (Partition rigs only)
	skips int  // partition ticks the gated rig skipped
	slept int  // of those, skips over a non-empty retry queue
}

const diffSMs = 4

// diffConfig shrinks the DRAM queue, the L2 and its MSHR file and miss
// queue so that stores and demand retries both back up.
func diffConfig() config.GPUConfig {
	cfg := config.Default()
	cfg.NumSMs = diffSMs
	cfg.NumPartitions = 2
	cfg.ICNTLatency = 1
	cfg.ICNTQueue = 16
	cfg.ICNTWidth = 3
	cfg.L2 = config.CacheConfig{SizeKB: 2, LineBytes: 128, Ways: 4, MSHREntries: 3, HitLatency: 2, MissQueue: 2}
	cfg.DRAM.QueueEntries = 3
	return cfg
}

func newDiffRig(cfg config.GPUConfig, ref, stallReplay bool, sink sinkMode) *diffRig {
	d := &diffRig{st: &stats.Sim{}}
	d.ic = NewInterconnect(cfg.NumSMs, cfg.NumPartitions, cfg.ICNTQueue, cfg.ICNTLatency, cfg.ICNTWidth)
	d.dram = NewDRAMChannel(cfg, d.st)
	var snk *obs.Sink
	if sink != noSink {
		snk = obs.New(obs.Config{SMs: cfg.NumSMs, Partitions: 2, Channels: 1})
		if sink == allEvents {
			d.rec = &eventRecorder{}
			snk.Attach(d.rec)
		} else {
			q := &quietRecorder{}
			d.rec = &q.eventRecorder
			snk.Attach(q)
		}
		d.dram.AttachObs(snk, 0)
		d.snk = snk
	}
	for i := range d.parts {
		if ref {
			d.parts[i] = newRefPartition(i, cfg, d.dram, d.ic, d.st)
		} else {
			d.parts[i] = NewPartition(i, cfg, d.dram, d.ic, d.st)
		}
		if stallReplay {
			d.parts[i].EnableStallReplay()
		}
		if snk != nil {
			d.parts[i].AttachObs(snk)
		}
	}
	return d
}

// diffOp is one tick's worth of scripted traffic: requests to inject and
// the SMs whose response queue is drained this tick.
type diffOp struct {
	inject []Request
	pop    [diffSMs]bool
}

// diffScript generates n ticks of random traffic over a small line space,
// in phases of varying load and store share so that both the store FIFO
// and the demand retry queue fill and drain repeatedly.
func diffScript(seed int64, n int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]diffOp, n)
	var rate, storeShare, popRate float64
	for t := range ops {
		if t%400 == 0 {
			rate = []float64{0, 0.002, 0.006, 0.012, 0.03, 0.1}[rng.Intn(6)]
			storeShare = rng.Float64()
			popRate = 0.3 + 0.7*rng.Float64()
		}
		op := &ops[t]
		for k := 0; k < 3; k++ {
			if rng.Float64() >= rate {
				continue
			}
			kind := Demand
			switch f := rng.Float64(); {
			case f < storeShare:
				kind = Store
			case f < storeShare+(1-storeShare)/4:
				kind = Prefetch
			}
			op.inject = append(op.inject, Request{
				LineAddr:  uint64(rng.Intn(40)) * 128,
				Kind:      kind,
				SMID:      rng.Intn(diffSMs),
				WarpSlot:  rng.Intn(48),
				PC:        uint32(t), // unique enough to tell requests apart
				Partition: rng.Intn(2),
			})
		}
		for sm := range op.pop {
			op.pop[sm] = rng.Float64() < popRate
		}
	}
	return ops
}

// reqKey identifies a request by value across the two rigs, which own
// distinct Request objects.
func reqKey(r *Request) string {
	return fmt.Sprintf("%d/%v/%d/%d/%d/%d", r.LineAddr, r.Kind, r.SMID, r.WarpSlot, r.PC, r.Partition)
}

// tick applies one scripted tick in GPU.Step order — DRAM first, then the
// partitions — and reports everything observable it produced.
func (d *diffRig) tick(t *testing.T, now int64, op *diffOp) (trace []string) {
	t.Helper()
	for i := range op.inject {
		r := op.inject[i]
		trace = append(trace, fmt.Sprintf("push %s %v", reqKey(&r), d.ic.PushToPartition(now, &r)))
	}
	if !d.gated || d.dram.Due(now) {
		for _, r := range d.dram.Tick(now) {
			trace = append(trace, "dram "+reqKey(r))
			if err := d.parts[r.Partition].DeliverFromDRAM(now, r); err != nil {
				t.Fatalf("cycle %d: %v", now, err)
			}
		}
		if err := d.dram.SanitizerErr(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	for i, p := range d.parts {
		var err error
		if pp, ok := p.(*Partition); ok && d.gated && !pp.Due(now) {
			d.skips++
			if len(pp.retryQ) > 0 {
				d.slept++
			}
			err = pp.CheckSkip(now)
		} else {
			err = p.Tick(now)
		}
		if err != nil {
			t.Fatalf("cycle %d partition %d: %v", now, i, err)
		}
	}
	for sm, pop := range op.pop {
		for pop {
			r := d.ic.PopForSM(now, sm)
			if r == nil {
				break
			}
			trace = append(trace, "resp "+reqKey(r))
		}
	}
	for i, p := range d.parts {
		h := fnv.New64a()
		p.L2().HashState(h)
		trace = append(trace, fmt.Sprintf("part %d l2 %x idle %v", i, h.Sum64(), p.Idle()))
	}
	return trace
}

func TestPartitionMatchesReference(t *testing.T) {
	cfg := diffConfig()
	cfg.CheckInvariants = true
	for _, gated := range []bool{false, true} {
		for _, stall := range []bool{false, true} {
			for _, sink := range []sinkMode{noSink, allEvents, resFailDead} {
				name := fmt.Sprintf("stallReplay=%v/sink=%v", stall, sink)
				if gated {
					name = "gated/" + name
				}
				t.Run(name, func(t *testing.T) {
					matchReference(t, cfg, gated, stall, sink)
				})
			}
		}
	}
}

// matchReference runs TestPartitionMatchesReference's comparison for one
// mode over four seeded scripts.
func matchReference(t *testing.T, cfg config.GPUConfig, gated, stall bool, sink sinkMode) {
	const ticks = 8000
	for seed := int64(1); seed <= 4; seed++ {
		script := diffScript(seed, ticks)
		ref := newDiffRig(cfg, true, stall, sink)
		got := newDiffRig(cfg, false, stall, sink)
		got.gated = gated
		got.dram.EnableSanitizer("DRAM[0]")
		var cov backlogCoverage
		for now := int64(0); now < ticks; now++ {
			wantTr := ref.tick(t, now, &script[now])
			gotTr := got.tick(t, now, &script[now])
			if !reflect.DeepEqual(gotTr, wantTr) {
				t.Fatalf("seed %d cycle %d: observable state diverged\n got: %v\nwant: %v", seed, now, gotTr, wantTr)
			}
			if !reflect.DeepEqual(got.st, ref.st) {
				t.Fatalf("seed %d cycle %d: stats diverged\n got: %+v\nwant: %+v", seed, now, *got.st, *ref.st)
			}
			if sink != noSink {
				if !reflect.DeepEqual(got.rec.evs, ref.rec.evs) {
					t.Fatalf("seed %d cycle %d: events diverged\n got: %+v\nwant: %+v", seed, now, got.rec.evs, ref.rec.evs)
				}
				got.rec.evs, ref.rec.evs = got.rec.evs[:0], ref.rec.evs[:0]
				// The reference walks its frozen retries one counter at
				// a time; Partition counts them in bulk when EvResFail
				// is dead. Snapshots are slow, so compare them every
				// 100 ticks (the last tick included).
				if now%100 == 99 {
					if g, w := got.snk.Snapshot(), ref.snk.Snapshot(); !reflect.DeepEqual(g, w) {
						t.Fatalf("seed %d cycle %d: counters diverged\n got: %+v\nwant: %+v", seed, now, g, w)
					}
				}
			}
			cov.observe(got.parts[0].(*Partition))
		}
		// The script must back both queues up and drain them
		// again, or the comparison proves little about the
		// replay order.
		if cov.storeDrains < 3 || cov.retryDrains < 1 || (stall && cov.stalledTicks == 0) {
			t.Fatalf("seed %d: traffic too tame: %+v", seed, cov)
		}
		// A stalled retry queue sleeps only when no sink counts its fails.
		if gated && (got.skips == 0 || stall && sink == noSink && got.slept == 0) {
			t.Fatalf("seed %d: the gated rig skipped too little: %d skips, %d over stalled retries", seed, got.skips, got.slept)
		}
	}
}

// backlogCoverage counts how often a partition's store FIFO and demand
// retry queue emptied after holding requests, and how many ticks ended
// under the stalled-retry verdict.
type backlogCoverage struct {
	storeDrains, retryDrains, stalledTicks int
	stores, retries                        int
}

func (c *backlogCoverage) observe(p *Partition) {
	stores, retries := len(p.stores)-p.storeHead, len(p.retryQ)
	if stores == 0 && c.stores > 0 {
		c.storeDrains++
	}
	if retries == 0 && c.retries > 0 {
		c.retryDrains++
	}
	if p.retryStalled {
		c.stalledTicks++
	}
	c.stores, c.retries = stores, retries
}
