package sim

import (
	"reflect"
	"testing"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/obs"
)

// withTickEveryPartition selects the partition reference: every L2
// partition ticks on every cycle, due or not (options.tickEveryPart), so a
// quiet retry queue counts its fails one tick at a time.
func withTickEveryPartition() Option { return func(o *options) { o.tickEveryPart = true } }

// quietRun is what one run of the quiet-span differential yields.
type quietRun struct {
	stats    uint64
	hashes   []uint64 // state hash every windowHashEvery cycles
	snap     []obs.Sample
	resFails int64 // l2_resfail_total over every partition and label
	// due counts the partitions due (Partition.Due) when each cycle
	// starts: the ticks a gated run makes, but for a DRAM fill that wakes
	// a partition in the cycle it lands. The reference ticks all of them.
	due    int64
	cycles int64
}

// runQuiet steps BFS-CAPS at 15 SMs under the sanitizer, which audits
// every settled quiet span and skipped tick, on a metrics-only sink or,
// when sink is false, on none.
func runQuiet(t *testing.T, sink bool, opts ...Option) *quietRun {
	t.Helper()
	cfg := config.Default()
	cfg.Scheduler = config.SchedPAS
	cfg.MaxInsts = 60_000
	cfg.CheckInvariants = true
	if cfg.NumSMs != 15 {
		t.Fatalf("default config has %d SMs, want 15", cfg.NumSMs)
	}
	k, err := kernels.ByAbbr("BFS")
	if err != nil {
		t.Fatal(err)
	}
	var snk *obs.Sink
	if sink {
		snk = NewSink(cfg, false, 0)
	}
	g, err := New(cfg, k, append(opts, WithPrefetcher("caps"), WithObs(snk))...)
	if err != nil {
		t.Fatal(err)
	}
	r := &quietRun{}
	for !g.Done() && g.Instructions() < cfg.MaxInsts {
		if g.Cycle()%windowHashEvery == 0 {
			r.hashes = append(r.hashes, windowStateHash(g))
		}
		for _, p := range g.Partitions() {
			if p.Due(g.Cycle()) {
				r.due++
			}
		}
		if err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Close settles and audits the last quiet spans.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	r.stats = g.Stats().Hash64()
	r.hashes = append(r.hashes, windowStateHash(g))
	r.snap = snk.Snapshot()
	for _, s := range r.snap {
		if s.Name == "l2_resfail_total" {
			r.resFails += s.Value
		}
	}
	r.cycles = g.Cycle()
	return r
}

// TestQuietPartitionsMatchEveryCycle is the differential for the L2
// partitions' quiet spans: on a metrics-only sink a partition whose
// stalled retry queue only counts fails sleeps, and the fails of the
// cycles it slept are counted in bulk when it next settles. That must be
// indistinguishable from ticking every partition on every cycle — the
// reservation-fail counters and every other metric, the statistics and
// the checkpoint hash series — while the partitions tick less: exactly
// as few as on a bare run, where nothing counts the fails.
func TestQuietPartitionsMatchEveryCycle(t *testing.T) {
	ref := runQuiet(t, true, withTickEveryPartition())
	got := runQuiet(t, true)
	bare := runQuiet(t, false)
	if ref.resFails == 0 {
		t.Fatal("no L2 reservation fail was counted; the differential exercises nothing")
	}
	if got.resFails != ref.resFails {
		t.Errorf("l2_resfail_total %d, want %d", got.resFails, ref.resFails)
	}
	if !reflect.DeepEqual(got.snap, ref.snap) {
		t.Error("metrics snapshot differs")
	}
	if got.stats != ref.stats {
		t.Errorf("stats hash %#x, want %#x", got.stats, ref.stats)
	}
	if !reflect.DeepEqual(got.hashes, ref.hashes) {
		t.Errorf("checkpoint hash series differs (%d vs %d checkpoints)", len(got.hashes), len(ref.hashes))
	}
	every := ref.cycles * int64(config.Default().NumPartitions)
	if got.due >= every {
		t.Errorf("%d partitions due against the reference's %d ticks: no quiet span slept", got.due, every)
	}
	if got.due != bare.due {
		t.Errorf("%d partitions due on a metrics sink, %d on a bare run: the sink keeps quiet retry queues due", got.due, bare.due)
	}
	t.Logf("%d cycles, %d L2 fails; partitions due %d (bare run %d, every cycle %d)", got.cycles, got.resFails, got.due, bare.due, every)
}
