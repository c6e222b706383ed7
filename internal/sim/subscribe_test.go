package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/memlens"
	"caps/internal/obs"
	"caps/internal/profile"
	"caps/internal/schedlens"
)

// resFailCounter is a catch-all consumer: it declares no KindFilter, so
// every kind stays live on its sink — the L2 partitions walk their frozen
// retry queues and every reservation fail builds an event — and it tallies
// the EvResFail events by cache level and label.
type resFailCounter struct {
	n map[string]int64 // "l1/mshr", "l2/queue", ...
}

func (c *resFailCounter) Consume(e obs.Event) {
	if e.Kind != obs.EvResFail {
		return
	}
	c.n[resFailKey(e.Dom == obs.DomSM, e.Arg == 1)]++
}

func resFailKey(l1, queue bool) string {
	level, label := "l2", "mshr"
	if l1 {
		level = "l1"
	}
	if queue {
		label = "queue"
	}
	return level + "/" + label
}

// resFailTotals sums a snapshot's nonzero reservation-fail counters by
// level and label, the keys resFailCounter uses.
func resFailTotals(snap []obs.Sample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range snap {
		if s.Value == 0 || s.Name != "l1_resfail_total" && s.Name != "l2_resfail_total" {
			continue
		}
		out[resFailKey(s.Name == "l1_resfail_total", strings.Contains(s.Labels, `kind="queue"`))] += s.Value
	}
	return out
}

// subscribeRun is what one attachment of the differential produced.
type subscribeRun struct {
	snap  []obs.Sample
	hash  uint64
	prof  *profile.Profile
	mem   *memlens.Profile
	sched *schedlens.Profile
	fails map[string]int64 // catch-all consumer's EvResFail tally
}

// TestUnsubscribedKindsCountTheSame is the differential for the
// subscription rule: a sink on which EvResFail is dead counts reservation
// fails in bulk (the L2 partition's frozen retry queue) or without
// building events (everywhere else), and must agree counter for counter
// with a sink whose catch-all consumer keeps every kind live and so walks
// the per-retry path. BFS and LPS are the L2-backlogged benchmarks that
// make the bulk count carry tens of thousands of fails per run.
func TestUnsubscribedKindsCountTheSame(t *testing.T) {
	for _, bench := range []string{"BFS", "LPS"} {
		k, err := kernels.ByAbbr(bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Default()
		cfg.Scheduler = config.SchedPAS
		cfg.MaxInsts = 30_000
		// Every run is compared with the first of its kind: counters and
		// the stats hash with the metrics-only run on the plain per-cycle
		// pipeline, profiles with the first run that built them. The
		// executor is invisible to all of them, so fast-forward runs are
		// held to the plain ones too.
		var base, profRef, lensRef *subscribeRun
		for _, fastForward := range []bool{false, true} {
			for _, a := range []string{"metrics", "profile", "lenses", "catch-all"} {
				name := fmt.Sprintf("%s fastForward=%v %s", bench, fastForward, a)
				r := runSubscribed(t, cfg, k, fastForward, a)
				if base == nil {
					base = r
					for _, key := range []string{"l1/mshr", "l2/mshr", "l2/queue"} {
						if resFailTotals(r.snap)[key] == 0 {
							t.Fatalf("%s: no %s reservation fails; the run does not reach the backlog", name, key)
						}
					}
				}
				if !reflect.DeepEqual(r.snap, base.snap) {
					t.Errorf("%s: counters differ from the metrics-only run\n got: %v\nwant: %v",
						name, resFailTotals(r.snap), resFailTotals(base.snap))
				}
				if r.hash != base.hash {
					t.Errorf("%s: stats hash %#x, want %#x", name, r.hash, base.hash)
				}
				if r.fails != nil {
					if want := resFailTotals(r.snap); !reflect.DeepEqual(r.fails, want) {
						t.Errorf("%s: consumer saw EvResFail events %v, counters say %v", name, r.fails, want)
					}
				}
				if r.prof != nil {
					if profRef == nil {
						profRef = r
					} else if !reflect.DeepEqual(r.prof, profRef.prof) {
						t.Errorf("%s: capsprof profile differs from the first profiled run", name)
					}
				}
				if r.mem != nil {
					if lensRef == nil {
						lensRef = r
					} else if !reflect.DeepEqual(r.mem, lensRef.mem) || !reflect.DeepEqual(r.sched, lensRef.sched) {
						t.Errorf("%s: memlens or schedlens profile differs from the first lensed run", name)
					}
				}
			}
		}
	}
}

// runSubscribed runs k with a sink and the named attachment.
func runSubscribed(t *testing.T, cfg config.GPUConfig, k *kernels.Kernel, fastForward bool, attach string) *subscribeRun {
	t.Helper()
	snk := NewSink(cfg, false, 0)
	opts := []Option{WithPrefetcher("caps"), WithObs(snk)}
	if !fastForward {
		opts = append(opts, withoutFastForward())
	}
	var (
		col *profile.Collector
		ml  *memlens.Collector
		sl  *schedlens.Collector
		cnt *resFailCounter
	)
	switch attach {
	case "profile", "lenses":
		col = profile.NewCollector(cfg.NumSMs)
		snk.Attach(col)
		if attach == "lenses" {
			ml, sl = memlens.ForConfig(cfg), schedlens.ForConfig(cfg)
			opts = append(opts, WithConsumer(ml), WithConsumer(sl))
		}
	case "catch-all":
		cnt = &resFailCounter{n: map[string]int64{}}
		snk.Attach(cnt)
	}
	g, err := New(cfg, k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	r := &subscribeRun{snap: snk.Snapshot(), hash: st.Hash64()}
	if col != nil {
		if r.prof, err = col.Build(profile.Meta{Bench: k.Abbr, Prefetcher: "caps", SMs: cfg.NumSMs}, st); err != nil {
			t.Fatal(err)
		}
	}
	if ml != nil {
		r.mem = ml.Build(memlens.Meta{Bench: k.Abbr, Prefetcher: "caps", Cycles: st.Cycles})
		r.sched = sl.Build(schedlens.Meta{Bench: k.Abbr, Prefetcher: "caps", Cycles: st.Cycles})
	}
	if cnt != nil {
		r.fails = cnt.n
	}
	return r
}

// TestLensOptionsAttach pins the consumer options: WithConsumer and its
// typed forwarders attach a collector (creating the run's sink), and a nil
// collector through any of them attaches nothing.
func TestLensOptionsAttach(t *testing.T) {
	cfg := obsConfig()
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg, k, WithConsumer(nil), WithMemLens(nil), WithSchedLens(nil))
	if err != nil {
		t.Fatal(err)
	}
	if g.snk != nil {
		t.Fatal("nil collectors created a sink")
	}
	for _, opt := range []Option{
		WithConsumer(profile.NewCollector(cfg.NumSMs)),
		WithMemLens(memlens.ForConfig(cfg)),
		WithSchedLens(schedlens.ForConfig(cfg)),
	} {
		g, err := New(cfg, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		if g.snk == nil {
			t.Error("a collector attached no sink")
		}
	}
}
