package mem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"caps/internal/config"
	"caps/internal/stats"
)

// dramUnit is the channel API the DRAM differential test and benchmark
// drive.
type dramUnit interface {
	Push(now int64, r *Request) bool
	Tick(now int64) []*Request
	Full() bool
}

// dramTraffic is a seeded mixed read/store source over a few rows per
// bank, so that row hits, row conflicts and a full command queue all
// occur. Phases of varying load let the queue fill and drain repeatedly.
type dramTraffic struct {
	rng              *rand.Rand
	rowBytes, banks  uint64
	rate, storeShare float64
}

func newDRAMTraffic(cfg config.GPUConfig, seed int64) *dramTraffic {
	return &dramTraffic{rng: rand.New(rand.NewSource(seed)),
		rowBytes: uint64(cfg.DRAM.RowBytes), banks: uint64(cfg.DRAM.BanksPerChannel)}
}

// next returns this cycle's request, or nil.
func (d *dramTraffic) next(now int64) *Request {
	if now%500 == 0 {
		d.rate = []float64{0, 0.01, 0.05, 0.2, 0.6}[d.rng.Intn(5)]
		d.storeShare = d.rng.Float64()
	}
	if d.rng.Float64() >= d.rate {
		return nil
	}
	kind := Demand
	if d.rng.Float64() < d.storeShare {
		kind = Store
	}
	row := uint64(d.rng.Intn(int(3 * d.banks)))
	return &Request{LineAddr: row*d.rowBytes + uint64(d.rng.Intn(4))*128, Kind: kind, PC: uint32(now)}
}

// TestDRAMChannelMatchesReference drives DRAMChannel and the verbatim
// refDRAMChannel with one seeded traffic script and compares, after every
// tick, the completed requests, queue depth, idleness and stats. The
// gated runs tick DRAMChannel only when Due, as GPU.Step does, while the
// reference ticks every cycle.
func TestDRAMChannelMatchesReference(t *testing.T) {
	for _, entries := range []int{3, 16} {
		for _, gated := range []bool{false, true} {
			t.Run(fmt.Sprintf("queue=%d/gated=%v", entries, gated), func(t *testing.T) {
				cfg := config.Default()
				cfg.DRAM.QueueEntries = entries
				for seed := int64(1); seed <= 4; seed++ {
					matchDRAMReference(t, cfg, seed, gated)
				}
			})
		}
	}
}

func matchDRAMReference(t *testing.T, cfg config.GPUConfig, seed int64, gated bool) {
	const ticks = 20000
	refSt, gotSt := &stats.Sim{}, &stats.Sim{}
	ref, got := newRefDRAMChannel(cfg, refSt), NewDRAMChannel(cfg, gotSt)
	got.EnableSanitizer("DRAM[0]")
	traffic := newDRAMTraffic(cfg, seed)
	fullCycles, skips := 0, 0
	for now := int64(0); now < ticks; now++ {
		if r := traffic.next(now); r != nil {
			if a, b := ref.Push(now, r), got.Push(now, r); a != b {
				t.Fatalf("seed %d cycle %d: push accepted %v, reference %v", seed, now, b, a)
			}
		}
		if ref.Full() {
			fullCycles++
		}
		want := ref.Tick(now)
		var done []*Request
		if !gated || got.Due(now) {
			done = got.Tick(now)
		} else {
			skips++
		}
		if len(done) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(done, want) {
				t.Fatalf("seed %d cycle %d: completed %v, reference %v", seed, now, done, want)
			}
		}
		if got.QueueLen() != ref.QueueLen() || got.Idle() != ref.Idle() {
			t.Fatalf("seed %d cycle %d: queue %d idle %v, reference queue %d idle %v",
				seed, now, got.QueueLen(), got.Idle(), ref.QueueLen(), ref.Idle())
		}
		if *gotSt != *refSt {
			t.Fatalf("seed %d cycle %d: stats diverged\n got: %+v\nwant: %+v", seed, now, *gotSt, *refSt)
		}
		if err := got.SanitizerErr(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if fullCycles == 0 || refSt.DRAMReads == 0 || refSt.StoresIssued == 0 || refSt.DRAMRowHits == 0 || refSt.DRAMRowMisses == 0 {
		t.Fatalf("seed %d: traffic too tame: %d full cycles, stats %+v", seed, fullCycles, *refSt)
	}
	if gated && skips == 0 {
		t.Fatalf("seed %d: the gated channel never skipped a tick", seed)
	}
}

// BenchmarkDRAMChannelTick times one cycle of a channel whose command
// queue is kept full of mixed reads and stores, the state the memory-bound
// kernels spend most of their runs in; /ref runs the reference channel
// that rescans its in-service reads and /fifo the completion FIFO, ticked
// only when Due as GPU.Step does it (the reference has the same test
// built in), so ns/op is ns per cycle, before and after, from one host.
//
//	go test -run '^$' -bench DRAMChannelTick -benchtime 200x ./internal/mem
func BenchmarkDRAMChannelTick(b *testing.B) {
	for _, impl := range []struct {
		name string
		new  func(config.GPUConfig, *stats.Sim) (dramUnit, func(int64) bool)
	}{
		{"ref", func(c config.GPUConfig, st *stats.Sim) (dramUnit, func(int64) bool) {
			return newRefDRAMChannel(c, st), func(int64) bool { return true }
		}},
		{"fifo", func(c config.GPUConfig, st *stats.Sim) (dramUnit, func(int64) bool) {
			ch := NewDRAMChannel(c, st)
			return ch, ch.Due
		}},
	} {
		b.Run(impl.name, func(b *testing.B) {
			cfg := config.Default()
			st := &stats.Sim{}
			ch, due := impl.new(cfg, st)
			rng := rand.New(rand.NewSource(1))
			rowBytes, banks := uint64(cfg.DRAM.RowBytes), uint64(cfg.DRAM.BanksPerChannel)
			cycle := func(now int64) {
				for !ch.Full() {
					kind := Demand
					if rng.Intn(3) == 0 {
						kind = Store
					}
					ch.Push(now, &Request{LineAddr: uint64(rng.Intn(int(4*banks)))*rowBytes + uint64(rng.Intn(8))*128, Kind: kind})
				}
				if due(now) {
					ch.Tick(now)
				}
			}
			const warmup = 5000
			for now := int64(0); now < warmup; now++ {
				cycle(now)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(warmup + int64(i))
			}
			b.StopTimer()
			b.ReportMetric(float64(st.DRAMReads+st.StoresIssued)/float64(warmup+b.N), "cmds/cycle")
		})
	}
}
