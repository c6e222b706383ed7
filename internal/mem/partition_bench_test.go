package mem

import (
	"math/rand"
	"testing"

	"caps/internal/config"
)

// BenchmarkPartitionStoreBacklog times one cycle of a partition pair whose
// shared DRAM channel is saturated by writes, the state LPS and JC1 spend
// most of their runs in. A closed loop keeps storeBacklog stores
// outstanding per partition beside a trickle of demand reads; /ref runs the
// merged-queue reference partition and /fifo the store FIFO on the same
// traffic, so ns/op is ns per cycle, before and after, from one host.
//
//	go test -run '^$' -bench PartitionStoreBacklog -benchtime 200x ./internal/mem
func BenchmarkPartitionStoreBacklog(b *testing.B) {
	for _, impl := range []struct {
		name string
		ref  bool
	}{{"ref", true}, {"fifo", false}} {
		b.Run(impl.name, func(b *testing.B) {
			cfg := config.Default()
			cfg.ICNTLatency = 1
			l := &backlogLoad{rig: newDiffRig(cfg, impl.ref, true, false), rng: rand.New(rand.NewSource(1))}
			for now := int64(0); now < backlogWarmup; now++ {
				l.cycle(now)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.cycle(backlogWarmup + int64(i))
			}
			b.StopTimer()
			b.ReportMetric(float64(l.storesOutstanding())/2, "stores/part")
		})
	}
}

const (
	storeBacklog  = 300  // outstanding stores per partition the load holds
	demandCap     = 48   // outstanding demand reads per partition
	backlogWarmup = 6000 // cycles to build the backlog before timing
)

// backlogLoad is the closed-loop traffic source of the store-backlog
// benchmark.
type backlogLoad struct {
	rig             *diffRig
	rng             *rand.Rand
	stores, demands int64 // injected so far
	responses       int64
	nextLine        uint64
}

func (l *backlogLoad) storesOutstanding() int64 { return l.stores - l.rig.st.StoresIssued }

// cycle injects this cycle's traffic and ticks the rig in GPU.Step order.
func (l *backlogLoad) cycle(now int64) {
	d := l.rig
	for k := 0; k < 4; k++ {
		r := &Request{Partition: k % 2, SMID: k}
		switch {
		case l.demands-l.responses < 2*demandCap && l.rng.Intn(16) == 0:
			// Demands read a 512 KB region.
			r.Kind, r.LineAddr = Demand, uint64(l.rng.Intn(4096))*128
		case l.storesOutstanding() < 2*storeBacklog:
			// Stores stream through memory.
			l.nextLine += 128
			r.Kind, r.LineAddr = Store, l.nextLine
		default:
			continue
		}
		if !d.ic.PushToPartition(now, r) {
			continue
		}
		if r.Kind == Store {
			l.stores++
		} else {
			l.demands++
		}
	}
	for _, r := range d.dram.Tick(now) {
		if err := d.parts[r.Partition].DeliverFromDRAM(now, r); err != nil {
			panic(err)
		}
	}
	for _, p := range d.parts {
		if err := p.Tick(now); err != nil {
			panic(err)
		}
	}
	for sm := 0; sm < 4; sm++ {
		for d.ic.PopForSM(now, sm) != nil {
			l.responses++
		}
	}
}
