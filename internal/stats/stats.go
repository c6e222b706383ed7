// Package stats collects the counters the CAPS paper reports: IPC,
// prefetch coverage/accuracy, bandwidth overhead, timeliness and stall
// breakdowns. One Sim value is shared by all components of a single GPU
// run; the simulator is single-goroutine so no locking is needed.
package stats

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strings"
)

// Sim aggregates every counter for one simulation run. One instance is
// shared by every SM, prefetcher and memory partition of the GPU.
type Sim struct {
	// Progress.
	Cycles       int64
	Instructions int64 // warp instructions issued
	WarpsDone    int64
	CTAsDone     int64

	// Issue behaviour.
	IssueCycles int64 // cycles where at least one instruction issued
	StallCycles int64 // cycles where no warp was schedulable
	MemStalls   int64 // cycles where the LSU rejected a replay (reservation fail)

	// L1 demand traffic.
	DemandAccesses   int64 // coalesced demand accesses presented to L1
	DemandHits       int64
	DemandMisses     int64 // misses that allocated a new MSHR (go to memory)
	DemandMerged     int64 // misses merged into an in-flight MSHR
	ReservationFails int64

	// Prefetch traffic.
	PrefIssued  int64 // prefetches admitted into L1 (post-dedup)
	PrefDropped int64 // generated but dropped (duplicate, present, throttled, full)
	// Drop breakdown (components of PrefDropped).
	PrefDropQueueFull int64 // prefetch queue overflow
	PrefDropDup       int64 // same line already queued
	PrefDropStale     int64 // candidate exceeded its TTL before admission
	PrefDropCTAGone   int64 // target warp's CTA already departed
	PrefDropPresent   int64 // line already resident in L1
	PrefDropInFlight  int64 // line already being fetched
	PrefDropSetFull   int64 // target set already full of unconsumed prefetches
	PrefToMemory      int64 // prefetch misses sent to the memory system
	PrefUseful        int64 // prefetched lines consumed by a demand access
	PrefLate          int64 // demand merged into an in-flight prefetch MSHR
	PrefEarlyEvict    int64 // prefetched lines evicted before any use
	PrefUnusedAtEnd   int64 // prefetched lines never touched, still resident at end
	PrefVerifyOK      int64 // CAP address verification matches
	PrefVerifyBad     int64 // CAP address verification mismatches

	// Timeliness: sum/count of (demand cycle - prefetch issue cycle) over
	// useful prefetches.
	PrefDistanceSum   int64
	PrefDistanceCount int64

	// Memory-system traffic.
	CoreToMemRequests int64 // all fetch requests leaving the SMs (Fig. 13a numerator)
	L2Accesses        int64
	L2Hits            int64
	DRAMReads         int64 // line reads serviced by DRAM (Fig. 13b numerator)
	DRAMRowHits       int64
	DRAMRowMisses     int64
	StoresIssued      int64

	// Latency observation: sum/count of demand round-trip cycles.
	DemandLatencySum   int64
	DemandLatencyCount int64

	// Scheduler behaviour.
	WakeupPromotions int64 // PAS eager wake-ups performed

	// Energy events (consumed by internal/energy).
	ALUOps          int64
	L1Accesses      int64 // demand + prefetch probes
	SharedMemOps    int64
	PrefTableLookup int64 // CAPS PerCTA/DIST accesses
}

// UncountDemandReplay reverses the demand-access accounting for an access
// the L1 refused (reservation fail): the LSU replays it next cycle, so
// leaving it counted would double-bill the replayed access. Corrections
// live here as accessors so that counters stay monotonic at every call
// site outside this package (simcheck's statlint pass enforces that).
func (s *Sim) UncountDemandReplay() {
	s.DemandAccesses--
	s.L1Accesses--
}

// UncountL2Replay reverses the L2 access counter for a request the slice
// could not accept (reservation fail); the partition retries it next cycle.
func (s *Sim) UncountL2Replay() {
	s.L2Accesses--
}

// Hash64 folds every counter into an FNV-1a hash. The determinism harness
// compares hashes across repeated runs; reflection keeps the hash in sync
// as counters are added, and struct field order is fixed by the source, so
// the fold order is deterministic.
func (s *Sim) Hash64() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	v := reflect.ValueOf(*s)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int64 {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(f.Int()))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// AddFrom drains src into s: every int64 counter is added to s's matching
// field and zeroed in src, so repeated merges never double count. The GPU
// merges its memory units' counters into the run's this way, and the
// benchmark harness under simbench/ sums several runs' totals.
// Reflection keeps the merge in sync with the field set exactly as Hash64
// does.
func (s *Sim) AddFrom(src *Sim) {
	dv := reflect.ValueOf(s).Elem()
	sv := reflect.ValueOf(src).Elem()
	for i := 0; i < dv.NumField(); i++ {
		f := dv.Field(i)
		if f.Kind() != reflect.Int64 {
			continue
		}
		sf := sv.Field(i)
		if v := sf.Int(); v != 0 {
			f.SetInt(f.Int() + v)
			sf.SetInt(0)
		}
	}
}

// IPC returns instructions per cycle over the whole run.
func (s *Sim) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Coverage is the paper's Fig. 12a metric: issued prefetch requests over
// total demand fetch requests (demand misses that went to memory).
func (s *Sim) Coverage() float64 {
	den := s.DemandMisses + s.DemandMerged
	if den == 0 {
		return 0
	}
	return float64(s.PrefIssued) / float64(den)
}

// Accuracy is the paper's Fig. 12b metric: prefetches actually consumed by a
// demand request over prefetches issued.
func (s *Sim) Accuracy() float64 {
	if s.PrefIssued == 0 {
		return 0
	}
	return float64(s.PrefUseful+s.PrefLate) / float64(s.PrefIssued)
}

// EarlyPrefetchRatio is Fig. 14a: prefetched lines evicted before use over
// prefetches issued.
func (s *Sim) EarlyPrefetchRatio() float64 {
	if s.PrefIssued == 0 {
		return 0
	}
	return float64(s.PrefEarlyEvict) / float64(s.PrefIssued)
}

// MeanPrefetchDistance is Fig. 14b: average cycles between a useful
// prefetch's issue and its demand access.
func (s *Sim) MeanPrefetchDistance() float64 {
	if s.PrefDistanceCount == 0 {
		return 0
	}
	return float64(s.PrefDistanceSum) / float64(s.PrefDistanceCount)
}

// MeanDemandLatency is the average demand round trip in cycles.
func (s *Sim) MeanDemandLatency() float64 {
	if s.DemandLatencyCount == 0 {
		return 0
	}
	return float64(s.DemandLatencySum) / float64(s.DemandLatencyCount)
}

// L1MissRate is demand misses (including merges) over demand accesses.
func (s *Sim) L1MissRate() float64 {
	if s.DemandAccesses == 0 {
		return 0
	}
	return float64(s.DemandMisses+s.DemandMerged) / float64(s.DemandAccesses)
}

// String renders a compact human-readable report.
func (s *Sim) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d insts=%d ipc=%.4f\n", s.Cycles, s.Instructions, s.IPC())
	fmt.Fprintf(&b, "L1: acc=%d hit=%d miss=%d merged=%d resfail=%d missrate=%.3f\n",
		s.DemandAccesses, s.DemandHits, s.DemandMisses, s.DemandMerged, s.ReservationFails, s.L1MissRate())
	fmt.Fprintf(&b, "prefetch: issued=%d dropped=%d useful=%d late=%d earlyevict=%d cov=%.3f acc=%.3f dist=%.1f\n",
		s.PrefIssued, s.PrefDropped, s.PrefUseful, s.PrefLate, s.PrefEarlyEvict,
		s.Coverage(), s.Accuracy(), s.MeanPrefetchDistance())
	fmt.Fprintf(&b, "prefdrop: qfull=%d dup=%d stale=%d ctagone=%d present=%d inflight=%d setfull=%d\n",
		s.PrefDropQueueFull, s.PrefDropDup, s.PrefDropStale, s.PrefDropCTAGone,
		s.PrefDropPresent, s.PrefDropInFlight, s.PrefDropSetFull)
	fmt.Fprintf(&b, "memory: core2mem=%d l2acc=%d l2hit=%d dramRd=%d rowhit=%d lat=%.1f\n",
		s.CoreToMemRequests, s.L2Accesses, s.L2Hits, s.DRAMReads, s.DRAMRowHits, s.MeanDemandLatency())
	fmt.Fprintf(&b, "sched: stall=%d memstall=%d wakeups=%d ctas=%d\n",
		s.StallCycles, s.MemStalls, s.WakeupPromotions, s.CTAsDone)
	return b.String()
}

// Histogram is a fixed-bucket integer histogram used for distance and
// latency distributions.
type Histogram struct {
	BucketWidth int64
	Counts      []int64
	Overflow    int64
	total       int64
	sum         int64
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(bucketWidth int64, n int) *Histogram {
	if bucketWidth <= 0 {
		panic("stats: bucket width must be positive")
	}
	if n <= 0 {
		panic("stats: bucket count must be positive")
	}
	return &Histogram{BucketWidth: bucketWidth, Counts: make([]int64, n)}
}

// Add records one sample. Negative samples clamp to bucket zero.
func (h *Histogram) Add(v int64) {
	h.total++
	h.sum += v
	if v < 0 {
		v = 0
	}
	i := v / h.BucketWidth
	if i >= int64(len(h.Counts)) {
		h.Overflow++
		return
	}
	h.Counts[i]++
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() int64 { return h.total }

// Mean returns the arithmetic mean of all samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Percentile returns an approximate percentile (0 < p <= 100) using bucket
// upper bounds. Overflowed samples report as +inf-like max bound.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	target := int64(p / 100 * float64(h.total))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= target {
			return int64(i+1) * h.BucketWidth
		}
	}
	return int64(len(h.Counts)) * h.BucketWidth
}

// Table is a tiny helper to format aligned result tables for the
// experiment drivers.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, hdr := range t.Header {
		widths[i] = len(hdr)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// GeoMean returns the geometric mean of strictly positive values; zero or
// negative entries are skipped (matching how the paper averages normalized
// IPC over benchmarks that completed).
func GeoMean(vs []float64) float64 {
	prod := 1.0
	n := 0
	for _, v := range vs {
		if v > 0 {
			prod *= v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// Mean returns the arithmetic mean (the paper's figures use arithmetic
// means across benchmarks).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Median returns the median of the values.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
