package memlens

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"caps/internal/obs"
	"caps/internal/stats"
)

// Meta labels the run a profile was folded from.
type Meta struct {
	Bench      string `json:"bench,omitempty"`
	Prefetcher string `json:"prefetcher,omitempty"`
	Cycles     int64  `json:"cycles"`
}

// HistBucket is one non-empty log2 histogram bucket: Count values were
// <= Le (and greater than the previous bucket's Le).
type HistBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Histo is an exported log2-bucketed histogram.
type Histo struct {
	Buckets []HistBucket `json:"buckets,omitempty"`
	Count   int64        `json:"count"`
	Mean    float64      `json:"mean"`
}

func (h *hist) export() Histo {
	out := Histo{Count: h.n}
	if h.n > 0 {
		out.Mean = float64(h.sum) / float64(h.n)
	}
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		le := int64(math.MaxInt64)
		if i < 63 {
			le = (int64(1) << i) - 1 // bucket i holds values with bits.Len == i
		}
		out.Buckets = append(out.Buckets, HistBucket{Le: le, Count: n})
	}
	return out
}

// Percentile returns the upper bound of the bucket containing the p-th
// percentile (0 < p <= 1) — an upper estimate, exact to log2 resolution.
func (h Histo) Percentile(p float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(h.Count)))
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.Le
		}
	}
	return h.Buckets[len(h.Buckets)-1].Le
}

// PCAddr is one load PC's address-structure verdict: how much of its
// access stream the affine θ(CTA) + Δ·warpInCTA model explains.
type PCAddr struct {
	PC           uint32 `json:"pc"`
	Observations int64  `json:"observations"`
	Indirect     int64  `json:"indirect"`
	Anchors      int64  `json:"anchors"` // first obs per (CTA, iteration): defines θ
	Explained    int64  `json:"explained"`
	Unexplained  int64  `json:"unexplained"`
	Delta        int64  `json:"delta"` // majority-vote warp stride (bytes)
	// ExplainedFrac is explained/(explained+unexplained): the fraction of
	// *testable* observations the affine model predicts exactly.
	ExplainedFrac float64 `json:"explained_frac"`
	// ResidualEntropy is the Shannon entropy (bits) of the log2-residual
	// distribution over unexplained observations: near 0 means residuals
	// concentrate at one magnitude (a secondary stride), high means the
	// addresses are effectively unstructured.
	ResidualEntropy  float64 `json:"residual_entropy"`
	TruncatedAnchors int64   `json:"truncated_anchors,omitempty"`
}

// AddrStructure aggregates the Fig. 6-style decomposition over load PCs.
type AddrStructure struct {
	PCs []PCAddr `json:"pcs"`
	// ExplainedFrac is the observation-weighted mean over PCs.
	ExplainedFrac float64 `json:"explained_frac"`
	// IndirectFrac is indirect observations over all observations.
	IndirectFrac float64 `json:"indirect_frac"`
	TruncatedPCs int64   `json:"truncated_pcs,omitempty"`
}

// PCTimeliness is one load PC's prefetch outcome ledger.
type PCTimeliness struct {
	PC          uint32  `json:"pc"`
	Admits      int64   `json:"admits"`
	Fills       int64   `json:"fills"`
	Consumes    int64   `json:"consumes"`
	Lates       int64   `json:"lates"`
	EarlyEvicts int64   `json:"early_evicts"`
	MeanUseDist float64 `json:"mean_use_distance"`
}

// Timeliness is the prefetch lifecycle timing profile. The counters are
// exact (they reconcile against stats.Sim); the histograms cover the
// tracked subset (bounded by maxInPref).
type Timeliness struct {
	Admits      int64 `json:"admits"`
	Fills       int64 `json:"fills"`
	Consumes    int64 `json:"consumes"` // accurate: filled, then demanded
	Lates       int64 `json:"lates"`    // demand merged while in flight
	EarlyEvicts int64 `json:"early_evicts"`
	// Useless is fills never consumed nor early-evicted: still resident,
	// unused, when the run ended (clamped at 0).
	Useless        int64          `json:"useless"`
	IssueToFill    Histo          `json:"issue_to_fill"`
	FillToUse      Histo          `json:"fill_to_use"`
	IssueToUse     Histo          `json:"issue_to_use"`
	PCs            []PCTimeliness `json:"pcs,omitempty"`
	TruncatedLines int64          `json:"truncated_lines,omitempty"`
}

// ReuseLevel is one cache level's sampled reuse-interval histogram. The
// interval is measured in accesses to the same physical cache (per SM for
// L1, per partition for L2) between a sampled touch of a line and the next
// touch of that line.
type ReuseLevel struct {
	Level     string `json:"level"`
	Accesses  int64  `json:"accesses"`
	Sampled   int64  `json:"sampled"`
	Reused    int64  `json:"reused"`
	NoReuse   int64  `json:"no_reuse"` // sampled lines never touched again
	Truncated int64  `json:"truncated,omitempty"`
	Hist      Histo  `json:"hist"`
}

// BankStat is one (channel, bank) row-buffer tally.
type BankStat struct {
	Channel int   `json:"channel"`
	Bank    int   `json:"bank"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

// QueueStat is one sampled queue's occupancy distribution.
type QueueStat struct {
	Queue   string  `json:"queue"`
	Samples int64   `json:"samples"`
	Mean    float64 `json:"mean"`
	P50     int64   `json:"p50"`
	P90     int64   `json:"p90"`
	P99     int64   `json:"p99"`
}

// Locality is the DRAM/interconnect profile: row-buffer behaviour per
// bank, how evenly traffic spreads over banks, and queue occupancy.
type Locality struct {
	RowHits    int64      `json:"row_hits"`
	RowMisses  int64      `json:"row_misses"`
	RowHitRate float64    `json:"row_hit_rate"`
	Banks      []BankStat `json:"banks,omitempty"`
	// BankSpread is the normalized entropy of the access distribution over
	// banks: 1.0 means perfectly even bank-level parallelism, 0 means all
	// traffic serialized on one bank.
	BankSpread float64     `json:"bank_spread"`
	Queues     []QueueStat `json:"queues,omitempty"`
}

// Reconcile carries the exact per-class access tallies Validate checks
// against stats.Sim.
type Reconcile struct {
	Loads          int64 `json:"loads"`
	L1DemandHits   int64 `json:"l1_demand_hits"`
	L1DemandMisses int64 `json:"l1_demand_misses"`
	L1DemandMerged int64 `json:"l1_demand_merged"`
	L1PrefMisses   int64 `json:"l1_pref_misses"`
	L2Accesses     int64 `json:"l2_accesses"` // includes accepted stores
	L2Stores       int64 `json:"l2_stores"`
	L2Hits         int64 `json:"l2_hits"`
}

// Profile is the finished memory-hierarchy profile for one run.
type Profile struct {
	Meta          Meta          `json:"meta"`
	AddrStructure AddrStructure `json:"addr_structure"`
	Timeliness    Timeliness    `json:"timeliness"`
	Reuse         []ReuseLevel  `json:"reuse"`
	Locality      Locality      `json:"locality"`
	Reconcile     Reconcile     `json:"reconcile"`
}

// Build renders the folded state as an immutable Profile. The collector
// stays usable (Build does not reset it).
func (c *Collector) Build(meta Meta) *Profile {
	p := &Profile{Meta: meta}

	// Address structure, PCs in ascending order.
	pcKeys := make([]uint32, 0, len(c.pcs))
	for pc := range c.pcs { //simcheck:allow detlint keys sorted below
		pcKeys = append(pcKeys, pc)
	}
	sort.Slice(pcKeys, func(i, j int) bool { return pcKeys[i] < pcKeys[j] })
	var totObs, totIndirect, totExpl, totUnexpl int64
	for _, pc := range pcKeys {
		s := c.pcs[pc]
		if s.obs > 0 {
			e := PCAddr{
				PC:               pc,
				Observations:     s.obs,
				Indirect:         s.indirect,
				Anchors:          s.anchors,
				Explained:        s.explained,
				Unexplained:      s.unexplained,
				Delta:            s.delta,
				ResidualEntropy:  entropy(s.residual[:]),
				TruncatedAnchors: s.truncAnchors,
			}
			if t := s.explained + s.unexplained; t > 0 {
				e.ExplainedFrac = float64(s.explained) / float64(t)
			}
			p.AddrStructure.PCs = append(p.AddrStructure.PCs, e)
			totObs += s.obs
			totIndirect += s.indirect
			totExpl += s.explained
			totUnexpl += s.unexplained
		}
		if s.prefAdmits+s.prefFills+s.prefConsumes+s.prefLates+s.prefEarly > 0 {
			t := PCTimeliness{
				PC:          pc,
				Admits:      s.prefAdmits,
				Fills:       s.prefFills,
				Consumes:    s.prefConsumes,
				Lates:       s.prefLates,
				EarlyEvicts: s.prefEarly,
			}
			if s.prefConsumes > 0 {
				t.MeanUseDist = float64(s.useDistSum) / float64(s.prefConsumes)
			}
			p.Timeliness.PCs = append(p.Timeliness.PCs, t)
		}
	}
	if t := totExpl + totUnexpl; t > 0 {
		p.AddrStructure.ExplainedFrac = float64(totExpl) / float64(t)
	}
	if totObs > 0 {
		p.AddrStructure.IndirectFrac = float64(totIndirect) / float64(totObs)
	}
	p.AddrStructure.TruncatedPCs = c.truncPCs

	// Timeliness.
	tl := &p.Timeliness
	tl.Admits, tl.Fills, tl.Consumes = c.admits, c.fills, c.consumes
	tl.Lates, tl.EarlyEvicts = c.lates, c.earlyEvicts
	tl.Useless = c.fills - c.consumes - c.earlyEvicts
	if tl.Useless < 0 {
		tl.Useless = 0
	}
	tl.IssueToFill = c.issueToFill.export()
	tl.FillToUse = c.fillToUse.export()
	tl.IssueToUse = c.issueToUse.export()
	tl.TruncatedLines = c.truncPref

	// Reuse.
	for _, lv := range []struct {
		name string
		r    *reuseLevel
	}{{"L1", &c.l1Reuse}, {"L2", &c.l2Reuse}} {
		var acc int64
		for _, n := range lv.r.accesses {
			acc += n
		}
		p.Reuse = append(p.Reuse, ReuseLevel{
			Level:     lv.name,
			Accesses:  acc,
			Sampled:   lv.r.sampled,
			Reused:    lv.r.reused,
			NoReuse:   lv.r.sampled - lv.r.reused,
			Truncated: lv.r.trunc,
			Hist:      lv.r.hist.export(),
		})
	}

	// Locality.
	lc := &p.Locality
	lc.RowHits, lc.RowMisses = c.rowHits, c.rowMisses
	if t := c.rowHits + c.rowMisses; t > 0 {
		lc.RowHitRate = float64(c.rowHits) / float64(t)
	}
	var bankAcc []int64
	for i, b := range c.banks {
		if b.hits+b.misses == 0 {
			continue
		}
		lc.Banks = append(lc.Banks, BankStat{
			Channel: i / c.cfg.Banks,
			Bank:    i % c.cfg.Banks,
			Hits:    b.hits,
			Misses:  b.misses,
		})
		bankAcc = append(bankAcc, b.hits+b.misses)
	}
	lc.BankSpread = normEntropy(bankAcc, len(c.banks))
	for q := obs.QueueKind(0); q < obs.NumQueueKinds; q++ {
		h := c.queues[q].export()
		if h.Count == 0 {
			continue
		}
		lc.Queues = append(lc.Queues, QueueStat{
			Queue:   q.String(),
			Samples: h.Count,
			Mean:    h.Mean,
			P50:     h.Percentile(0.50),
			P90:     h.Percentile(0.90),
			P99:     h.Percentile(0.99),
		})
	}

	// Reconciliation tallies.
	rc := &p.Reconcile
	rc.Loads = c.loads
	rc.L1DemandHits = c.l1Access[0][obs.AccessHit]
	rc.L1DemandMisses = c.l1Access[0][obs.AccessMissNew]
	rc.L1DemandMerged = c.l1Access[0][obs.AccessMissMerged]
	rc.L1PrefMisses = c.l1Access[1][obs.AccessMissNew]
	for p := 0; p < 2; p++ {
		for cl := obs.AccessClass(0); cl < obs.NumAccessClasses; cl++ {
			rc.L2Accesses += c.l2Access[p][cl]
		}
		rc.L2Stores += c.l2Access[p][obs.AccessStore]
		rc.L2Hits += c.l2Access[p][obs.AccessHit]
	}
	return p
}

// entropy computes the Shannon entropy (bits) of a count distribution.
func entropy(counts []int64) float64 {
	var tot int64
	for _, n := range counts {
		tot += n
	}
	if tot == 0 {
		return 0
	}
	var h float64
	for _, n := range counts {
		if n == 0 {
			continue
		}
		pr := float64(n) / float64(tot)
		h -= pr * math.Log2(pr)
	}
	return h
}

// normEntropy is entropy normalized by the maximum for `slots` outcomes
// (1.0 = perfectly even spread).
func normEntropy(counts []int64, slots int) float64 {
	if slots <= 1 {
		return 0
	}
	h := entropy(counts)
	return h / math.Log2(float64(slots))
}

// Validate checks the profile's exact reconciliation invariants against
// the run's statistics: every accepted access, prefetch lifecycle event
// and DRAM row outcome memlens counted must sum to the corresponding
// stats.Sim totals. Truncated ledgers never affect these tallies (the
// counters are plain fields, not map entries), so any mismatch means an
// instrumentation point was lost or double-fired.
func (p *Profile) Validate(st *stats.Sim) error {
	if st == nil {
		return fmt.Errorf("memlens: Validate needs the run's stats")
	}
	rc := &p.Reconcile
	type eq struct {
		name string
		got  int64
		want int64
	}
	l1Demand := rc.L1DemandHits + rc.L1DemandMisses + rc.L1DemandMerged
	checks := []eq{
		{"l1 demand accesses", l1Demand, st.DemandAccesses},
		{"l1 demand hits", rc.L1DemandHits, st.DemandHits},
		{"l1 demand misses", rc.L1DemandMisses, st.DemandMisses},
		{"l1 demand merges", rc.L1DemandMerged, st.DemandMerged},
		{"l1 prefetch misses", rc.L1PrefMisses, st.PrefToMemory},
		{"l2 accesses", rc.L2Accesses, st.L2Accesses},
		{"l2 hits", rc.L2Hits, st.L2Hits},
		{"prefetch admits", p.Timeliness.Admits, st.PrefToMemory},
		{"prefetch consumes", p.Timeliness.Consumes, st.PrefUseful},
		{"prefetch lates", p.Timeliness.Lates, st.PrefLate},
		{"prefetch early evicts", p.Timeliness.EarlyEvicts, st.PrefEarlyEvict},
		{"dram row hits", p.Locality.RowHits, st.DRAMRowHits},
		{"dram row misses", p.Locality.RowMisses, st.DRAMRowMisses},
	}
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("memlens: %s: profile folded %d, stats counted %d", c.name, c.got, c.want)
		}
	}
	return nil
}

// WriteFile writes the profile as indented JSON.
func (p *Profile) WriteFile(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a profile written by WriteFile.
func ReadFile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("memlens: parse %s: %w", path, err)
	}
	return &p, nil
}
