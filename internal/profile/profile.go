package profile

import (
	"fmt"

	"caps/internal/lens"
	"caps/internal/obs"
	"caps/internal/stats"
)

// Meta identifies the run a profile was taken from.
type Meta struct {
	Bench      string `json:"bench"`
	Prefetcher string `json:"prefetcher"`
	Scheduler  string `json:"scheduler"`
	SMs        int    `json:"sms"`
}

// LedgerCounts is the prefetch lifecycle breakdown for one key (load PC or
// CTA). Drops maps DropReason names to counts, zero reasons omitted.
// Accuracy counts late-but-useful prefetches as useful, matching
// stats.Sim.Accuracy.
type LedgerCounts struct {
	Candidates   int64            `json:"candidates"`
	Drops        map[string]int64 `json:"drops,omitempty"`
	Admits       int64            `json:"admits"`
	Fills        int64            `json:"fills,omitempty"`
	Consumes     int64            `json:"consumes"`
	Lates        int64            `json:"lates,omitempty"`
	EarlyEvicts  int64            `json:"early_evicts,omitempty"`
	Accuracy     float64          `json:"accuracy"`
	MeanDistance float64          `json:"mean_distance,omitempty"`
}

// PCEntry is the ledger for one static load PC (Figs. 12–14 at PC
// granularity).
type PCEntry struct {
	PC uint32 `json:"pc"`
	LedgerCounts
}

// CTAEntry is the ledger for one CTA. Fill/late/evict events carry no CTA
// attribution, so those fields stay zero here.
type CTAEntry struct {
	CTA int32 `json:"cta"`
	LedgerCounts
}

// SMStack is one SM's stall-cycle stack; Classes maps CycleClass names to
// cycle counts and sums to the run's TotalCycles.
type SMStack struct {
	SM      int              `json:"sm"`
	Classes map[string]int64 `json:"classes"`
}

// Profile is one run's complete attribution: headline metrics, the
// machine-wide and per-SM stall stacks, and the per-PC / per-CTA prefetch
// ledgers. It is the JSON document capsim -profile writes and capsprof
// stall reads.
type Profile struct {
	Meta            Meta             `json:"meta"`
	TotalCycles     int64            `json:"total_cycles"`
	Instructions    int64            `json:"instructions"`
	IPC             float64          `json:"ipc"`
	Coverage        float64          `json:"coverage"`
	Accuracy        float64          `json:"accuracy"`
	EarlyEvictRatio float64          `json:"early_evict_ratio"`
	MeanDistance    float64          `json:"mean_distance"`
	StallStack      map[string]int64 `json:"stall_stack"` // summed over SMs
	SMs             []SMStack        `json:"sm_stacks"`
	PCs             []PCEntry        `json:"pcs"`
	CTAs            []CTAEntry       `json:"ctas,omitempty"`
	TruncatedPCs    int64            `json:"truncated_pcs,omitempty"`
	TruncatedCTAs   int64            `json:"truncated_ctas,omitempty"`
}

// Validate checks the stall-stack invariant against the run's statistics:
// per SM, the buckets sum to the run's cycles. Only a completed run must
// hold it; an aborted run stops mid-cycle.
func (p *Profile) Validate(st *stats.Sim) error {
	for _, sm := range p.SMs {
		var sum int64
		for c := obs.CycleClass(0); c < obs.NumCycleClasses; c++ {
			sum += sm.Classes[c.String()]
		}
		if sum != st.Cycles {
			return fmt.Errorf("profile: SM %d stall stack sums to %d cycles, run has %d — a cycle went unclassified or double-counted",
				sm.SM, sum, st.Cycles)
		}
	}
	return nil
}

// WriteFile writes the profile to path as indented JSON.
func (p *Profile) WriteFile(path string) error { return lens.WriteFile(path, p) }

// ReadFile loads a profile written by WriteFile. A JSON object without a
// stall stack — a bench report, say — is not a profile.
func ReadFile(path string) (*Profile, error) {
	p, err := lens.ReadFile[Profile](path, "profile")
	if err == nil && p.StallStack == nil {
		return nil, fmt.Errorf("profile: %s has no stall stack", path)
	}
	return p, err
}
