// Package prefetch defines the prefetcher interface shared by CAPS and the
// six prior-work baselines the paper compares against (Fig. 10): INTRA,
// INTER, MTA, NLP, LAP and ORCH. One prefetcher instance is attached to
// each SM; it observes the SM's coalesced demand loads and L1 misses and
// emits prefetch candidates that the load/store unit admits into L1 at
// lower priority than demand fetches.
package prefetch

import (
	"fmt"
	"sort"

	"caps/internal/config"
	"caps/internal/stats"
)

// Observation describes one executed (coalesced) load instruction.
type Observation struct {
	Now         int64
	SMID        int
	PC          uint32
	CTASlot     int // hardware CTA slot on the SM
	CTAID       int // logical CTA id within the grid
	WarpSlot    int // hardware warp slot on the SM
	WarpInCTA   int
	WarpsPerCTA int
	CTAWarpBase int   // warp slot of the CTA's warp 0
	Iter        int64 // dynamic execution index of this load by this warp
	Addrs       []uint64
	Indirect    bool // register-origin tracing marks the address data-dependent
}

// Candidate is one generated prefetch.
type Candidate struct {
	Addr           uint64
	PC             uint32
	TargetWarpSlot int   // warp the data is bound to; -1 when unknown
	TargetCTAID    int   // CTA the prediction was made for; -1 when unknown
	GenCycle       int64 // cycle the candidate was generated (staleness TTL)
	// SeedWarp is the warp-in-CTA index whose observation anchored the
	// θ/Δ base this candidate was predicted from (CAPS: the PerCTA
	// entry's leading warp — 0 when the CTA's designated leading warp
	// seeded it, >0 after a re-anchor by a trailing warp). -1 when the
	// prefetcher has no anchor concept (the baselines). Observer-only
	// provenance for schedlens; excluded from the determinism hash.
	SeedWarp int
}

// Prefetcher is the per-SM prefetch engine interface.
type Prefetcher interface {
	Name() string
	// OnLoad observes a demand load and may generate prefetches. The
	// caller reuses *obs and obs.Addrs for its next load: implementations
	// must not retain the pointer or the Addrs slice past the call.
	OnLoad(obs *Observation) []Candidate
	// OnMiss observes a demand L1 miss (NLP/LAP trigger on misses).
	OnMiss(now int64, lineAddr uint64, pc uint32) []Candidate
	// OnCTALaunch resets any per-CTA-slot state when a new CTA occupies
	// the slot.
	OnCTALaunch(ctaSlot int)
}

// Factory constructs one prefetcher instance per SM.
type Factory func(cfg config.GPUConfig, st *stats.Sim) Prefetcher

var registry = map[string]Factory{}

// Register adds a named prefetcher factory; it panics on duplicates so a
// bad registration fails loudly at init time.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("prefetch: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New instantiates a registered prefetcher.
func New(name string, cfg config.GPUConfig, st *stats.Sim) (Prefetcher, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("prefetch: unknown prefetcher %q (have %v)", name, Names())
	}
	return f(cfg, st), nil
}

// Names lists registered prefetchers in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// None is the no-prefetch baseline.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// OnLoad implements Prefetcher.
func (None) OnLoad(*Observation) []Candidate { return nil }

// OnMiss implements Prefetcher.
func (None) OnMiss(int64, uint64, uint32) []Candidate { return nil }

// OnCTALaunch implements Prefetcher.
func (None) OnCTALaunch(int) {}

func init() {
	Register("none", func(config.GPUConfig, *stats.Sim) Prefetcher { return None{} })
}
