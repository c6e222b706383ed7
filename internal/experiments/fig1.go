package experiments

import (
	"sort"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/obs"
	"caps/internal/sim"
	"caps/internal/stats"
)

// Figure1 reproduces the motivation study: the accuracy of naive inter-warp
// stride prefetching and the cycle gap between load executions, as a
// function of the warp distance d (1..10), measured on matrixMul.
//
// Methodology (Section I): record the first execution of each load PC by
// every warp slot on every SM (address and cycle). The inter-warp stride Δ
// is detected from consecutive warp slots within one CTA. A prediction for
// warp w+d from warp w is addr(w) + d·Δ; accuracy(d) is the fraction of
// pairs where the prediction matches, and gap(d) is the mean cycle gap
// between the two executions. Accuracy collapses once d crosses the CTA
// boundary (matrixMul has 8 warps per CTA).
//
// The trace is folded from the EvLoadIssue event stream.
func Figure1(cfg config.GPUConfig, maxDistance int) (*stats.Table, error) {
	if maxDistance <= 0 {
		maxDistance = 10
	}
	kernel, err := kernels.ByAbbr("MM")
	if err != nil {
		return nil, err
	}
	cfg.Scheduler = config.SchedTwoLevel
	fold := &fig1Fold{warps: cfg.MaxWarpsPerSM, streams: make(map[fig1Key][]fig1Rec)}
	snk := sim.NewSink(cfg, false, 0)
	snk.Attach(fold)
	g, err := sim.New(cfg, kernel, sim.WithPrefetcher("none"), sim.WithObs(snk))
	if err != nil {
		return nil, err
	}
	if _, err := g.Run(); err != nil {
		return nil, err
	}
	streams := fold.streams

	// Iterate streams in a fixed order everywhere below. The aggregations
	// happen to be commutative sums today, but map order leaking into a
	// figure is exactly the bug class detlint exists to keep out.
	keys := make([]fig1Key, 0, len(streams))
	for k := range streams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sm != keys[j].sm {
			return keys[i].sm < keys[j].sm
		}
		return keys[i].pc < keys[j].pc
	})

	// Detect the dominant stride between consecutive warp slots: the most
	// common difference observed (the in-CTA stride).
	strideVotes := make(map[int64]int)
	for _, k := range keys {
		s := streams[k]
		for w := 0; w+1 < len(s); w++ {
			if s[w].seen && s[w+1].seen {
				strideVotes[int64(s[w+1].addr)-int64(s[w].addr)]++
			}
		}
	}
	var stride int64
	best := 0
	// Deterministic tie-break: smallest stride wins.
	diffs := make([]int64, 0, len(strideVotes))
	for d := range strideVotes {
		diffs = append(diffs, d)
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i] < diffs[j] })
	for _, d := range diffs {
		if strideVotes[d] > best {
			best, stride = strideVotes[d], d
		}
	}

	t := &stats.Table{Header: []string{"distance", "accuracy", "gap (cycles)"}}
	for d := 1; d <= maxDistance; d++ {
		var hits, total int
		var gapSum int64
		for _, k := range keys {
			s := streams[k]
			for w := 0; w+d < len(s); w++ {
				if !s[w].seen || !s[w+d].seen {
					continue
				}
				total++
				predicted := int64(s[w].addr) + int64(d)*stride
				if predicted == int64(s[w+d].addr) {
					hits++
				}
				gap := s[w+d].cycle - s[w].cycle
				if gap < 0 {
					gap = -gap
				}
				gapSum += gap
			}
		}
		acc, gap := 0.0, 0.0
		if total > 0 {
			acc = float64(hits) / float64(total)
			gap = float64(gapSum) / float64(total)
		}
		t.AddRow(fmtF(float64(d), 0), fmtF(acc, 3), fmtF(gap, 1))
	}
	return t, nil
}

type fig1Rec struct {
	addr  uint64
	cycle int64
	seen  bool
}

type fig1Key struct {
	sm int
	pc uint32
}

// fig1Fold is Figure 1's trace: an obs consumer keeping the first
// execution of each direct load PC by each warp slot on each SM.
type fig1Fold struct {
	warps   int
	streams map[fig1Key][]fig1Rec
}

// WantsKind implements obs.KindFilter: only load issues reach the fold.
func (f *fig1Fold) WantsKind(k obs.Kind) bool { return k == obs.EvLoadIssue }

// Consume implements obs.Consumer.
func (f *fig1Fold) Consume(e obs.Event) {
	if e.Kind != obs.EvLoadIssue || e.Arg == 1 {
		return // indirect loads have no inter-warp stride
	}
	k := fig1Key{sm: int(e.Track), pc: e.PC}
	s := f.streams[k]
	if s == nil {
		s = make([]fig1Rec, f.warps)
		f.streams[k] = s
	}
	if w := int(e.Warp); w < len(s) && !s[w].seen {
		s[w] = fig1Rec{addr: e.Addr, cycle: e.Cycle, seen: true}
	}
}
