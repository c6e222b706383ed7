package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"caps/internal/stats"
)

// digest is the simulated outcome of one run. The simulator is
// deterministic and executor-invariant, so every workload's runs of a
// kernel must reproduce the digest the serial run recorded.
type digest struct {
	Hash64       string `json:"hash64"` // stats.Sim.Hash64, hex
	Cycles       int64  `json:"cycles"`
	Instructions int64  `json:"instructions"`
}

func digestOf(st *stats.Sim) digest {
	return digest{Hash64: fmt.Sprintf("%016x", st.Hash64()), Cycles: st.Cycles, Instructions: st.Instructions}
}

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (map[string]digest, error) {
	var d map[string]digest
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// check compares a finished run with its expected digest.
func (c *ctx) check(s spec, st *stats.Sim) error {
	want, ok := c.digests[s.key()]
	if !ok {
		return fmt.Errorf("no expected digest for %s", s.key())
	}
	if got := digestOf(st); got != want {
		return fmt.Errorf("digest mismatch: got %+v, want %+v", got, want)
	}
	return nil
}

// record runs every kernel of every workload once, serially and without
// fast-forward, and writes the digests to path. Run it only when the
// simulated model is meant to change.
func record(path string) error {
	seen := map[string]bool{}
	var runs []spec
	for _, w := range workloads {
		for _, s := range w.Runs {
			if !seen[s.key()] {
				seen[s.key()] = true
				runs = append(runs, s)
				if s.Pref == "caps" {
					// caps_speedup on CAPS-only workloads divides by the
					// recorded baseline.
					if b := (spec{s.Bench, "none"}); !seen[b.key()] {
						seen[b.key()] = true
						runs = append(runs, b)
					}
				}
			}
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].key() < runs[j].key() })
	c := &ctx{w: workload{Workers: 1}}
	out := map[string]digest{}
	for _, s := range runs {
		b, err := c.build(s, attach{})
		if err != nil {
			return fmt.Errorf("%s: %w", s.key(), err)
		}
		st, err := b.g.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.key(), err)
		}
		out[s.key()] = digestOf(st)
		fmt.Fprintf(os.Stderr, "%s %+v\n", s.key(), out[s.key()])
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
