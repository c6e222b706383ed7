package mem

import (
	"math/rand"
	"testing"
)

// keysHomedAt returns n distinct line addresses whose home slot in t is
// one of homes, in ascending address order.
func keysHomedAt(t *mshrTable, n int, homes ...int) []uint64 {
	var keys []uint64
	for line := uint64(1); len(keys) < n; line++ {
		k := line * 128
		for _, h := range homes {
			if t.home(k) == h {
				keys = append(keys, k)
				break
			}
		}
	}
	return keys
}

// checkChains asserts the probe-chain invariant linear probing rests on:
// every entry sits in its home slot or after it with no empty slot in
// between, so get reaches it before stopping.
func checkChains(t *testing.T, tb *mshrTable) {
	t.Helper()
	mask := len(tb.slots) - 1
	for i, e := range tb.slots {
		if e == nil {
			continue
		}
		for j := tb.home(e.lineAddr); j != i; j = (j + 1) & mask {
			if tb.slots[j] == nil {
				t.Fatalf("key %#x at slot %d is cut off from its home %d by empty slot %d", e.lineAddr, i, tb.home(e.lineAddr), j)
			}
		}
	}
}

// The table must behave exactly like the map it replaced under a seeded
// mix of inserts, lookups and deletes. It starts at four slots and must
// grow to hold the 32-key pool. The pool is concentrated on the last two
// slots and the first one of the starting size; the hash keeps its top
// bits, so those keys stay at both ends as the table doubles, probe runs
// wrap around the end and backward-shift deletes move entries across the
// wrap.
func TestMSHRTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tb := newMSHRTable(1) // 4 slots
		size := len(tb.slots)
		pool := keysHomedAt(&tb, 24, size-2, size-1, 0)
		pool = append(pool, keysHomedAt(&tb, 8, 1)...)
		model := map[uint64]*mshrEntry{}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 4000; op++ {
			k := pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0:
				if model[k] != nil {
					continue
				}
				e := &mshrEntry{lineAddr: k}
				tb.put(e)
				model[k] = e
			case 1:
				if got, want := tb.get(k), model[k]; got != want {
					t.Fatalf("seed %d op %d: get(%#x) = %p, want %p", seed, op, k, got, want)
				}
			default:
				if got, want := tb.del(k), model[k]; got != want {
					t.Fatalf("seed %d op %d: del(%#x) = %p, want %p", seed, op, k, got, want)
				}
				delete(model, k)
			}
			if tb.len() != len(model) {
				t.Fatalf("seed %d op %d: len %d, model %d", seed, op, tb.len(), len(model))
			}
			checkChains(t, &tb)
		}
		for _, k := range pool {
			if got, want := tb.get(k), model[k]; got != want {
				t.Fatalf("seed %d: final get(%#x) = %p, want %p", seed, k, got, want)
			}
		}
		seen := 0
		for _, e := range tb.slots {
			if e == nil {
				continue
			}
			seen++
			if model[e.lineAddr] != e {
				t.Fatalf("seed %d: slot holds %#x -> %p, model has %p", seed, e.lineAddr, e, model[e.lineAddr])
			}
		}
		if seen != len(model) {
			t.Fatalf("seed %d: table holds %d entries, model has %d", seed, seen, len(model))
		}
		if len(tb.slots) <= size {
			t.Fatalf("seed %d: table never grew past its %d starting slots", seed, size)
		}
	}
}
