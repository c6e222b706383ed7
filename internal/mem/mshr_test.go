package mem

import (
	"math/rand"
	"strings"
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
// mix of inserts, lookups and deletes. The key pool is concentrated on the
// last two slots and the first one, so probe runs wrap around the end of
// the table and backward-shift deletes move entries across the wrap.
func TestMSHRTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tb := newMSHRTable(8) // 32 slots
		size := len(tb.slots)
		pool := keysHomedAt(&tb, 24, size-2, size-1, 0)
		pool = append(pool, keysHomedAt(&tb, 8, 5)...)
		model := map[uint64]*mshrEntry{}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 4000; op++ {
			k := pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0:
				if model[k] != nil || len(model) >= size-1 {
					continue
				}
				e := &mshrEntry{lineAddr: k}
				if !tb.put(e) {
					t.Fatalf("seed %d op %d: put(%#x) refused at %d entries", seed, op, k, tb.len())
				}
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
	}
}

// A full table refuses the insert instead of probing forever, and an
// Access that reaches it fails the reservation without touching the
// cache's bookkeeping and latches an invariant violation.
func TestMSHRTableFullInsertLatchesViolation(t *testing.T) {
	c := sanitizedCache(t)
	size := len(c.mshrs.slots)
	keys := keysHomedAt(&c.mshrs, size, 3)
	planted := 0
	for _, k := range keys {
		if !c.mshrs.put(&mshrEntry{lineAddr: k}) {
			break
		}
		planted++
	}
	if planted != size-1 {
		t.Fatalf("planted %d entries in a %d-slot table, want %d (one slot stays empty)", planted, size, size-1)
	}
	if c.mshrs.get(1<<40) != nil || c.mshrs.del(1<<40) != nil {
		t.Fatal("lookup of an absent key on a full table found an entry")
	}
	// A prefetch passes the pool admission check (the plants are not
	// prefetch-only), so only the table itself can refuse it.
	res := c.Access(9, prefReq(1<<41, 9))
	if res.Outcome != ResFailMSHR {
		t.Fatalf("access into a full table = %v, want %v", res.Outcome, ResFailMSHR)
	}
	err := c.SanitizerErr()
	if err == nil || !strings.Contains(err.Error(), "MSHR table full") {
		t.Fatalf("latched violation = %v, want an MSHR-table-full report", err)
	}
	if c.mshrs.len() != planted || c.PrefetchMSHRs() != 0 || c.MissQueueLen() != 0 {
		t.Fatalf("refused access changed state: %d entries, %d prefetch-only, %d queued",
			c.mshrs.len(), c.PrefetchMSHRs(), c.MissQueueLen())
	}
}
