package mem

// mshrTable is a cache's MSHR file keyed by line address: an
// open-addressed hash table with linear probing and backward-shift
// deletion, so lookups never chase tombstones and a delete leaves every
// probe chain exactly as a fresh insert sequence would. A slot holds the
// entry itself (nil when empty) and the key is the entry's lineAddr, which
// keeps the table at one word per slot. Capacity is a power of two sized
// at construction (see newMSHRTable); put doubles it when the population
// passes half of it, which on the default configurations never happens.
type mshrTable struct {
	slots []*mshrEntry
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	n     int
}

// mshrLoadFactor is how many slots the table keeps per MSHR the cache can
// admit (demand entries plus the prefetch pool): a linear-probing table at
// a load factor of at most 1/4 averages close to one probe per lookup.
const mshrLoadFactor = 4

// newMSHRTable sizes a table for entries admissible MSHRs: the smallest
// power of two at least mshrLoadFactor times that.
func newMSHRTable(entries int) mshrTable {
	size, bits := 1, uint(0)
	for size < mshrLoadFactor*max(entries, 1) {
		size <<= 1
		bits++
	}
	return mshrTable{slots: make([]*mshrEntry, size), shift: 64 - bits}
}

// home is key's preferred slot: a Fibonacci (multiplicative) hash, whose
// top bits mix every bit of the line address, line-offset zeros included.
func (t *mshrTable) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// len returns the number of entries.
func (t *mshrTable) len() int { return t.n }

// find returns the slot holding key, or the empty slot that ends its
// probe run.
func (t *mshrTable) find(key uint64) int {
	mask := len(t.slots) - 1
	i := t.home(key)
	for e := t.slots[i]; e != nil && e.lineAddr != key; e = t.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// get returns key's entry, or nil.
func (t *mshrTable) get(key uint64) *mshrEntry { return t.slots[t.find(key)] }

// put inserts e under its lineAddr, which must be absent. The cache's
// admission checks bound the demand and prefetch-pool entries, but not the
// prefetch entries a demand merge converted (the merge frees their pool
// slot), so on a small MSHR file the population can outgrow the initial
// size: past half full, the table doubles first. That also keeps a slot
// empty, so every probe run ends.
func (t *mshrTable) put(e *mshrEntry) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.slots[t.find(e.lineAddr)] = e
	t.n++
}

// grow doubles the table and reinserts every entry.
func (t *mshrTable) grow() {
	old := t.slots
	t.slots = make([]*mshrEntry, 2*len(old)) //caps:alloc-ok grows only when converted prefetch entries outnumber the admissible MSHRs, never at the default configurations
	t.shift--
	for _, e := range old {
		if e != nil {
			t.slots[t.find(e.lineAddr)] = e
		}
	}
}

// del removes key's entry, if any, and returns it. Backward-shift
// deletion: each later entry of the probe run whose home slot does not lie
// cyclically within (hole, its slot] moves back into the hole.
func (t *mshrTable) del(key uint64) *mshrEntry {
	hole := t.find(key)
	e := t.slots[hole]
	if e == nil {
		return nil
	}
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].lineAddr))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = nil
	t.n--
	return e
}
