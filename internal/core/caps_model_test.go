package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"caps/internal/config"
	"caps/internal/prefetch"
	"caps/internal/stats"
)

// refPerCTA is one PerCTA row of the reference model (and the view the
// real table is compared through).
type refPerCTA struct {
	leadWarp        int
	base            []uint64
	iter            int64
	seen, issued    uint64
	ctaID, warpBase int
	warpCount       int
	lastUse         int64
}

// refDist is one DIST row of the reference model.
type refDist struct {
	stride     int64
	hasStride  bool
	mispredict uint8
	disabled   bool
	lastUse    int64
}

// refCAP is a naive reference of the CAP tables: PerCTA rows in a map of
// maps keyed by CTA slot and load PC, DIST rows in a map keyed by PC. It
// restates Section V-B's rules without the hardware layout. A CTA slot
// that was never launched, or was relaunched, has no map and reads as
// empty. The DIST table's reclaim takes the first disabled row in table
// order, so the model keeps that order beside the map.
type refCAP struct {
	cfg       config.GPUConfig
	perCTA    map[int]map[uint32]*refPerCTA
	dist      map[uint32]*refDist
	distOrder []uint32

	lookups, verifyOK, verifyBad int64
}

func newRefCAP(cfg config.GPUConfig) *refCAP {
	return &refCAP{cfg: cfg, perCTA: map[int]map[uint32]*refPerCTA{}, dist: map[uint32]*refDist{}}
}

func (m *refCAP) launch(slot int) { delete(m.perCTA, slot) }

func (m *refCAP) load(o *prefetch.Observation) []prefetch.Candidate {
	if o.Indirect || len(o.Addrs) == 0 || len(o.Addrs) > m.cfg.PrefetchMaxAccesses {
		return nil
	}
	m.lookups++
	de := m.distFor(o.Now, o.PC)
	if de == nil {
		return nil
	}
	pe := m.perCTA[o.CTASlot][o.PC]
	bit := uint64(1) << uint(o.WarpInCTA)
	switch {
	case pe == nil:
		pe = m.insert(o)
		if de.hasStride && !de.disabled {
			return m.generate(o.Now, o.PC, pe, de, ^uint64(0))
		}
		return nil
	case o.WarpInCTA == pe.leadWarp:
		pe.lastUse = o.Now
		if o.Iter == pe.iter {
			return nil
		}
		looping := pe.seen
		pe.base = slices.Clone(o.Addrs)
		pe.iter, pe.seen, pe.issued = o.Iter, bit, 0
		if de.hasStride && !de.disabled {
			return m.generate(o.Now, o.PC, pe, de, looping)
		}
		return nil
	}
	pe.lastUse = o.Now
	if pe.iter == o.Iter {
		pe.seen |= bit
	}
	dw := int64(o.WarpInCTA - pe.leadWarp)
	if !de.hasStride {
		if pe.iter != o.Iter {
			return nil
		}
		stride, ok := refStride(pe.base, o.Addrs, dw)
		if !ok {
			delete(m.perCTA[o.CTASlot], o.PC)
			return nil
		}
		de.stride, de.hasStride, de.mispredict = stride, true, 0
		var out []prefetch.Candidate
		for slot := 0; slot < m.cfg.MaxCTAsPerSM; slot++ {
			if spe := m.perCTA[slot][o.PC]; spe != nil {
				out = append(out, m.generate(o.Now, o.PC, spe, de, ^uint64(0))...)
			}
		}
		return out
	}
	if pe.iter != o.Iter {
		return nil
	}
	exact := len(pe.base) == len(o.Addrs)
	for i := 0; exact && i < len(o.Addrs); i++ {
		exact = int64(o.Addrs[i]) == int64(pe.base[i])+dw*de.stride
	}
	if exact {
		m.verifyOK++
		return nil
	}
	m.verifyBad++
	if de.mispredict < 255 {
		de.mispredict++
	}
	if int(de.mispredict) > m.cfg.MispredictThreshold {
		de.disabled = true
	}
	return nil
}

// distFor returns pc's DIST row, allocating one while the table has room
// and otherwise reclaiming the first disabled row; nil when every row is a
// live load.
func (m *refCAP) distFor(now int64, pc uint32) *refDist {
	if de := m.dist[pc]; de != nil {
		de.lastUse = now
		return de
	}
	de := &refDist{lastUse: now}
	if len(m.dist) < m.cfg.PrefetchTableSize {
		m.distOrder = append(m.distOrder, pc)
		m.dist[pc] = de
		return de
	}
	for i, old := range m.distOrder {
		if m.dist[old].disabled {
			delete(m.dist, old)
			m.distOrder[i] = pc
			m.dist[pc] = de
			return de
		}
	}
	return nil
}

// insert registers o's warp as the leading warp of its CTA for o.PC,
// evicting the least recently used row when the slot's table is full.
func (m *refCAP) insert(o *prefetch.Observation) *refPerCTA {
	tbl := m.perCTA[o.CTASlot]
	if tbl == nil {
		tbl = map[uint32]*refPerCTA{}
		m.perCTA[o.CTASlot] = tbl
	}
	if len(tbl) >= m.cfg.PrefetchTableSize {
		var victim uint32
		var oldest *refPerCTA
		for pc, e := range tbl {
			if oldest == nil || e.lastUse < oldest.lastUse {
				victim, oldest = pc, e
			}
		}
		delete(tbl, victim)
	}
	pe := &refPerCTA{
		leadWarp: o.WarpInCTA, base: slices.Clone(o.Addrs), iter: o.Iter,
		seen: 1 << uint(o.WarpInCTA), ctaID: o.CTAID, warpBase: o.CTAWarpBase,
		warpCount: o.WarpsPerCTA, lastUse: o.Now,
	}
	tbl[o.PC] = pe
	return pe
}

// generate predicts every allowed trailing warp of pe's CTA that has
// neither loaded at pe's iteration nor been predicted for already.
func (m *refCAP) generate(now int64, pc uint32, pe *refPerCTA, de *refDist, allow uint64) []prefetch.Candidate {
	var out []prefetch.Candidate
	for w := 0; w < pe.warpCount; w++ {
		bit := uint64(1) << uint(w)
		if w == pe.leadWarp || allow&bit == 0 || (pe.seen|pe.issued)&bit != 0 {
			continue
		}
		pe.issued |= bit
		for _, b := range pe.base {
			out = append(out, prefetch.Candidate{
				Addr: uint64(int64(b) + int64(w-pe.leadWarp)*de.stride), PC: pc,
				TargetWarpSlot: pe.warpBase + w, TargetCTAID: pe.ctaID,
				GenCycle: now, SeedWarp: pe.leadWarp,
			})
		}
	}
	return out
}

// refStride is the one non-zero per-warp stride every access of addrs
// shows against base, dw warps later.
func refStride(base, addrs []uint64, dw int64) (int64, bool) {
	if dw == 0 || len(base) != len(addrs) {
		return 0, false
	}
	var stride int64
	for i := range addrs {
		d := int64(addrs[i]) - int64(base[i])
		if d%dw != 0 || (i > 0 && d/dw != stride) {
			return 0, false
		}
		stride = d / dw
	}
	return stride, stride != 0
}

// capTables reads the real tables into the model's shape.
func capTables(c *CAPS) (map[int]map[uint32]refPerCTA, map[uint32]refDist) {
	per := map[int]map[uint32]refPerCTA{}
	for slot, tbl := range c.perCTA {
		for i := range tbl {
			e := &tbl[i]
			if !e.valid {
				continue
			}
			if per[slot] == nil {
				per[slot] = map[uint32]refPerCTA{}
			}
			per[slot][e.pc] = refPerCTA{e.leadWarp, slices.Clone(e.base), e.iter, e.seen, e.issued,
				e.ctaID, e.warpBase, e.warpCount, e.lastUse}
		}
	}
	dist := map[uint32]refDist{}
	for i := range c.dist {
		if e := &c.dist[i]; e.valid {
			dist[e.pc] = refDist{e.stride, e.hasStride, e.mispredict, e.disabled, e.lastUse}
		}
	}
	return per, dist
}

func (m *refCAP) tables() (map[int]map[uint32]refPerCTA, map[uint32]refDist) {
	per := map[int]map[uint32]refPerCTA{}
	for slot, tbl := range m.perCTA {
		for pc, e := range tbl {
			if per[slot] == nil {
				per[slot] = map[uint32]refPerCTA{}
			}
			per[slot][pc] = *e
		}
	}
	dist := map[uint32]refDist{}
	for pc, e := range m.dist {
		dist[pc] = *e
	}
	return per, dist
}

// TestCAPSMatchesModel drives CAPS and the map-of-maps reference with the
// same seeded stream of CTA launches and load observations, and compares
// the emitted candidates, the PerCTA and DIST contents and the table
// counters after every step. Small tables and a low misprediction
// threshold make evictions, invalidations, shut-downs and DIST reclaims
// common. No CTA is launched before the first loads, and the last slot is
// never launched at all, so lookups of never-launched slots are part of
// every stream. Cycles strictly increase, so LRU victims are unique.
func TestCAPSMatchesModel(t *testing.T) {
	cfg := config.Default()
	cfg.PrefetchTableSize = 2
	cfg.MaxCTAsPerSM = 3
	cfg.MispredictThreshold = 2
	const warps = 4
	pcs := []uint32{0x10, 0x20, 0x30, 0x40}
	strides := []int64{0x80, -0x100, 0, 0x200}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := &stats.Sim{}
		c := New(cfg, st)
		m := newRefCAP(cfg)
		ctaID := []int{0, 1, 2}
		nextCTA := 3
		iters := map[[3]int]int64{} // (slot, warp, pc index) -> iteration
		for step := 0; step < 1500; step++ {
			now := int64(step + 1)
			if step > 50 && rng.Intn(20) == 0 {
				slot := rng.Intn(cfg.MaxCTAsPerSM - 1)
				c.OnCTALaunch(slot)
				m.launch(slot)
				ctaID[slot] = nextCTA
				nextCTA++
				for k := range iters {
					if k[0] == slot {
						delete(iters, k)
					}
				}
			}
			slot, warp, p := rng.Intn(cfg.MaxCTAsPerSM), rng.Intn(warps), rng.Intn(len(pcs))
			key := [3]int{slot, warp, p}
			if rng.Intn(4) == 0 {
				iters[key]++
			}
			n := 1 + rng.Intn(cfg.PrefetchMaxAccesses+1) // one past the limit is not a target
			addrs := make([]uint64, n)
			for i := range addrs {
				a := int64(0x100000*(ctaID[slot]+1)) + int64(warp)*strides[p] + iters[key]*0x4000 + int64(i)*0x80
				if rng.Intn(12) == 0 {
					a += int64(rng.Intn(8)) * 0x40
				}
				addrs[i] = uint64(a)
			}
			o := &prefetch.Observation{
				Now: now, PC: pcs[p], CTASlot: slot, CTAID: ctaID[slot],
				WarpSlot: slot*warps + warp, WarpInCTA: warp, WarpsPerCTA: warps,
				CTAWarpBase: slot * warps, Iter: iters[key], Addrs: addrs,
				Indirect: rng.Intn(25) == 0,
			}
			where := fmt.Sprintf("seed %d step %d (slot %d warp %d pc %#x iter %d)", seed, step, slot, warp, o.PC, o.Iter)
			want := m.load(o)
			if got := c.OnLoad(o); !slices.Equal(got, want) {
				t.Fatalf("%s: candidates\n got  %+v\n want %+v", where, got, want)
			}
			gotPer, gotDist := capTables(c)
			wantPer, wantDist := m.tables()
			if !reflect.DeepEqual(gotPer, wantPer) {
				t.Fatalf("%s: PerCTA tables\n got  %+v\n want %+v", where, gotPer, wantPer)
			}
			if !reflect.DeepEqual(gotDist, wantDist) {
				t.Fatalf("%s: DIST table\n got  %+v\n want %+v", where, gotDist, wantDist)
			}
			if st.PrefTableLookup != m.lookups || st.PrefVerifyOK != m.verifyOK || st.PrefVerifyBad != m.verifyBad {
				t.Fatalf("%s: counters lookups/ok/bad %d/%d/%d, want %d/%d/%d", where,
					st.PrefTableLookup, st.PrefVerifyOK, st.PrefVerifyBad, m.lookups, m.verifyOK, m.verifyBad)
			}
			if err := c.CheckInvariants(now); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
	}
}
