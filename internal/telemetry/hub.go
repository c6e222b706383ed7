// Package telemetry is the live half of the observability stack: an HTTP
// server embeddable in capsim/capsweep that exposes Prometheus /metrics
// scrapes aggregated over every in-flight simulation, a Server-Sent-Events
// /events stream of per-run progress, and /debug/pprof.
//
// The simulator itself stays single-goroutine and lock-free: all registry
// reads happen on the simulation goroutine (inside an obs.Consumer), and
// only immutable snapshots cross into the Hub, which is the single
// synchronized hand-off point between runs and HTTP handlers.
package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"caps/internal/hostprof"
	"caps/internal/obs"
)

// RunMeta identifies one simulation run on the wire.
type RunMeta struct {
	ID         string // unique run key, e.g. "MM-caps-pas"
	Bench      string
	Prefetcher string
	Scheduler  string
	MaxInsts   int64 // instruction cap driving the ETA estimate; 0 = uncapped
}

// Progress is one run's position, published on /events and summarized on
// the status page. ETACycles estimates the remaining simulated cycles from
// the instruction cap and the IPC so far (-1 when unknown or uncapped).
type Progress struct {
	Run          string  `json:"run"`
	Bench        string  `json:"bench"`
	Prefetcher   string  `json:"prefetcher"`
	Scheduler    string  `json:"scheduler"`
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	MaxInsts     int64   `json:"max_insts,omitempty"`
	IPC          float64 `json:"ipc"`
	ETACycles    int64   `json:"eta_cycles"`
	Done         bool    `json:"done"`

	// Aborted marks a run that ended without completing (interrupt,
	// invariant violation, watchdog). AbortReason says why; FlightDump,
	// when a black box was written, names the dump file.
	Aborted     bool   `json:"aborted,omitempty"`
	AbortReason string `json:"abort_reason,omitempty"`
	FlightDump  string `json:"flight_dump,omitempty"`

	// Host-time stats, present only while a host profiler (sim.WithHostProf)
	// feeds the run's RunProgress consumer. Utilization is a permille
	// integer so the JSON stays float-free like the samples.
	WallMS             int64 `json:"wall_ms,omitempty"`
	CyclesPerSec       int64 `json:"cycles_per_sec,omitempty"`
	WorkerUtilPermille int64 `json:"worker_util_permille,omitempty"`
}

// runState is one run's latest progress and metric snapshot. hostStats
// marks that the run has published live host-time stats at least once, so
// MergedSamples knows to synthesize the host gauges for it.
type runState struct {
	prog      Progress
	samples   []obs.Sample
	hostStats bool
}

// Hub fans run progress out to HTTP handlers and SSE subscribers. Runs
// publish from their simulation goroutines; handlers read under the same
// mutex. Completed runs are retained so late scrapes and subscribers still
// see the whole suite.
type Hub struct {
	mu      sync.Mutex
	runs    map[string]*runState
	order   []string // first-publish order, the stable iteration order
	subs    map[int]chan string
	nextSub int
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{runs: make(map[string]*runState), subs: make(map[int]chan string)}
}

// Publish records a run's in-flight position along with its current metric
// snapshot and notifies SSE subscribers. The samples slice is retained;
// pass a fresh snapshot, never a shared buffer.
func (h *Hub) Publish(meta RunMeta, cycles, instructions int64, samples []obs.Sample) {
	h.PublishLive(meta, cycles, instructions, nil, samples)
}

// PublishLive is Publish with optional live host-time stats (nil when the
// run carries no host profiler). Host stats persist across later publishes
// without them, so the final done/aborted update keeps the last beat's.
func (h *Hub) PublishLive(meta RunMeta, cycles, instructions int64, host *hostprof.Live, samples []obs.Sample) {
	ipc := 0.0
	if cycles > 0 {
		ipc = float64(instructions) / float64(cycles)
	}
	h.publish(meta, cycles, instructions, ipc, false, "", "", host, samples)
}

// RunDone records a run's final state (authoritative IPC from the run's
// statistics) and notifies subscribers with a "done" event.
func (h *Hub) RunDone(meta RunMeta, cycles, instructions int64, ipc float64, samples []obs.Sample) {
	h.publish(meta, cycles, instructions, ipc, true, "", "", nil, samples)
}

// RunAborted records a run that ended without completing and notifies
// subscribers with an "aborted" event. dump may be empty (no flight
// recorder attached).
func (h *Hub) RunAborted(meta RunMeta, cycles, instructions int64, reason, dump string, samples []obs.Sample) {
	ipc := 0.0
	if cycles > 0 {
		ipc = float64(instructions) / float64(cycles)
	}
	if reason == "" {
		reason = "aborted"
	}
	h.publish(meta, cycles, instructions, ipc, true, reason, dump, nil, samples)
}

func (h *Hub) publish(meta RunMeta, cycles, instructions int64, ipc float64, done bool, abortReason, dump string, host *hostprof.Live, samples []obs.Sample) {
	p := Progress{
		Run:          meta.ID,
		Bench:        meta.Bench,
		Prefetcher:   meta.Prefetcher,
		Scheduler:    meta.Scheduler,
		Cycles:       cycles,
		Instructions: instructions,
		MaxInsts:     meta.MaxInsts,
		IPC:          ipc,
		ETACycles:    etaCycles(meta.MaxInsts, cycles, instructions, done),
		Done:         done,
		Aborted:      abortReason != "",
		AbortReason:  abortReason,
		FlightDump:   dump,
	}
	if host != nil {
		p.WallMS = host.WallNS / 1e6
		p.CyclesPerSec = host.CyclesPerSec
		p.WorkerUtilPermille = host.WorkerUtilPermille
	}

	h.mu.Lock()
	st, ok := h.runs[meta.ID]
	if !ok {
		st = &runState{}
		h.runs[meta.ID] = st
		h.order = append(h.order, meta.ID)
	}
	if host == nil {
		// Keep the last beat's host stats through done/aborted updates.
		p.WallMS = st.prog.WallMS
		p.CyclesPerSec = st.prog.CyclesPerSec
		p.WorkerUtilPermille = st.prog.WorkerUtilPermille
	}
	st.hostStats = st.hostStats || host != nil
	msg := sseMessage(p)
	st.prog = p
	if samples != nil {
		st.samples = samples
	}
	for _, ch := range h.subs {
		select {
		case ch <- msg:
		default: // slow subscriber: drop the beat, the next one catches up
		}
	}
	h.mu.Unlock()
}

// etaCycles projects remaining cycles from the instruction cap and the
// instruction rate so far.
func etaCycles(maxInsts, cycles, instructions int64, done bool) int64 {
	if done {
		return 0
	}
	if maxInsts <= 0 || instructions <= 0 || cycles <= 0 {
		return -1
	}
	rem := maxInsts - instructions
	if rem < 0 {
		rem = 0
	}
	return rem * cycles / instructions
}

// sseMessage frames one progress update as a Server-Sent Event.
func sseMessage(p Progress) string {
	kind := "progress"
	switch {
	case p.Aborted:
		kind = "aborted"
	case p.Done:
		kind = "done"
	}
	data, err := json.Marshal(p)
	if err != nil {
		// Progress is a flat struct of marshalable fields; this cannot
		// fail, but never panic the simulation goroutine over telemetry.
		data = []byte(`{}`)
	}
	return fmt.Sprintf("event: %s\ndata: %s\n\n", kind, data)
}

// Subscribe registers an SSE subscriber. The replay slice carries one
// pre-framed event per known run (in first-publish order), so a subscriber
// arriving after the suite finished still receives every run's final state.
// Call the returned cancel function to unsubscribe.
func (h *Hub) Subscribe() (ch <-chan string, replay []string, cancel func()) {
	c := make(chan string, 64)
	h.mu.Lock()
	id := h.nextSub
	h.nextSub++
	h.subs[id] = c
	for _, rid := range h.order {
		replay = append(replay, sseMessage(h.runs[rid].prog))
	}
	h.mu.Unlock()
	return c, replay, func() {
		h.mu.Lock()
		delete(h.subs, id)
		h.mu.Unlock()
	}
}

// Runs returns every run's latest progress in first-publish order.
func (h *Hub) Runs() []Progress {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Progress, 0, len(h.order))
	for _, id := range h.order {
		out = append(out, h.runs[id].prog)
	}
	return out
}

// MergedSamples aggregates the latest metric snapshot of every run by
// summing samples with identical name and label set (each run registers the
// same per-unit families, so the sum is the suite-wide total), and appends
// synthesized per-run progress series (caps_run_cycles,
// caps_run_instructions, caps_run_done) labeled run="<id>". The result is
// sorted by (name, labels), making scrapes deterministic.
func (h *Hub) MergedSamples() []obs.Sample {
	h.mu.Lock()
	defer h.mu.Unlock()

	merged := make(map[string]int)
	var out []obs.Sample
	for _, id := range h.order {
		for _, s := range h.runs[id].samples {
			key := s.FullName()
			if i, ok := merged[key]; ok {
				out[i].Value += s.Value
			} else {
				merged[key] = len(out)
				out = append(out, s)
			}
		}
	}
	for _, id := range h.order {
		st := h.runs[id]
		l := []obs.Label{{Key: "run", Value: id}}
		rendered := fmt.Sprintf("{run=%q}", id)
		done := int64(0)
		if st.prog.Done {
			done = 1
		}
		out = append(out,
			obs.Sample{Name: "caps_run_cycles", Labels: rendered, LabelSet: l, Kind: obs.SampleGauge, Value: st.prog.Cycles},
			obs.Sample{Name: "caps_run_instructions", Labels: rendered, LabelSet: l, Kind: obs.SampleGauge, Value: st.prog.Instructions},
			obs.Sample{Name: "caps_run_done", Labels: rendered, LabelSet: l, Kind: obs.SampleGauge, Value: done},
		)
		if st.hostStats {
			out = append(out,
				obs.Sample{Name: "caps_run_wall_ms", Labels: rendered, LabelSet: l, Kind: obs.SampleGauge, Value: st.prog.WallMS},
				obs.Sample{Name: "caps_run_cycles_per_sec", Labels: rendered, LabelSet: l, Kind: obs.SampleGauge, Value: st.prog.CyclesPerSec},
				obs.Sample{Name: "caps_run_worker_util_permille", Labels: rendered, LabelSet: l, Kind: obs.SampleGauge, Value: st.prog.WorkerUtilPermille},
			)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}
