package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"caps/internal/obs"
)

// Reason classifies what killed (or snapshotted) the run.
type Reason string

// Dump reasons.
const (
	ReasonViolation  Reason = "invariant-violation"
	ReasonPanic      Reason = "panic"
	ReasonWatchdog   Reason = "watchdog"
	ReasonSignal     Reason = "signal"
	ReasonDivergence Reason = "divergence"
	ReasonManual     Reason = "manual"
)

// Format identifies the dump file type; Version gates decoding. Events
// carry obs.Kind as a bare integer, so any renumbering of the Kind enum
// bumps Version: version 2 dropped the run.host_time kind, which shifted
// the codes of every kind after it.
const (
	Format  = "caps-flight"
	Version = 2
)

// WarpSnapshot is one warp context's state at dump time.
type WarpSnapshot struct {
	Slot        int   `json:"slot"`
	CTA         int   `json:"cta"`
	PC          int   `json:"pc"`
	Outstanding int   `json:"outstanding,omitempty"`
	BusyUntil   int64 `json:"busy_until,omitempty"`
	WaitLoad    bool  `json:"wait_load,omitempty"`
	AtBarrier   bool  `json:"at_barrier,omitempty"`
	Finished    bool  `json:"finished,omitempty"`
}

// SMSnapshot is one SM's state at dump time: queue depths, MSHR occupancy,
// the scheduler's ready/pending queues and every live warp context —
// exactly what a hang post-mortem needs to see who was waiting on what.
type SMSnapshot struct {
	ID         int `json:"id"`
	LiveWarps  int `json:"live_warps"`
	ActiveCTAs int `json:"active_ctas"`

	LSUQueue   int `json:"lsu_queue"`
	StoreQueue int `json:"store_queue"`
	PrefQueue  int `json:"pref_queue"`

	MSHRs         int `json:"mshrs"`
	PrefetchMSHRs int `json:"prefetch_mshrs"`
	MissQueue     int `json:"miss_queue"`

	ReadyQueue   []int `json:"ready_queue,omitempty"`
	PendingQueue []int `json:"pending_queue,omitempty"`

	Warps []WarpSnapshot `json:"warps,omitempty"`
}

// MachineState is the whole-GPU snapshot the forward-progress watchdog (and
// every other dump trigger) captures at the moment of death.
type MachineState struct {
	Cycle        int64        `json:"cycle"`
	Instructions int64        `json:"instructions"`
	SMs          []SMSnapshot `json:"sms"`
}

// Header is the dump's first JSONL line: why the run died, where, and the
// machine snapshot. SMs/Partitions/Channels size the track metadata when
// the dump is re-rendered through the Chrome exporter.
type Header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	Reason  Reason `json:"reason"`
	Message string `json:"message,omitempty"`

	Cycle        int64 `json:"cycle"`
	Instructions int64 `json:"instructions"`

	Bench      string `json:"bench,omitempty"`
	Prefetcher string `json:"prefetcher,omitempty"`
	Scheduler  string `json:"scheduler,omitempty"`

	SMs        int `json:"sms"`
	Partitions int `json:"partitions"`
	Channels   int `json:"channels"`

	Events      int   `json:"events"`
	Overwritten int64 `json:"overwritten,omitempty"`

	// Stall-pair repair accounting (see normalize): ends synthesized for
	// stalls still open at the abort, and orphan ends dropped because
	// their begin was overwritten in the ring.
	SynthesizedEnds int `json:"synthesized_ends,omitempty"`
	OrphanEnds      int `json:"orphan_ends,omitempty"`

	Machine *MachineState `json:"machine,omitempty"`
}

// Dump is one decoded black box: header plus the cycle-ordered event window.
type Dump struct {
	Header Header
	Events []obs.Event
}

// SynthesizedEndArg marks an EvWarpStallEnd the dump synthesized (in
// Event.Arg) so decoders can tell repair from real transitions.
const SynthesizedEndArg = 1

// Build assembles a dump from a recorder: merge the rings, repair the
// async stall pairing, and stamp the header. rec may be nil (header-only
// dump, e.g. a run aborted before any event fired).
func Build(h Header, rec *Recorder) *Dump {
	h.Format, h.Version = Format, Version
	var events []obs.Event
	if rec != nil {
		events = rec.Events()
		h.Overwritten = rec.Overwritten()
	}
	d := &Dump{Header: h, Events: events}
	d.normalize()
	d.Header.Events = len(d.Events)
	return d
}

// normalize repairs the warp-stall begin/end pairing that an aborted run
// (or ring wraparound) breaks. A run that dies mid-stall leaves begins
// with no end: synthesize an end at the abort cycle for each, so the
// Chrome async-nestable export draws a closed span and the validator's
// pairing check passes. A ring that overwrote a begin leaves an orphan
// end, which the validator rejects outright: drop it.
func (d *Dump) normalize() {
	type stallKey struct {
		track int16
		warp  int32
	}
	open := make(map[stallKey]int)
	out := d.Events[:0]
	endCycle := d.Header.Cycle
	for _, e := range d.Events {
		switch e.Kind {
		case obs.EvWarpStallBegin:
			open[stallKey{e.Track, e.Warp}]++
		case obs.EvWarpStallEnd:
			k := stallKey{e.Track, e.Warp}
			if open[k] <= 0 {
				d.Header.OrphanEnds++
				continue
			}
			open[k]--
		}
		if e.Cycle > endCycle {
			endCycle = e.Cycle
		}
		out = append(out, e)
	}
	// Deterministic synthesis order: walk the surviving events oldest-first
	// and close each still-open begin once, rather than ranging over the
	// map (map order would shuffle same-cycle synthetic ends across runs).
	for _, e := range out {
		if e.Kind != obs.EvWarpStallBegin {
			continue
		}
		k := stallKey{e.Track, e.Warp}
		if open[k] <= 0 {
			continue
		}
		open[k]--
		d.Header.SynthesizedEnds++
		out = append(out, obs.Event{
			Cycle: endCycle, Kind: obs.EvWarpStallEnd, Dom: obs.DomSM,
			Track: e.Track, Warp: e.Warp, CTA: -1, Arg: SynthesizedEndArg,
		})
	}
	d.Events = out
}

// Write streams the dump as JSONL: one header line, then one event per line.
func (d *Dump) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&d.Header); err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	for i := range d.Events {
		if err := enc.Encode(&d.Events[i]); err != nil {
			return fmt.Errorf("flight: %w", err)
		}
	}
	return bw.Flush()
}

// WriteFile writes the dump to path, creating parent-less files 0644.
func (d *Dump) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read decodes a JSONL dump.
func Read(r io.Reader) (*Dump, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	d := &Dump{}
	if err := dec.Decode(&d.Header); err != nil {
		return nil, fmt.Errorf("flight: bad dump header: %w", err)
	}
	if d.Header.Format != Format {
		return nil, fmt.Errorf("flight: not a flight dump (format %q, want %q)", d.Header.Format, Format)
	}
	if d.Header.Version != Version {
		return nil, fmt.Errorf("flight: dump version %d, this build reads %d", d.Header.Version, Version)
	}
	for {
		var e obs.Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("flight: bad event after %d: %w", len(d.Events), err)
		}
		d.Events = append(d.Events, e)
	}
	return d, nil
}

// ReadFile decodes the JSONL dump at path.
func ReadFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// WriteChromeTrace renders the dump's event window through the standard
// Chrome trace-event exporter, so a black box opens in Perfetto exactly
// like a live trace (`capscope decode`).
func (d *Dump) WriteChromeTrace(w io.Writer) error {
	cfg := obs.Config{SMs: d.Header.SMs, Partitions: d.Header.Partitions, Channels: d.Header.Channels}
	return obs.WriteChromeTraceEvents(w, cfg, d.Events, d.Header.Overwritten)
}
