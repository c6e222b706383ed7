package flight

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"caps/internal/obs"
)

func smEvent(cycle int64, track int16, kind obs.Kind, warp int32) obs.Event {
	return obs.Event{Cycle: cycle, Kind: kind, Dom: obs.DomSM, Track: track, Warp: warp, CTA: 0}
}

func TestRingRotationKeepsNewestOldestFirst(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SMs: 1, PerSM: 4, PerPart: 4, PerChan: 4, PerRun: 4})
	for c := int64(1); c <= 10; c++ {
		rec.Consume(smEvent(c, 0, obs.EvWarpDispatch, 0))
	}
	got := rec.Events()
	if len(got) != 4 {
		t.Fatalf("Events() returned %d events, want 4 (ring capacity)", len(got))
	}
	for i, e := range got {
		if want := int64(7 + i); e.Cycle != want {
			t.Errorf("event %d at cycle %d, want %d (newest four, oldest first)", i, e.Cycle, want)
		}
	}
	if ov := rec.Overwritten(); ov != 6 {
		t.Errorf("Overwritten() = %d, want 6", ov)
	}
}

func TestConsumeRoutesByDomainAndDropsCycleClass(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SMs: 2, Partitions: 1, Channels: 1, PerSM: 8, PerPart: 8, PerChan: 8, PerRun: 8})
	rec.Consume(smEvent(1, 0, obs.EvWarpDispatch, 0))
	rec.Consume(smEvent(2, 1, obs.EvWarpDispatch, 0))
	rec.Consume(obs.Event{Cycle: 3, Kind: obs.EvRowHit, Dom: obs.DomDRAM, Track: 0})
	rec.Consume(obs.Event{Cycle: 4, Kind: obs.EvMSHRAlloc, Dom: obs.DomPart, Track: 0})
	rec.Consume(obs.Event{Cycle: 5, Kind: obs.EvProgress, Track: -1})
	rec.Consume(smEvent(6, 0, obs.EvCycleClass, 0))   // dropped by default
	rec.Consume(smEvent(7, 9, obs.EvWarpDispatch, 0)) // out-of-range track: dropped

	got := rec.Events()
	if len(got) != 5 {
		t.Fatalf("Events() returned %d events, want 5 (cycle-class and out-of-range dropped)", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Cycle < got[i-1].Cycle {
			t.Fatalf("Events() not cycle-ordered: %d before %d", got[i-1].Cycle, got[i].Cycle)
		}
	}

	keep := NewRecorder(RecorderConfig{SMs: 1, PerSM: 8, PerPart: 8, PerChan: 8, PerRun: 8, KeepCycleClass: true})
	keep.Consume(smEvent(1, 0, obs.EvCycleClass, 0))
	if n := len(keep.Events()); n != 1 {
		t.Errorf("KeepCycleClass recorder kept %d events, want 1", n)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SMs: 1, PerSM: 16, PerPart: 4, PerChan: 4, PerRun: 4})
	rec.Consume(smEvent(10, 0, obs.EvWarpStallBegin, 3))
	rec.Consume(smEvent(20, 0, obs.EvWarpStallEnd, 3))
	rec.Consume(smEvent(30, 0, obs.EvWarpDispatch, 3))

	h := Header{
		Reason: ReasonWatchdog, Message: "no forward progress",
		Cycle: 100, Instructions: 42,
		Bench: "MM", Prefetcher: "caps", Scheduler: "pas",
		SMs: 1, Partitions: 1, Channels: 1,
		Machine: &MachineState{Cycle: 100, Instructions: 42, SMs: []SMSnapshot{{ID: 0, LiveWarps: 4}}},
	}
	d := Build(h, rec)
	if d.Header.Format != Format || d.Header.Version != Version {
		t.Fatalf("Build did not stamp format/version: %q v%d", d.Header.Format, d.Header.Version)
	}
	if d.Header.Events != len(d.Events) {
		t.Fatalf("header event count %d != %d events", d.Header.Events, len(d.Events))
	}

	path := filepath.Join(t.TempDir(), "x.flight.jsonl")
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := d.Header, back.Header
	ha.Machine, hb.Machine = nil, nil
	if ha != hb {
		t.Errorf("header round-trip mismatch:\n got %+v\nwant %+v", hb, ha)
	}
	if back.Header.Machine == nil || len(back.Header.Machine.SMs) != 1 || back.Header.Machine.SMs[0].LiveWarps != 4 {
		t.Errorf("machine state lost in round-trip: %+v", back.Header.Machine)
	}
	if len(back.Events) != len(d.Events) {
		t.Fatalf("event count round-trip: got %d, want %d", len(back.Events), len(d.Events))
	}
	for i := range back.Events {
		if back.Events[i] != d.Events[i] {
			t.Errorf("event %d round-trip mismatch: got %+v, want %+v", i, back.Events[i], d.Events[i])
		}
	}
}

func TestReadRejectsWrongFormat(t *testing.T) {
	for _, c := range []struct{ dump, want string }{
		{`{"format":"nope","version":2}`, `not a flight dump (format "nope"`},
		{`{"format":"caps-flight","version":99}`, "dump version 99, this build reads 2"},
		// Version 1 numbered obs.Kind with run.host_time at 30, so its
		// kind 31 (a sched.pick event) would decode as cta.phase here.
		{`{"format":"caps-flight","version":1}` + "\n" + `{"Cycle":5,"Kind":31,"Track":0}`,
			"dump version 1, this build reads 2"},
	} {
		_, err := Read(bytes.NewBufferString(c.dump + "\n"))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Read(%s) = %v, want an error containing %q", c.dump, err, c.want)
		}
	}
}

// A run that dies mid-stall leaves begins without ends; the dump must
// synthesize matching ends at the abort cycle so the Chrome export's async
// pairing stays closed.
func TestNormalizeSynthesizesOpenStallEnds(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SMs: 2, PerSM: 16, PerPart: 4, PerChan: 4, PerRun: 4})
	rec.Consume(smEvent(10, 0, obs.EvWarpStallBegin, 1)) // closed below
	rec.Consume(smEvent(15, 0, obs.EvWarpStallEnd, 1))
	rec.Consume(smEvent(20, 0, obs.EvWarpStallBegin, 2)) // left open
	rec.Consume(smEvent(25, 1, obs.EvWarpStallBegin, 2)) // left open, other SM

	d := Build(Header{Reason: ReasonViolation, Cycle: 30, SMs: 2, Partitions: 1, Channels: 1}, rec)
	if d.Header.SynthesizedEnds != 2 {
		t.Fatalf("SynthesizedEnds = %d, want 2", d.Header.SynthesizedEnds)
	}
	synth := 0
	for _, e := range d.Events {
		if e.Kind == obs.EvWarpStallEnd && e.Arg == SynthesizedEndArg {
			synth++
			if e.Cycle != 30 {
				t.Errorf("synthesized end at cycle %d, want abort cycle 30", e.Cycle)
			}
		}
	}
	if synth != 2 {
		t.Errorf("found %d synthesized ends in the event stream, want 2", synth)
	}
}

// A ring that overwrote a stall's begin leaves an orphan end, which the
// trace validator rejects outright: the dump must drop it.
func TestNormalizeDropsOrphanEnds(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SMs: 1, PerSM: 16, PerPart: 4, PerChan: 4, PerRun: 4})
	rec.Consume(smEvent(5, 0, obs.EvWarpStallEnd, 7)) // begin was overwritten
	rec.Consume(smEvent(10, 0, obs.EvWarpDispatch, 7))

	d := Build(Header{Reason: ReasonViolation, Cycle: 20, SMs: 1, Partitions: 1, Channels: 1}, rec)
	if d.Header.OrphanEnds != 1 {
		t.Fatalf("OrphanEnds = %d, want 1", d.Header.OrphanEnds)
	}
	for _, e := range d.Events {
		if e.Kind == obs.EvWarpStallEnd {
			t.Errorf("orphan end survived normalization: %+v", e)
		}
	}
}

// The repaired dump must re-render as a Chrome trace the strict validator
// accepts, with stall begins and ends balanced.
func TestDumpChromeTraceValidates(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SMs: 2, PerSM: 32, PerPart: 8, PerChan: 8, PerRun: 8})
	rec.Consume(smEvent(1, 0, obs.EvCTALaunch, -1))
	rec.Consume(smEvent(2, 0, obs.EvWarpStallBegin, 0))
	rec.Consume(smEvent(8, 0, obs.EvWarpStallEnd, 0))
	rec.Consume(smEvent(9, 1, obs.EvWarpStallBegin, 4)) // open at abort
	rec.Consume(smEvent(12, 0, obs.EvWarpStallEnd, 9))  // orphan
	rec.Consume(obs.Event{Cycle: 13, Kind: obs.EvRowHit, Dom: obs.DomDRAM, Track: 0})

	d := Build(Header{Reason: ReasonWatchdog, Cycle: 20, SMs: 2, Partitions: 1, Channels: 1}, rec)
	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatalf("validator rejected the dump's trace: %v", err)
	}
	if sum.StallBegins != sum.StallEnds {
		t.Errorf("stall pairs unbalanced after repair: %d begins, %d ends", sum.StallBegins, sum.StallEnds)
	}
	if sum.StallBegins != 2 {
		t.Errorf("StallBegins = %d, want 2", sum.StallBegins)
	}
}

// Build must accept a nil recorder: a run can die before any event fires.
func TestBuildNilRecorder(t *testing.T) {
	d := Build(Header{Reason: ReasonPanic, Cycle: 1}, nil)
	if d.Header.Events != 0 || len(d.Events) != 0 {
		t.Errorf("nil-recorder dump carries events: %+v", d.Header)
	}
}
