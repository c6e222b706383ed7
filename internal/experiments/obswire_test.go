package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caps/internal/config"
	"caps/internal/runstore"
	"caps/internal/sim"
	"caps/internal/telemetry"
)

func TestRunKeyName(t *testing.T) {
	cases := []struct {
		k    RunKey
		want string
	}{
		{PrefetcherKey("MM", "caps"), "MM-caps-pas"},
		{BaselineKey("CNV"), "CNV-none-tlv"},
		{RunKey{Bench: "CNV", Prefetch: "lap", Scheduler: config.SchedTwoLevel, MaxCTAs: 2, NoWakeup: true},
			"CNV-lap-tlv-ctas2-nowakeup"},
	}
	for _, c := range cases {
		if got := c.k.Name(); got != c.want {
			t.Errorf("Name(%+v) = %q, want %q", c.k, got, c.want)
		}
	}
}

// TestWithTelemetry drives a real (tiny) simulation through the telemetry
// hub and checks that progress beats and the final done event arrive.
func TestWithTelemetry(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 40_000
	hub := telemetry.NewHub()
	s := NewSuite(cfg, WithBenches([]string{"MM"}), WithTelemetry(hub))
	k := PrefetcherKey("MM", "caps")
	st, err := s.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	runs := hub.Runs()
	if len(runs) != 1 {
		t.Fatalf("hub has %d runs, want 1: %+v", len(runs), runs)
	}
	p := runs[0]
	if p.Run != "MM-caps-pas" || !p.Done {
		t.Errorf("final progress wrong: %+v", p)
	}
	if p.Cycles != st.Cycles || p.Instructions != st.Instructions {
		t.Errorf("final progress (%d cycles, %d insts) != stats (%d, %d)",
			p.Cycles, p.Instructions, st.Cycles, st.Instructions)
	}
	// The merged scrape must include real simulator counters.
	found := false
	for _, smp := range hub.MergedSamples() {
		if smp.Name == "cta_launch_total" && smp.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Error("merged samples missing simulator counters")
	}
}

// TestWithRunStore checks that completed runs land in the store with a
// profile attached, and that memoized re-runs do not store twice.
func TestWithRunStore(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 40_000
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var hookErrs []error
	s := NewSuite(cfg, WithBenches([]string{"MM"}),
		WithRunStore(store, func(_ RunKey, err error) { hookErrs = append(hookErrs, err) }))
	k := PrefetcherKey("MM", "caps")
	if _, err := s.Run(k); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(k); err != nil { // memoized: must not re-store
		t.Fatal(err)
	}
	if len(hookErrs) > 0 {
		t.Fatalf("store hooks reported errors: %v", hookErrs)
	}
	entries := store.List(runstore.Query{})
	if len(entries) != 1 {
		t.Fatalf("store has %d entries, want 1: %+v", len(entries), entries)
	}
	e := entries[0]
	if e.Bench != "MM" || e.Prefetcher != "caps" || e.Scheduler != "pas" {
		t.Errorf("stored identity wrong: %+v", e)
	}
	if !e.HasProfile {
		t.Error("stored run is missing its profile")
	}
	rec, err := store.Get(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Profile == nil || rec.Profile.TotalCycles != rec.Cycles {
		t.Errorf("stored profile inconsistent: %+v", rec.Profile)
	}
	if rec.Stats == nil || rec.Stats.IPC() != rec.IPC {
		t.Errorf("stored stats inconsistent")
	}
}

// TestAbortedRunLeavesInspectableTrail drives the whole post-mortem chain
// through the suite: an injected invariant violation kills the run, the
// flight recorder dumps its black box, the run store keeps an ABORTED
// record pointing at the dump, and telemetry publishes the abort.
func TestAbortedRunLeavesInspectableTrail(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 60_000
	flightDir := t.TempDir()
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub()
	s := NewSuite(cfg, WithBenches([]string{"MM"}),
		WithRunStore(store, func(k RunKey, err error) { t.Errorf("store hook %s: %v", k.Name(), err) }),
		WithTelemetry(hub),
		WithFlight(flightDir, func(k RunKey, err error) { t.Errorf("flight hook %s: %v", k.Name(), err) }),
		WithRunOptions(sim.WithInjectViolation(2000)),
	)
	k := PrefetcherKey("MM", "caps")
	if _, err := s.Run(k); err == nil {
		t.Fatal("injected violation did not fail the run")
	}

	wantDump := filepath.Join(flightDir, k.Name()+".flight.jsonl")
	if _, err := os.Stat(wantDump); err != nil {
		t.Fatalf("no flight dump written: %v", err)
	}

	entries := store.List(runstore.Query{})
	if len(entries) != 1 {
		t.Fatalf("store has %d entries, want 1: %+v", len(entries), entries)
	}
	e := entries[0]
	if !e.Aborted {
		t.Errorf("stored record not marked aborted: %+v", e)
	}
	rec, err := store.Get(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.AbortReason, "violation") {
		t.Errorf("abort reason %q does not name the violation", rec.AbortReason)
	}
	if rec.FlightDump != wantDump {
		t.Errorf("stored flight dump %q, want %q", rec.FlightDump, wantDump)
	}
	if rec.Profile != nil {
		t.Errorf("aborted record carries a profile; cycle accounting is only valid for completed runs")
	}

	runs := hub.Runs()
	if len(runs) != 1 || !runs[0].Aborted || runs[0].FlightDump != wantDump {
		t.Errorf("telemetry missing the abort: %+v", runs)
	}
}

func TestFailures(t *testing.T) {
	s := quickSuite()
	if _, err := s.Run(BaselineKey("NOPE")); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := s.Run(BaselineKey("ALSO")); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := s.Run(BaselineKey("CNV")); err != nil {
		t.Fatal(err)
	}
	fails := s.Failures()
	if len(fails) != 2 {
		t.Fatalf("Failures() = %d entries, want 2: %+v", len(fails), fails)
	}
	// Sorted by run name: ALSO before NOPE.
	if fails[0].Key.Bench != "ALSO" || fails[1].Key.Bench != "NOPE" {
		t.Errorf("failures not sorted by name: %+v", fails)
	}
	for _, f := range fails {
		if f.Err == nil {
			t.Errorf("failure %s has nil error", f.Key.Name())
		}
	}
}
