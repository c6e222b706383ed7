package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"caps/internal/config"
	"caps/internal/flight"
	"caps/internal/sim"
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

// TestAbortedRunLeavesInspectableTrail drives the whole post-mortem chain
// through the suite: an injected invariant violation kills the run, the
// flight recorder leaves its black box under the run's name, the dump's
// header says why and which run died, and Failures names the run.
func TestAbortedRunLeavesInspectableTrail(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 60_000
	flightDir := t.TempDir()
	s := NewSuite(cfg, WithBenches([]string{"MM"}),
		WithFlight(flightDir, func(k RunKey, err error) { t.Errorf("flight hook %s: %v", k.Name(), err) }),
		WithRunOptions(sim.WithInjectViolation(2000)),
	)
	k := PrefetcherKey("MM", "caps")
	if _, err := s.Run(k); err == nil {
		t.Fatal("injected violation did not fail the run")
	}

	d, err := flight.ReadFile(filepath.Join(flightDir, "MM-caps-pas.flight.jsonl"))
	if err != nil {
		t.Fatalf("no readable flight dump: %v", err)
	}
	h := d.Header
	if h.Reason != flight.ReasonViolation {
		t.Errorf("dump reason %q, want %q", h.Reason, flight.ReasonViolation)
	}
	if h.Bench != "MM" || h.Prefetcher != "caps" {
		t.Errorf("dump names run %s/%s, want MM/caps", h.Bench, h.Prefetcher)
	}
	fails := s.Failures()
	if len(fails) != 1 || fails[0].Key != k {
		t.Fatalf("Failures() = %+v, want the one run %s", fails, k.Name())
	}
	if !strings.Contains(fails[0].Err.Error(), "violation") {
		t.Errorf("failure %q does not name the violation", fails[0].Err)
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
