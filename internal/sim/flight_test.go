package sim

import (
	"errors"
	"strings"
	"testing"

	"caps/internal/config"
	"caps/internal/flight"
	"caps/internal/kernels"
)

func flightTestConfig(t *testing.T) config.GPUConfig {
	t.Helper()
	cfg := config.Default()
	cfg.NumSMs = 4
	cfg.MaxInsts = 60_000
	return cfg
}

func mustKernel(t *testing.T, abbr string) *kernels.Kernel {
	t.Helper()
	k, err := kernels.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// An injected invariant violation must abort the run and hand a black box
// to the OnDump callback with the violation reason and a machine snapshot.
func TestInjectViolationProducesDump(t *testing.T) {
	cfg := flightTestConfig(t)
	var dump *flight.Dump
	g, err := New(cfg, mustKernel(t, "MM"),
		WithPrefetcher("caps"),
		WithFlight(NewFlightRecorder(cfg)),
		WithOnDump(func(d *flight.Dump) { dump = d }),
		WithInjectViolation(2_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Run()
	if err == nil {
		t.Fatal("injected violation did not abort the run")
	}
	if !strings.Contains(err.Error(), "synthetic violation") {
		t.Fatalf("abort error %q does not name the injected violation", err)
	}
	if dump == nil {
		t.Fatal("abort did not emit a flight dump")
	}
	if dump.Header.Reason != flight.ReasonViolation {
		t.Errorf("dump reason %q, want %q", dump.Header.Reason, flight.ReasonViolation)
	}
	if dump.Header.Bench != "MM" || dump.Header.Prefetcher != "caps" {
		t.Errorf("dump header misidentifies the run: %s/%s", dump.Header.Bench, dump.Header.Prefetcher)
	}
	if len(dump.Events) == 0 {
		t.Error("dump carries no events")
	}
	if dump.Header.Machine == nil || len(dump.Header.Machine.SMs) != cfg.NumSMs {
		t.Errorf("dump machine state missing or wrong SM count: %+v", dump.Header.Machine)
	}
}

// A watchdog threshold smaller than the warm-up stall window must fire,
// return an error naming the stall, and dump with the watchdog reason.
func TestWatchdogFiresOnTinyThreshold(t *testing.T) {
	cfg := flightTestConfig(t)
	var dump *flight.Dump
	g, err := New(cfg, mustKernel(t, "MM"),
		WithPrefetcher("caps"),
		WithFlight(NewFlightRecorder(cfg)),
		WithOnDump(func(d *flight.Dump) { dump = d }),
		WithProgressEvery(16),
		WithWatchdogCycles(64), // any real memory stall exceeds this
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = g.Run(); err == nil {
		t.Fatal("watchdog never fired at a 64-cycle threshold")
	} else if !strings.Contains(err.Error(), "no forward progress") {
		t.Fatalf("watchdog error %q does not name the stall", err)
	}
	if dump == nil || dump.Header.Reason != flight.ReasonWatchdog {
		t.Fatalf("watchdog abort did not dump with the watchdog reason: %+v", dump)
	}
}

// RequestStop must end the run at the next progress beat with
// ErrInterrupted and partial statistics intact.
func TestRequestStopInterruptsRun(t *testing.T) {
	cfg := flightTestConfig(t)
	g, err := New(cfg, mustKernel(t, "MM"), WithPrefetcher("caps"), WithProgressEvery(16))
	if err != nil {
		t.Fatal(err)
	}
	g.RequestStop()
	st, err := g.Run()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run() after RequestStop returned %v, want ErrInterrupted", err)
	}
	if g.Cycle() > 64 {
		t.Errorf("run continued to cycle %d after an immediate stop request", g.Cycle())
	}
	if st == nil {
		t.Error("interrupted run returned nil stats")
	}
}

// RequestDump must emit a signal-reason dump without stopping the run.
func TestRequestDumpMidRun(t *testing.T) {
	cfg := flightTestConfig(t)
	var dumps []*flight.Dump
	g, err := New(cfg, mustKernel(t, "MM"),
		WithPrefetcher("caps"),
		WithFlight(NewFlightRecorder(cfg)),
		WithOnDump(func(d *flight.Dump) { dumps = append(dumps, d) }),
		WithProgressEvery(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	g.RequestDump()
	if _, err := g.Run(); err != nil {
		t.Fatalf("run with a dump request failed: %v", err)
	}
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	if dumps[0].Header.Reason != flight.ReasonSignal {
		t.Errorf("dump reason %q, want %q", dumps[0].Header.Reason, flight.ReasonSignal)
	}
}

// A panic inside Step must still produce a black box before re-panicking.
func TestPanicEmitsDump(t *testing.T) {
	cfg := flightTestConfig(t)
	var dump *flight.Dump
	g, err := New(cfg, mustKernel(t, "MM"),
		WithPrefetcher("caps"),
		WithFlight(NewFlightRecorder(cfg)),
		WithOnDump(func(d *flight.Dump) { dump = d }),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the machine so Step panics: nil out an SM's scheduler.
	// (The dump's snapshot tolerates it — the schedQueues assertion on a
	// nil interface simply fails — so the black box still gets written.)
	g.sms[0].sched = nil
	func() {
		defer func() {
			if recover() == nil {
				t.Error("sabotaged run did not panic")
			}
		}()
		g.Run() //nolint:errcheck // panics
	}()
	if dump == nil || dump.Header.Reason != flight.ReasonPanic {
		t.Fatalf("panic did not emit a panic-reason dump: %+v", dump)
	}
	if !strings.Contains(dump.Header.Message, "panic at cycle") {
		t.Errorf("panic dump message %q does not carry the panic site", dump.Header.Message)
	}
}

// The one-shot prefetch perturbation must fire exactly once at or after
// the requested cycle and report where.
func TestPerturbPrefetchFiresOnce(t *testing.T) {
	cfg := flightTestConfig(t)
	g, err := New(cfg, mustKernel(t, "MM"), WithPrefetcher("caps"), WithPerturbPrefetchAt(500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	at := g.PerturbedAt()
	if at < 500 {
		t.Fatalf("PerturbedAt() = %d, want >= 500", at)
	}
	if g.sms[0].perturbAt != 0 {
		t.Error("perturbation armed after firing: not one-shot")
	}
}
