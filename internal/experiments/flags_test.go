package experiments

import (
	"flag"
	"runtime"
	"testing"

	"caps/internal/config"
)

func TestAddSimFlagsSharedSpelling(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddSimFlags(fs)
	if err := fs.Parse([]string{"-workers=4"}); err != nil {
		t.Fatal(err)
	}
	if f.Workers != 4 {
		t.Fatalf("parsed SimFlags = %+v, want Workers=4", *f)
	}
	if n := len(f.SimOptions()); n != 1 {
		t.Errorf("SimOptions returned %d options, want workers", n)
	}
	serial := &SimFlags{Workers: 1}
	if n := len(serial.SimOptions()); n != 0 {
		t.Errorf("serial defaults produced %d options, want none (flags must be opt-in)", n)
	}
}

func TestSimFlagsParallelismComposition(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	// workers=0 resolves to one per CPU: on a multi-CPU machine that
	// derates the suite to one concurrent run; on a 1-CPU machine it is
	// the serial configuration, so the suite keeps its own default.
	allCPUs := 0
	if procs > 1 {
		allCPUs = 1
	}
	for _, tc := range []struct {
		name      string
		flags     SimFlags
		requested int
		want      int
	}{
		{"explicit -par wins", SimFlags{Workers: 8}, 3, 3},
		{"serial run, suite default", SimFlags{Workers: 1}, 0, 0},
		{"workers derate the suite", SimFlags{Workers: procs + 1}, 0, 1},
		{"workers=0 means one per CPU", SimFlags{Workers: 0}, 0, allCPUs},
	} {
		if got := tc.flags.Parallelism(tc.requested); got != tc.want {
			t.Errorf("%s: Parallelism(%d) with workers=%d = %d, want %d",
				tc.name, tc.requested, tc.flags.Workers, got, tc.want)
		}
	}
}

// A tuned suite run must reproduce the serial run's statistics exactly —
// this is the flag-builder end of the same identity the determinism
// package proves on raw GPUs, here routed through WithRunOptions.
func TestSuiteRunOptionsPreserveStats(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 20_000
	cfg.NumSMs = 4
	key := PrefetcherKey("MM", "caps")

	serial, err := NewSuite(cfg).Run(key)
	if err != nil {
		t.Fatal(err)
	}
	f := &SimFlags{Workers: 2}
	tuned, err := NewSuite(cfg, f.SuiteOptions(0)...).Run(key)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Cycles != tuned.Cycles || serial.Instructions != tuned.Instructions {
		t.Errorf("tuned suite run diverged: cycles %d vs %d, instructions %d vs %d",
			tuned.Cycles, serial.Cycles, tuned.Instructions, serial.Instructions)
	}
	if serial.IPC() != tuned.IPC() {
		t.Errorf("tuned suite run IPC %v, serial %v", tuned.IPC(), serial.IPC())
	}
}

func TestBuildSpeedReportIdentityGate(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 20_000
	cfg.NumSMs = 4
	f := &SimFlags{Workers: 2}
	rep, err := BuildSpeedReport(cfg, []string{"MM"}, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 || rep.Entries[0].Bench != "MM" {
		t.Fatalf("report entries = %+v, want exactly MM", rep.Entries)
	}
	e := rep.Entries[0]
	if e.Cycles <= 0 || e.Instructions <= 0 {
		t.Errorf("entry recorded no work: %+v", e)
	}
	if e.BaseMS <= 0 || e.TunedMS <= 0 || e.Speedup <= 0 {
		t.Errorf("entry recorded no timing: %+v", e)
	}

	path := t.TempDir() + "/speed.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpeedReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workers != rep.Workers || len(back.Entries) != len(rep.Entries) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", back, rep)
	}
}

func TestDiffSpeedFlagsRegressions(t *testing.T) {
	base := &SpeedReport{
		Speedup: 2.0,
		Entries: []SpeedEntry{{Bench: "MM", Speedup: 2.0}, {Bench: "STE", Speedup: 3.0}},
	}
	same := &SpeedReport{
		Speedup: 1.9,
		Entries: []SpeedEntry{{Bench: "MM", Speedup: 1.8}, {Bench: "STE", Speedup: 2.9}},
	}
	if msgs := DiffSpeed(base, same, 0.2); len(msgs) != 0 {
		t.Errorf("within-tolerance diff reported: %v", msgs)
	}
	bad := &SpeedReport{
		Speedup: 1.0,
		Entries: []SpeedEntry{{Bench: "MM", Speedup: 1.0}},
	}
	msgs := DiffSpeed(base, bad, 0.2)
	if len(msgs) != 3 { // MM regressed, STE missing, aggregate regressed
		t.Errorf("got %d regression messages (%v), want 3", len(msgs), msgs)
	}
}
