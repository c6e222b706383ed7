package config

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesTableIII(t *testing.T) {
	cfg := Default()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"NumSMs", cfg.NumSMs, 15},
		{"SIMTWidth", cfg.SIMTWidth, 32},
		{"CoreClockMHz", cfg.CoreClockMHz, 1400},
		{"MaxWarpsPerSM", cfg.MaxWarpsPerSM, 48},
		{"MaxCTAsPerSM", cfg.MaxCTAsPerSM, 8},
		{"RegFileKB", cfg.RegFileKB, 128},
		{"SharedMemKB", cfg.SharedMemKB, 48},
		{"ReadyQueueSize", cfg.ReadyQueueSize, 8},
		{"L1.SizeKB", cfg.L1.SizeKB, 16},
		{"L1.LineBytes", cfg.L1.LineBytes, 128},
		{"L1.Ways", cfg.L1.Ways, 4},
		{"L1.MSHREntries", cfg.L1.MSHREntries, 32},
		{"L2.SizeKB", cfg.L2.SizeKB, 64},
		{"L2.Ways", cfg.L2.Ways, 8},
		{"L2.MSHREntries", cfg.L2.MSHREntries, 32},
		{"NumPartitions", cfg.NumPartitions, 12},
		{"DRAM.Channels", cfg.DRAM.Channels, 6},
		{"DRAM.ClockMHz", cfg.DRAM.ClockMHz, 924},
		{"DRAM.QueueEntries", cfg.DRAM.QueueEntries, 16},
		{"DRAM.TCL", cfg.DRAM.TCL, 12},
		{"DRAM.TRP", cfg.DRAM.TRP, 12},
		{"DRAM.TRC", cfg.DRAM.TRC, 40},
		{"DRAM.TRAS", cfg.DRAM.TRAS, 28},
		{"DRAM.TRCD", cfg.DRAM.TRCD, 12},
		{"DRAM.TRRD", cfg.DRAM.TRRD, 6},
		{"DRAM.TCDLR", cfg.DRAM.TCDLR, 5},
		{"DRAM.TWR", cfg.DRAM.TWR, 12},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (Table III)", c.name, c.got, c.want)
		}
	}
	if cfg.Scheduler != SchedTwoLevel {
		t.Errorf("Scheduler = %q, want two-level baseline", cfg.Scheduler)
	}
}

func TestCacheGeometry(t *testing.T) {
	l1 := Default().L1
	if got := l1.Sets(); got != 32 {
		t.Errorf("L1 sets = %d, want 32 (16KB / (128B × 4 ways))", got)
	}
	if got := l1.Lines(); got != 128 {
		t.Errorf("L1 lines = %d, want 128", got)
	}
}

// Each mutation must be rejected by its own check: the error names it,
// so a row another check happens to reject first proves nothing.
func TestValidateRejectsBadConfigs(t *testing.T) {
	for _, c := range []struct {
		name, want string
		mutate     func(*GPUConfig)
	}{
		{"zero SMs", "NumSMs must be positive", func(c *GPUConfig) { c.NumSMs = 0 }},
		{"zero SIMT", "SIMTWidth must be positive", func(c *GPUConfig) { c.SIMTWidth = 0 }},
		{"zero warps", "MaxWarpsPerSM must be positive", func(c *GPUConfig) { c.MaxWarpsPerSM = 0 }},
		{"zero CTAs", "MaxCTAsPerSM must be positive", func(c *GPUConfig) { c.MaxCTAsPerSM = 0 }},
		{"CTAs > warps", "cannot exceed MaxWarpsPerSM", func(c *GPUConfig) { c.MaxCTAsPerSM = 100 }},
		{"zero issue", "IssueWidth must be positive", func(c *GPUConfig) { c.IssueWidth = 0 }},
		{"zero ready queue", "ReadyQueueSize must be positive", func(c *GPUConfig) { c.ReadyQueueSize = 0 }},
		{"zero partitions", "NumPartitions must be positive", func(c *GPUConfig) { c.NumPartitions = 0 }},
		{"non-pow2 chunk", "PartitionChunkBytes must be a positive power of two", func(c *GPUConfig) { c.PartitionChunkBytes = 100 }},
		{"negative icnt", "ICNTLatency must be non-negative", func(c *GPUConfig) { c.ICNTLatency = -1 }},
		{"zero icnt width", "ICNTWidth must be positive", func(c *GPUConfig) { c.ICNTWidth = 0 }},
		{"zero icnt queue", "ICNTQueue must be positive", func(c *GPUConfig) { c.ICNTQueue = 0 }},
		{"empty scheduler", "Scheduler must be set", func(c *GPUConfig) { c.Scheduler = "" }},
		{"line mismatch", "line sizes must match", func(c *GPUConfig) { c.L2.LineBytes = 64 }},
		{"non-pow2 line", "L1: LineBytes must be a positive power of two", func(c *GPUConfig) { c.L1.LineBytes = 100; c.L2.LineBytes = 100 }},
		{"zero L1 size", "L1: SizeKB must be positive", func(c *GPUConfig) { c.L1.SizeKB = 0 }},
		{"zero L1 ways", "L1: Ways must be positive", func(c *GPUConfig) { c.L1.Ways = 0 }},
		{"zero L1 mshr", "L1: MSHREntries must be positive", func(c *GPUConfig) { c.L1.MSHREntries = 0 }},
		{"zero L1 missq", "L1: MissQueue must be positive", func(c *GPUConfig) { c.L1.MissQueue = 0 }},
		{"neg L1 hitlat", "L1: HitLatency must be non-negative", func(c *GPUConfig) { c.L1.HitLatency = -1 }},
		{"zero L2 ways", "L2: Ways must be positive", func(c *GPUConfig) { c.L2.Ways = 0 }},
		{"zero channels", "dram: Channels must be positive", func(c *GPUConfig) { c.DRAM.Channels = 0 }},
		{"zero banks", "dram: BanksPerChannel must be positive", func(c *GPUConfig) { c.DRAM.BanksPerChannel = 0 }},
		{"zero dram queue", "dram: QueueEntries must be positive", func(c *GPUConfig) { c.DRAM.QueueEntries = 0 }},
		{"zero dram clock", "dram: ClockMHz must be positive", func(c *GPUConfig) { c.DRAM.ClockMHz = 0 }},
		{"zero bus width", "dram: BusWidthBytes must be positive", func(c *GPUConfig) { c.DRAM.BusWidthBytes = 0 }},
		{"zero burst", "dram: BurstLength must be positive", func(c *GPUConfig) { c.DRAM.BurstLength = 0 }},
		{"non-pow2 row", "dram: RowBytes must be a positive power of two", func(c *GPUConfig) { c.DRAM.RowBytes = 1000 }},
		{"negative timing", "dram: timing parameters must be non-negative", func(c *GPUConfig) { c.DRAM.TCL = -1 }},
		{"negative extra lat", "dram: ExtraLatency must be non-negative", func(c *GPUConfig) { c.DRAM.ExtraLatency = -1 }},
		{"part not mult chan", "must be a multiple of DRAM channels", func(c *GPUConfig) { c.NumPartitions = 7 }},
		{"zero pf accesses", "PrefetchMaxAccesses must be positive", func(c *GPUConfig) { c.PrefetchMaxAccesses = 0 }},
		{"zero pf table", "PrefetchTableSize must be positive", func(c *GPUConfig) { c.PrefetchTableSize = 0 }},
		{"negative pf buffer", "PrefetchBufferEntries must be non-negative", func(c *GPUConfig) { c.PrefetchBufferEntries = -1 }},
		{"zero mispredict", "MispredictThreshold must be positive", func(c *GPUConfig) { c.MispredictThreshold = 0 }},
		// The event encoding's bounds (see MaxUnits). The DRAM block is
		// validated before the partition count is checked against it, so
		// the channel row keeps the default partitions.
		{"SMs past int16", "NumSMs must be at most", func(c *GPUConfig) { c.NumSMs = MaxUnits + 1 }},
		{"partitions past int16", "NumPartitions must be at most", func(c *GPUConfig) { c.NumPartitions = 6 * 5462 }},
		{"channels past int16", "dram: Channels must be at most", func(c *GPUConfig) { c.DRAM.Channels = MaxUnits + 1 }},
		{"banks past uint8", "dram: BanksPerChannel must be at most", func(c *GPUConfig) { c.DRAM.BanksPerChannel = MaxBanksPerChannel * 2 }},
	} {
		cfg := Default()
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate returned %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestValidateBoundsEventEncoding pins each event-encoding bound to its own
// error one past the largest accepted value, which passes: no unit or bank
// id may wrap in an Event. The channel bound is checked on the DRAM block
// alone, which needs no partition count to match the channels.
func TestValidateBoundsEventEncoding(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*GPUConfig, int)
		max   int
	}{
		{"NumSMs", func(c *GPUConfig, n int) { c.NumSMs = n }, MaxUnits},
		{"NumPartitions", func(c *GPUConfig, n int) { c.NumPartitions = n; c.DRAM.Channels = 1 }, MaxUnits},
		{"Channels", func(c *GPUConfig, n int) { c.DRAM.Channels = n }, MaxUnits},
		{"BanksPerChannel", func(c *GPUConfig, n int) { c.DRAM.BanksPerChannel = n }, MaxBanksPerChannel},
	} {
		validate := GPUConfig.Validate
		if c.field == "Channels" {
			validate = func(g GPUConfig) error { return g.DRAM.Validate() }
		}
		cfg := Default()
		c.set(&cfg, c.max)
		if err := validate(cfg); err != nil {
			t.Errorf("%s = %d rejected: %v", c.field, c.max, err)
		}
		c.set(&cfg, c.max+1)
		if err := validate(cfg); err == nil || !strings.Contains(err.Error(), c.field+" must be at most") {
			t.Errorf("%s = %d: Validate returned %v, want a bound error naming %s", c.field, c.max+1, err, c.field)
		}
	}
}

func TestDRAMCyclesToCore(t *testing.T) {
	cfg := Default() // 1400 MHz core, 924 MHz DRAM
	if got := cfg.DRAMCyclesToCore(0); got != 0 {
		t.Errorf("0 dram cycles → %d core cycles, want 0", got)
	}
	if got := cfg.DRAMCyclesToCore(-3); got != 0 {
		t.Errorf("negative dram cycles → %d, want 0", got)
	}
	// 924 DRAM cycles = exactly 1400 core cycles.
	if got := cfg.DRAMCyclesToCore(924); got != 1400 {
		t.Errorf("924 dram cycles → %d core cycles, want 1400", got)
	}
	// Rounds up.
	if got := cfg.DRAMCyclesToCore(1); got != 2 {
		t.Errorf("1 dram cycle → %d core cycles, want 2 (ceil 1.515)", got)
	}
}

func TestDRAMCyclesToCoreMonotonic(t *testing.T) {
	cfg := Default()
	f := func(a, b uint8) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return cfg.DRAMCyclesToCore(x) <= cfg.DRAMCyclesToCore(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBurstCoreCycles(t *testing.T) {
	cfg := Default()
	// 128B line over an 8B bus, BL8 quad-pumped: 2 bursts × 2 command
	// cycles = 4 DRAM cycles → ceil(4 × 1400/924) = 7 core cycles.
	if got := cfg.BurstCoreCycles(); got != 7 {
		t.Errorf("BurstCoreCycles = %d, want 7", got)
	}
}

func TestTableString(t *testing.T) {
	s := Default().TableString()
	for _, want := range []string{
		"1400MHz, 32 SIMT width, 15 cores",
		"48 concurrent warps, 8 concurrent CTAs",
		"16KB, 128B line, 4-way, LRU, 32 MSHR entries",
		"64KB per partition (12 partitions)",
		"924MHz, x8 interface, 6 channels, FR-FCFS scheduler, 16 scheduler queue entries",
		"tCL=12, tRP=12, tRC=40, tRAS=28, tRCD=12, tRRD=6, tCDLR=5, tWR=12",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("TableString missing %q:\n%s", want, s)
		}
	}
}
