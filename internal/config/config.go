// Package config defines the GPU hardware configuration used by the
// simulator. The defaults mirror Table III of the CAPS paper (IPDPS 2018),
// which models an NVIDIA Fermi GTX480 as configured in GPGPU-Sim v3.2.2.
package config

import (
	"errors"
	"fmt"
	"strings"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeKB      int // total capacity in KiB
	LineBytes   int // cache line size in bytes
	Ways        int // associativity
	MSHREntries int // miss status holding registers
	HitLatency  int // core cycles from probe to data on a hit
	MissQueue   int // depth of the outgoing miss queue
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	return c.SizeKB * 1024 / (c.LineBytes * c.Ways)
}

// Lines returns the total number of cache lines.
func (c CacheConfig) Lines() int {
	return c.SizeKB * 1024 / c.LineBytes
}

// Validate reports a descriptive error for inconsistent geometry.
func (c CacheConfig) Validate(name string) error {
	switch {
	case c.SizeKB <= 0:
		return fmt.Errorf("%s: SizeKB must be positive, got %d", name, c.SizeKB)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("%s: LineBytes must be a positive power of two, got %d", name, c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("%s: Ways must be positive, got %d", name, c.Ways)
	case c.SizeKB*1024%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("%s: size %d KiB not divisible into %d-way sets of %d-byte lines", name, c.SizeKB, c.Ways, c.LineBytes)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("%s: set count %d must be a power of two", name, c.Sets())
	case c.MSHREntries <= 0:
		return fmt.Errorf("%s: MSHREntries must be positive, got %d", name, c.MSHREntries)
	case c.HitLatency < 0:
		return fmt.Errorf("%s: HitLatency must be non-negative, got %d", name, c.HitLatency)
	case c.MissQueue <= 0:
		return fmt.Errorf("%s: MissQueue must be positive, got %d", name, c.MissQueue)
	}
	return nil
}

// DRAMConfig describes the GDDR5 channels (Table III bottom rows).
type DRAMConfig struct {
	Channels        int // memory channels
	BanksPerChannel int // DRAM banks per channel
	QueueEntries    int // FR-FCFS scheduler queue depth per channel
	ClockMHz        int // DRAM command clock
	BusWidthBytes   int // data bus width per channel (×4 interface → 4 bytes)
	BurstLength     int // transfers per burst
	RowBytes        int // row-buffer size in bytes

	// GDDR5 timing, in DRAM cycles (Table III).
	TCL, TRP, TRC, TRAS, TRCD, TRRD, TCDLR, TWR int

	// ExtraLatency is the fixed memory-controller pipeline latency added
	// to every DRAM access, in core cycles (command queues, PHY, clock
	// crossings). Fermi microbenchmarks measure ~600-cycle global loads;
	// the GDDR5 array timings alone account for well under 100.
	ExtraLatency int
}

// Bounds from the observability event encoding (internal/obs Event): a
// unit's id rides in the int16 Event.Track of its trace events, and a DRAM
// bank's id in the uint8 Event.Arg of its row hits and misses. A larger
// machine would file its events under wrapped ids.
const (
	MaxUnits           = 1<<15 - 1 // bounds NumSMs, NumPartitions and DRAM.Channels
	MaxBanksPerChannel = 1 << 8
)

// Validate reports a descriptive error for impossible DRAM parameters.
func (d DRAMConfig) Validate() error {
	switch {
	case d.Channels <= 0:
		return fmt.Errorf("dram: Channels must be positive, got %d", d.Channels)
	case d.Channels > MaxUnits:
		return fmt.Errorf("dram: Channels must be at most %d, got %d", MaxUnits, d.Channels)
	case d.BanksPerChannel <= 0:
		return fmt.Errorf("dram: BanksPerChannel must be positive, got %d", d.BanksPerChannel)
	case d.BanksPerChannel > MaxBanksPerChannel:
		return fmt.Errorf("dram: BanksPerChannel must be at most %d, got %d", MaxBanksPerChannel, d.BanksPerChannel)
	case d.QueueEntries <= 0:
		return fmt.Errorf("dram: QueueEntries must be positive, got %d", d.QueueEntries)
	case d.ClockMHz <= 0:
		return fmt.Errorf("dram: ClockMHz must be positive, got %d", d.ClockMHz)
	case d.BusWidthBytes <= 0:
		return fmt.Errorf("dram: BusWidthBytes must be positive, got %d", d.BusWidthBytes)
	case d.BurstLength <= 0:
		return fmt.Errorf("dram: BurstLength must be positive, got %d", d.BurstLength)
	case d.RowBytes <= 0 || d.RowBytes&(d.RowBytes-1) != 0:
		return fmt.Errorf("dram: RowBytes must be a positive power of two, got %d", d.RowBytes)
	case d.TCL < 0 || d.TRP < 0 || d.TRC < 0 || d.TRAS < 0 || d.TRCD < 0 || d.TRRD < 0 || d.TCDLR < 0 || d.TWR < 0:
		return errors.New("dram: timing parameters must be non-negative")
	case d.ExtraLatency < 0:
		return fmt.Errorf("dram: ExtraLatency must be non-negative, got %d", d.ExtraLatency)
	}
	return nil
}

// SchedulerKind selects the warp scheduling policy on each SM.
type SchedulerKind string

// Scheduler policies. TwoLevel is the paper's baseline; PAS is the
// prefetch-aware two-level scheduler proposed by the paper.
const (
	SchedLRR      SchedulerKind = "lrr"
	SchedGTO      SchedulerKind = "gto"
	SchedTwoLevel SchedulerKind = "tlv"
	SchedPAS      SchedulerKind = "pas"
)

// GPUConfig is the full machine description.
type GPUConfig struct {
	// Core organization.
	NumSMs        int // streaming multiprocessors
	SIMTWidth     int // lanes per SM
	CoreClockMHz  int
	MaxWarpsPerSM int // concurrent warp contexts per SM
	MaxCTAsPerSM  int // concurrent CTAs per SM
	IssueWidth    int // instructions issued per SM per cycle
	RegFileKB     int
	SharedMemKB   int

	// Warp scheduler.
	Scheduler      SchedulerKind
	ReadyQueueSize int // two-level ready queue entries

	// Memory hierarchy.
	L1            CacheConfig
	L2            CacheConfig // per partition
	NumPartitions int
	// PartitionChunkBytes is the address-interleave granularity across
	// memory partitions (the L1 line size by default — the GPGPU-Sim
	// mapping; larger chunks trade interleave uniformity for DRAM row
	// locality).
	PartitionChunkBytes int
	ICNTLatency         int // one-way interconnect latency in core cycles
	ICNTWidth           int // packets accepted per direction per core cycle
	ICNTQueue           int // per-direction buffering before backpressure

	DRAM DRAMConfig

	// Prefetching.
	PrefetchMaxAccesses int // loads with more coalesced accesses are not prefetch targets (paper: 4)
	PrefetchTableSize   int // PerCTA and DIST entries (paper: 4)
	// PrefetchBufferEntries sizes the prefetch request buffer: in-flight
	// prefetch-only misses occupy these entries instead of demand MSHRs,
	// so low-priority prefetches never steal demand miss capacity
	// (stream-buffer style prefetch engines do the same).
	PrefetchBufferEntries int
	MispredictThreshold   int  // DIST misprediction shut-off threshold (paper: 128)
	PrefetchWakeup        bool // PAS eager warp wake-up on prefetch fill

	// Run control.
	MaxInsts int64 // stop after this many instructions (0 = unlimited)
	MaxCycle int64 // safety cap on simulated cycles (0 = unlimited)

	// CheckInvariants enables the cycle-level sanitizer
	// (internal/invariant): per-cycle audits of MSHR accounting, two-level
	// scheduler queue discipline, leading-warp marks and the CAP table
	// bounds. Off by default because the audits cost simulation speed; CI
	// and the determinism harness switch it on.
	CheckInvariants bool
}

// Default returns the Table III configuration.
func Default() GPUConfig {
	return GPUConfig{
		NumSMs:        15,
		SIMTWidth:     32,
		CoreClockMHz:  1400,
		MaxWarpsPerSM: 48,
		MaxCTAsPerSM:  8,
		IssueWidth:    2,
		RegFileKB:     128,
		SharedMemKB:   48,

		Scheduler:      SchedTwoLevel,
		ReadyQueueSize: 8,

		L1: CacheConfig{
			SizeKB: 16, LineBytes: 128, Ways: 4,
			MSHREntries: 32, HitLatency: 1, MissQueue: 8,
		},
		L2: CacheConfig{
			SizeKB: 64, LineBytes: 128, Ways: 8,
			MSHREntries: 32, HitLatency: 8, MissQueue: 16,
		},
		NumPartitions:       12,
		PartitionChunkBytes: 128,
		ICNTLatency:         150,
		ICNTWidth:           4,
		ICNTQueue:           64,

		DRAM: DRAMConfig{
			Channels:        6,
			BanksPerChannel: 8,
			QueueEntries:    16,
			ClockMHz:        924,
			BusWidthBytes:   8,
			BurstLength:     8,
			RowBytes:        2048,
			TCL:             12, TRP: 12, TRC: 40, TRAS: 28,
			TRCD: 12, TRRD: 6, TCDLR: 5, TWR: 12,
			ExtraLatency: 150,
		},

		PrefetchMaxAccesses:   4,
		PrefetchTableSize:     4,
		PrefetchBufferEntries: 16,
		MispredictThreshold:   128,
		PrefetchWakeup:        true,

		MaxInsts: 1_000_000,
		MaxCycle: 30_000_000,
	}
}

// Validate checks the whole configuration for consistency.
func (g GPUConfig) Validate() error {
	switch {
	case g.NumSMs <= 0:
		return fmt.Errorf("NumSMs must be positive, got %d", g.NumSMs)
	case g.NumSMs > MaxUnits:
		return fmt.Errorf("NumSMs must be at most %d, got %d", MaxUnits, g.NumSMs)
	case g.SIMTWidth <= 0:
		return fmt.Errorf("SIMTWidth must be positive, got %d", g.SIMTWidth)
	case g.MaxWarpsPerSM <= 0:
		return fmt.Errorf("MaxWarpsPerSM must be positive, got %d", g.MaxWarpsPerSM)
	case g.MaxCTAsPerSM <= 0:
		return fmt.Errorf("MaxCTAsPerSM must be positive, got %d", g.MaxCTAsPerSM)
	case g.MaxCTAsPerSM > g.MaxWarpsPerSM:
		return fmt.Errorf("MaxCTAsPerSM (%d) cannot exceed MaxWarpsPerSM (%d)", g.MaxCTAsPerSM, g.MaxWarpsPerSM)
	case g.IssueWidth <= 0:
		return fmt.Errorf("IssueWidth must be positive, got %d", g.IssueWidth)
	case g.ReadyQueueSize <= 0:
		return fmt.Errorf("ReadyQueueSize must be positive, got %d", g.ReadyQueueSize)
	case g.NumPartitions <= 0:
		return fmt.Errorf("NumPartitions must be positive, got %d", g.NumPartitions)
	case g.NumPartitions > MaxUnits:
		return fmt.Errorf("NumPartitions must be at most %d, got %d", MaxUnits, g.NumPartitions)
	case g.PartitionChunkBytes <= 0 || g.PartitionChunkBytes&(g.PartitionChunkBytes-1) != 0:
		return fmt.Errorf("PartitionChunkBytes must be a positive power of two, got %d", g.PartitionChunkBytes)
	case g.ICNTLatency < 0:
		return fmt.Errorf("ICNTLatency must be non-negative, got %d", g.ICNTLatency)
	case g.ICNTWidth <= 0:
		return fmt.Errorf("ICNTWidth must be positive, got %d", g.ICNTWidth)
	case g.ICNTQueue <= 0:
		return fmt.Errorf("ICNTQueue must be positive, got %d", g.ICNTQueue)
	case g.PrefetchMaxAccesses <= 0:
		return fmt.Errorf("PrefetchMaxAccesses must be positive, got %d", g.PrefetchMaxAccesses)
	case g.PrefetchTableSize <= 0:
		return fmt.Errorf("PrefetchTableSize must be positive, got %d", g.PrefetchTableSize)
	case g.PrefetchBufferEntries < 0:
		return fmt.Errorf("PrefetchBufferEntries must be non-negative, got %d", g.PrefetchBufferEntries)
	case g.MispredictThreshold <= 0:
		return fmt.Errorf("MispredictThreshold must be positive, got %d", g.MispredictThreshold)
	case g.L1.LineBytes != g.L2.LineBytes:
		return fmt.Errorf("L1 and L2 line sizes must match, got %d and %d", g.L1.LineBytes, g.L2.LineBytes)
	}
	// Scheduler names are resolved through the sched registry at GPU
	// construction (unknown names error there with the registered list);
	// config only insists one is selected, so packages can register new
	// policies without touching validation.
	if g.Scheduler == "" {
		return fmt.Errorf("Scheduler must be set")
	}
	if err := g.L1.Validate("L1"); err != nil {
		return err
	}
	if err := g.L2.Validate("L2"); err != nil {
		return err
	}
	if err := g.DRAM.Validate(); err != nil {
		return err
	}
	if g.NumPartitions%g.DRAM.Channels != 0 {
		return fmt.Errorf("NumPartitions (%d) must be a multiple of DRAM channels (%d)", g.NumPartitions, g.DRAM.Channels)
	}
	return nil
}

// DRAMCyclesToCore converts DRAM command cycles to core cycles, rounding up.
func (g GPUConfig) DRAMCyclesToCore(dramCycles int) int64 {
	if dramCycles <= 0 {
		return 0
	}
	n := int64(dramCycles) * int64(g.CoreClockMHz)
	d := int64(g.DRAM.ClockMHz)
	return (n + d - 1) / d
}

// BurstCoreCycles returns the core-cycle cost of moving one cache line over
// one channel's data bus. GDDR5 moves four transfers per command-clock
// cycle (quad data rate), so BurstLength transfers take BurstLength/4
// command-clock cycles.
func (g GPUConfig) BurstCoreCycles() int64 {
	bytesPerBurst := g.DRAM.BusWidthBytes * g.DRAM.BurstLength
	bursts := (g.L1.LineBytes + bytesPerBurst - 1) / bytesPerBurst
	dramCycles := bursts * g.DRAM.BurstLength / 4
	if dramCycles < 1 {
		dramCycles = 1
	}
	return g.DRAMCyclesToCore(dramCycles)
}

// TableString renders the configuration in the layout of Table III.
func (g GPUConfig) TableString() string {
	var b strings.Builder
	row := func(k, v string) { fmt.Fprintf(&b, "%-18s %s\n", k, v) }
	row("Core", fmt.Sprintf("%dMHz, %d SIMT width, %d cores", g.CoreClockMHz, g.SIMTWidth, g.NumSMs))
	row("Resources / core", fmt.Sprintf("%d concurrent warps, %d concurrent CTAs", g.MaxWarpsPerSM, g.MaxCTAsPerSM))
	row("Register file", fmt.Sprintf("%dKB", g.RegFileKB))
	row("Shared memory", fmt.Sprintf("%dKB", g.SharedMemKB))
	row("Scheduler", fmt.Sprintf("%s scheduler (%d ready warps)", g.Scheduler, g.ReadyQueueSize))
	row("L1D cache", fmt.Sprintf("%dKB, %dB line, %d-way, LRU, %d MSHR entries",
		g.L1.SizeKB, g.L1.LineBytes, g.L1.Ways, g.L1.MSHREntries))
	row("L2 unified cache", fmt.Sprintf("%dKB per partition (%d partitions), %dB line, %d-way, LRU, %d MSHR entries",
		g.L2.SizeKB, g.NumPartitions, g.L2.LineBytes, g.L2.Ways, g.L2.MSHREntries))
	row("DRAM", fmt.Sprintf("%dMHz, x%d interface, %d channels, FR-FCFS scheduler, %d scheduler queue entries",
		g.DRAM.ClockMHz, g.DRAM.BusWidthBytes, g.DRAM.Channels, g.DRAM.QueueEntries))
	row("GDDR5 Timing", fmt.Sprintf("tCL=%d, tRP=%d, tRC=%d, tRAS=%d, tRCD=%d, tRRD=%d, tCDLR=%d, tWR=%d",
		g.DRAM.TCL, g.DRAM.TRP, g.DRAM.TRC, g.DRAM.TRAS, g.DRAM.TRCD, g.DRAM.TRRD, g.DRAM.TCDLR, g.DRAM.TWR))
	return b.String()
}
