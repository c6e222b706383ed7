// Command simbench is the repository's performance benchmark. It runs one
// named workload of Table IV kernels through the public simulator API
// (kernels.ByAbbr → sim.New → GPU.Run), checks every run's statistics
// against the committed digests, and prints one JSON result line.
//
//	simbench -workload sm_bound -seed 1 -seconds 25 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with nothing
// attached beyond what the workload itself attaches. With -trace 1 it
// makes a separate traced run and reports the per-layer metrics; the
// spans go to -out. WORKLOADS.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"caps/internal/hostprof"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostContext is stored with every result: a wall-clock number means
// little without the host that produced it.
type hostContext struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	hostprof.Context
	// Flag marks results that are not what the workload claims to measure
	// (a parallel workload on fewer CPUs than workers).
	Flag string `json:"flag,omitempty"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sm_bound, mem_bound, lensed or parallel")
	seed := fs.Int64("seed", 1, "permutes the order of the workload's runs")
	seconds := fs.Float64("seconds", 10, "untraced measurement time; at least one full pass runs")
	traceOn := fs.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	out := fs.String("out", ".bench_build/simbench", "directory for the traced run's span file")
	rec := fs.String("record", "", "write the expected digests of every kernel to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rec != "" {
		if err := record(*rec); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 2
	}
	digests, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	host := hostContext{Workload: w.Name, Seed: *seed, Context: hostprof.CaptureContext(w.Workers, w.IdleSkip)}
	if host.GOMAXPROCS < w.Workers {
		host.Flag = fmt.Sprintf("GOMAXPROCS %d is below %d workers: not a parallel measurement", host.GOMAXPROCS, w.Workers)
		fmt.Fprintln(os.Stderr, "simbench: warning:", host.Flag)
	}
	c := &ctx{w: w, digests: digests, clockNS: clockCost()}

	var res outcome
	if *traceOn == 1 {
		c.tr = newTracer()
		res = traced(c, *seed)
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", w.Name, *seed))
		if err := c.tr.write(path, host, res.Metrics); err != nil {
			fmt.Fprintln(os.Stderr, "simbench: spans:", err)
			return 1
		}
	} else {
		res = measure(c, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	ctxLine, err := json.Marshal(map[string]hostContext{"host": host})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	fmt.Println(string(ctxLine))
	fmt.Println(string(line))
	return 0
}

// setupReps is how many times measure builds the whole workload to time
// set-up; setup_s is the median. Set-up takes milliseconds, so many
// repetitions cost little and steady the median.
const setupReps = 25

// measure is the untraced run: set-up timed setupReps times, then the
// workload's runs round-robin until the time is up and every run has
// finished at least once.
func measure(c *ctx, seed int64, budget time.Duration) outcome {
	res := outcome{Metrics: map[string]metric{}}
	runs := c.w.order(seed)

	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		res.Attempted++
		d, err := c.setupOnce(runs)
		if err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "simbench: set-up:", err)
			continue
		}
		setups = append(setups, d.Seconds())
	}

	times := map[string][]float64{}
	ipc := map[string]float64{}
	start := time.Now()
	for i := 0; i < len(runs) || time.Since(start) < budget; i++ {
		s := runs[i%len(runs)]
		r := c.execute(s, c.w.attach(), 0, "measure")
		res.Attempted++
		if r.err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "simbench:", r.err)
			continue
		}
		times[s.key()] = append(times[s.key()], float64(r.simNS+r.buildTotalNS()))
		ipc[s.key()] = r.st.IPC()
	}

	// Per run, the median over its repetitions; sim_kips sums over runs.
	var insts, ns float64
	for _, s := range runs {
		if len(times[s.key()]) == 0 {
			continue
		}
		insts += float64(c.digests[s.key()].Instructions)
		ns += median(times[s.key()])
		fmt.Fprintf(os.Stderr, "simbench: %-14s ms %v\n", s.key(), msList(times[s.key()]))
	}
	if ns > 0 {
		res.Metrics["sim_kips"] = metric{insts / ns * 1e6, "kinst/s"}
	}
	if len(setups) > 0 {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	res.Metrics["caps_speedup"] = metric{c.capsSpeedup(ipc), "ratio"}
	res.Correct = res.Failed == 0 && len(res.Metrics) == 4
	for _, m := range res.Metrics {
		res.Correct = res.Correct && m.Value > 0
	}
	return res
}

// capsSpeedup is the geometric mean over the workload's kernels of CAPS
// IPC over baseline IPC. A workload that runs only CAPS divides by the
// baseline IPC its digest file records.
func (c *ctx) capsSpeedup(ipc map[string]float64) float64 {
	logSum, n := 0.0, 0
	for _, s := range c.w.Runs {
		if s.Pref != "caps" {
			continue
		}
		base := spec{s.Bench, "none"}
		b, ok := ipc[base.key()]
		if !ok {
			d := c.digests[base.key()]
			if d.Cycles > 0 {
				b = float64(d.Instructions) / float64(d.Cycles)
			}
		}
		if ipc[s.key()] <= 0 || b <= 0 {
			return 0
		}
		logSum += math.Log(ipc[s.key()] / b)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

func msList(ns []float64) []int64 {
	out := make([]int64, len(ns))
	for i, v := range ns {
		out[i] = int64(v / 1e6)
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
