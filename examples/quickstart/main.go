// Quickstart: simulate one benchmark with and without CAPS and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/sim"
)

func main() {
	// Start from the paper's Table III machine (Fermi GTX480-class) and
	// shorten the run so the example finishes in seconds.
	cfg := config.Default()
	cfg.MaxInsts = 150_000

	kernel, err := kernels.ByAbbr("CNV") // convolutionSeparable: the paper's best case
	if err != nil {
		log.Fatal(err)
	}

	// Baseline: two-level warp scheduler, no prefetching.
	base, err := run(cfg, kernel, sim.WithPrefetcher("none"))
	if err != nil {
		log.Fatal(err)
	}

	// CAPS: the CTA-aware prefetcher paired with the prefetch-aware
	// scheduler, exactly as the paper evaluates it.
	caps, err := run(cfg, kernel,
		sim.WithPrefetcher("caps"),
		sim.WithScheduler(config.SchedPAS))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark            : %s (%s)\n", kernel.Name, kernel.Abbr)
	fmt.Printf("baseline IPC         : %.3f\n", base.IPC())
	fmt.Printf("CAPS IPC             : %.3f\n", caps.IPC())
	fmt.Printf("speedup              : %.3fx\n", caps.IPC()/base.IPC())
	fmt.Printf("prefetch coverage    : %.1f%%\n", 100*caps.Coverage())
	fmt.Printf("prefetch accuracy    : %.1f%%\n", 100*caps.Accuracy())
	fmt.Printf("prefetch distance    : %.0f cycles\n", caps.MeanPrefetchDistance())
}

func run(cfg config.GPUConfig, k *kernels.Kernel, opts ...sim.Option) (statsLike, error) {
	g, err := sim.New(cfg, k, opts...)
	if err != nil {
		return nil, err
	}
	return g.Run()
}

// statsLike is the slice of the stats API this example consumes.
type statsLike interface {
	IPC() float64
	Coverage() float64
	Accuracy() float64
	MeanPrefetchDistance() float64
}
