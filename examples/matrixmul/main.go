// matrixmul reproduces the paper's motivating analysis (Fig. 1) on the
// matrixMul benchmark: naive inter-warp stride prediction is accurate only
// within a CTA (8 warps for MM), and prefetching far enough ahead to hide
// memory latency means crossing CTA boundaries, where it breaks. It then
// shows how CAPS closes exactly that gap.
//
//	go run ./examples/matrixmul
package main

import (
	"fmt"
	"log"

	"caps/internal/config"
	"caps/internal/experiments"
	"caps/internal/kernels"
	"caps/internal/sim"
)

func main() {
	cfg := config.Default()
	cfg.MaxInsts = 150_000

	fmt.Println("Inter-warp stride prediction on matrixMul (Fig. 1):")
	fig1, err := experiments.Figure1(cfg, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig1.String())
	fmt.Println()

	// Now the same benchmark under the CTA-aware prefetcher: the per-CTA
	// base addresses come from leading warps, so accuracy holds across
	// the whole SM.
	mm, err := kernels.ByAbbr("MM")
	if err != nil {
		log.Fatal(err)
	}
	g, err := sim.New(cfg, mm, sim.WithPrefetcher("caps"), sim.WithScheduler(config.SchedPAS))
	if err != nil {
		log.Fatal(err)
	}
	st, err := g.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("CAPS on the same benchmark:")
	fmt.Printf("  prefetch accuracy : %.1f%% (address verification: %d ok / %d bad)\n",
		100*st.Accuracy(), st.PrefVerifyOK, st.PrefVerifyBad)
	fmt.Printf("  prefetch coverage : %.1f%%\n", 100*st.Coverage())
	fmt.Printf("  prefetch distance : %.0f cycles\n", st.MeanPrefetchDistance())
}
