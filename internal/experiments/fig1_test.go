package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"caps/internal/config"
	"caps/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestFigure1Golden pins Figure 1's table byte for byte on a small MM run,
// serially and on the 2-worker executor: the fold sees the same load
// stream whatever the executor, so both must match the golden.
// Regenerate with `go test ./internal/experiments -run Figure1Golden -update`
// only after a change that is meant to move the figure.
func TestFigure1Golden(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 120_000
	golden := filepath.Join("testdata", "fig1.golden")
	for _, tc := range []struct {
		name string
		opts []sim.Option
	}{
		{"serial", nil},
		{"workers2", []sim.Option{sim.WithWorkers(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := Figure1(cfg, 10, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			got := tab.String()
			if *updateGolden && tc.opts == nil {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("Figure 1 table differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
