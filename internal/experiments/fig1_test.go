package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"caps/internal/config"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestFigure1Golden pins Figure 1's table byte for byte on a small MM run.
// Regenerate with `go test ./internal/experiments -run Figure1Golden -update`
// only after a change that is meant to move the figure.
func TestFigure1Golden(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 120_000
	golden := filepath.Join("testdata", "fig1.golden")
	t.Run("serial", func(t *testing.T) {
		tab, err := Figure1(cfg, 10)
		if err != nil {
			t.Fatal(err)
		}
		got := tab.String()
		if *updateGolden {
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
