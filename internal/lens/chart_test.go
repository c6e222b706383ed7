package lens

import (
	"encoding/xml"
	"math"
	"strings"
	"testing"
)

func TestWriteBarChartSVG(t *testing.T) {
	labels := []string{"MM", "BFS", "SCN"}
	series := []ChartSeries{
		{Name: "stored", Color: "#1976d2", Values: []float64{1.2, 0.98, math.NaN()}},
		{Name: "baseline", Color: "#90caf9", Values: []float64{1.1, 1.0, 1.05}},
	}
	refs := []RefLine{{Name: "paper mean", Color: "#e53935", Value: 1.08}}
	var b strings.Builder
	if err := WriteBarChartSVG(&b, "speedup & \"quotes\"", labels, series, refs); err != nil {
		t.Fatal(err)
	}
	svg := b.String()

	// Well-formed XML (titles and labels are escaped).
	if err := xml.Unmarshal([]byte(svg), new(any)); err != nil {
		t.Fatalf("SVG is not well-formed XML: %v\n%s", err, svg)
	}
	for _, want := range []string{"MM", "BFS", "SCN", "stored", "baseline", "paper mean", "stroke-dasharray"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// 5 bars drawn (one NaN skipped) + 2 legend swatches.
	if got := strings.Count(svg, "<rect"); got != 7 {
		t.Errorf("SVG has %d rects, want 7 (5 bars + 2 legend)", got)
	}
}

func TestWriteBarChartSVGRejectsMisalignedSeries(t *testing.T) {
	err := WriteBarChartSVG(&strings.Builder{}, "x", []string{"a", "b"},
		[]ChartSeries{{Name: "s", Values: []float64{1}}}, nil)
	if err == nil {
		t.Fatal("misaligned series accepted")
	}
}

func TestWriteBarChartSVGEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteBarChartSVG(&b, "empty", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := xml.Unmarshal([]byte(b.String()), new(any)); err != nil {
		t.Fatalf("empty chart is not well-formed XML: %v", err)
	}
}
