package lens

import (
	"os"
	"path/filepath"
	"testing"
)

// TestReadFileRoundTripAndNull round-trips a document through WriteFile
// and ReadFile, then requires a JSON null — what encoding a nil profile
// writes — to fail the load instead of reading as an empty profile.
func TestReadFileRoundTripAndNull(t *testing.T) {
	type doc struct {
		Name string `json:"name"`
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	if err := WriteFile(path, &doc{Name: "MM"}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile[doc](path, "lens")
	if err != nil || got.Name != "MM" {
		t.Fatalf("round trip = %+v, %v; want MM", got, err)
	}
	null := filepath.Join(dir, "null.json")
	if err := os.WriteFile(null, []byte("null\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err := ReadFile[doc](null, "lens"); err == nil {
		t.Fatalf("ReadFile accepted a JSON null as %+v", p)
	}
}
