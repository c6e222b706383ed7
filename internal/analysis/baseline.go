package analysis

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The baseline file ratchets structural hotlint debt: findings
// recorded in it are tolerated, anything beyond it fails the build, and a
// shrinking finding set makes the recorded entries stale (reported so the
// baseline gets tightened). Entries are keyed by (analyzer, function,
// category) rather than file:line so ordinary edits that shift line
// numbers do not invalidate the baseline — only genuinely new findings do.
//
// File format, one entry per line, tab-separated:
//
//	<analyzer>\t<function full name>\t<category>\t<count>
//
// Lines starting with '#' are comments. Regenerate with
// `go run ./cmd/simcheck -mode=all -update-baseline ./...`.

// BaselineKey identifies one ratchet bucket.
type BaselineKey struct {
	Analyzer string
	Func     string
	Category string
}

// LoadBaseline reads a baseline file. A missing file is an empty baseline,
// not an error, so fresh checkouts and fixtures work without one.
func LoadBaseline(path string) (map[BaselineKey]int, error) {
	base := make(map[BaselineKey]int)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return base, nil
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 4 {
			return nil, fmt.Errorf("baseline %s:%d: want 4 tab-separated fields, got %d", path, lineNo, len(fields))
		}
		n, err := strconv.Atoi(fields[3])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("baseline %s:%d: bad count %q", path, lineNo, fields[3])
		}
		base[BaselineKey{fields[0], fields[1], fields[2]}] = n
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return base, nil
}

// ApplyBaseline splits diagnostics against the ratchet. Buckets whose
// current count fits inside the baseline are suppressed entirely; a bucket
// that exceeds its baseline keeps all its findings so the developer sees
// every candidate for the regression. The returned stale list names
// baseline entries whose debt has shrunk or vanished — the signal to
// tighten the file with -update-baseline.
func ApplyBaseline(diags []Diagnostic, base map[BaselineKey]int) (kept []Diagnostic, stale []string) {
	counts := make(map[BaselineKey]int)
	for _, d := range diags {
		counts[BaselineKey{d.Analyzer, d.Func, d.Category}]++
	}
	for _, d := range diags {
		k := BaselineKey{d.Analyzer, d.Func, d.Category}
		if counts[k] <= base[k] {
			continue
		}
		kept = append(kept, d)
	}
	for k, n := range base { //simcheck:allow detlint collected then sorted below
		if counts[k] < n {
			stale = append(stale, fmt.Sprintf("%s\t%s\t%s: baseline %d, now %d — tighten with -update-baseline",
				k.Analyzer, k.Func, k.Category, n, counts[k]))
		}
	}
	sort.Strings(stale)
	return kept, stale
}

// WriteBaseline records the current findings as the new ratchet.
func WriteBaseline(path string, diags []Diagnostic) error {
	counts := make(map[BaselineKey]int)
	for _, d := range diags {
		counts[BaselineKey{d.Analyzer, d.Func, d.Category}]++
	}
	keys := make([]BaselineKey, 0, len(counts))
	for k := range counts { //simcheck:allow detlint sorted immediately below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Category < b.Category
	})
	var sb strings.Builder
	sb.WriteString("# simcheck ratchet baseline: tolerated hotlint findings.\n")
	sb.WriteString("# Counts may go down, never up. Regenerate:\n")
	sb.WriteString("#   go run ./cmd/simcheck -mode=all -update-baseline ./...\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s\t%s\t%s\t%d\n", k.Analyzer, k.Func, k.Category, counts[k])
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
