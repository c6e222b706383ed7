package main

import (
	"fmt"
	"io"

	"caps/internal/lens"
	"caps/internal/lenses"
)

// show renders a lens profile (capsim -<flag>, capsweep -<flag>-dir): a
// terminal report by default, a self-contained HTML one with -html. The
// lens's own flags and checks run between loading and rendering.
func show(l *lenses.Lens, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet(l.Name, stderr)
	htmlOut := fs.String("html", "", "write a self-contained HTML report to this file")
	step := l.Show(fs)
	pos, err := parseArgs(fs, args)
	if err != nil {
		return flagExit(err)
	}
	if len(pos) != 1 {
		fmt.Fprintf(stderr, "capsprof %s: need exactly one %s-profile JSON path\n", l.Name, l.Noun)
		return 2
	}
	p, err := l.Load(pos[0])
	if err != nil {
		fmt.Fprintln(stderr, "capsprof:", err)
		return 2
	}
	writeHTML, code := step(p, pos[0], stdout, stderr)
	if code != 0 {
		return code
	}
	if *htmlOut == "" {
		if err := p.WriteText(stdout); err != nil {
			fmt.Fprintln(stderr, "capsprof:", err)
			return 1
		}
		return 0
	}
	if err := writeFile(*htmlOut, writeHTML); err != nil {
		fmt.Fprintln(stderr, "capsprof:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%s)\n", *htmlOut, l.Summary(p))
	return 0
}

// lensDiff gates regressions between two profiles of one lens: a metric
// past its threshold exits 1. Only the lens's gated dimensions count.
func lensDiff(l *lenses.Lens, args []string, stdout, stderr io.Writer) int {
	name := l.Name + "-diff"
	fs := newFlagSet(name, stderr)
	gate := l.Diff(fs)
	pos, err := parseArgs(fs, args)
	if err != nil {
		return flagExit(err)
	}
	if len(pos) != 2 {
		fmt.Fprintf(stderr, "capsprof %s: need <base> and <current> %s-profile JSON paths\n", name, l.Noun)
		return 2
	}
	var profs [2]lenses.Profile
	for i, path := range pos {
		if profs[i], err = l.Load(path); err != nil {
			fmt.Fprintln(stderr, "capsprof:", err)
			return 2
		}
	}
	return printRegressions(name, gate(profs[0], profs[1], stdout), stdout)
}

// printRegressions lists a gate's findings under the subcommand's name and
// returns its exit status: 1 for any regression, 0 for none.
func printRegressions(name string, regs []lens.Regression, stdout io.Writer) int {
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "capsprof %s: no regressions\n", name)
		return 0
	}
	fmt.Fprintf(stdout, "capsprof %s: %d regression(s):\n", name, len(regs))
	for _, r := range regs {
		fmt.Fprintln(stdout, "  "+r.String())
	}
	return 1
}
