// Package experiments defines every table of the reconstructed evaluation
// (E1–E10 and the ablations A1–A4, indexed in DESIGN.md §3) as data in
// All, each run by Experiment.Run, plus the parameter sweeps and their
// journaled grids. `cmd/expreport` and the root-level benchmarks loop over
// All, so the numbers in EXPERIMENTS.md are reproducible with either tool.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "E2").
	ID string
	// Title describes the paper artefact the table reconstructs.
	Title string
	// Header and Rows hold the tabular data.
	Header []string
	Rows   [][]string
	// Notes carry qualitative observations (the "shape" checks).
	Notes []string
	// events counts each simulation's event-log records by kind, for
	// the simulations whose config asked for the log (nil otherwise).
	events []map[string]int
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a qualitative note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Markdown renders the table as GitHub-flavored markdown (for
// EXPERIMENTS.md generation).
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n> %s\n", n)
	}
	sb.WriteString("\n")
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
