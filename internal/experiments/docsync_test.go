package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// wallClockColumns are the columns of the timed tables that read the
// host's clock; they change from run to run and are not compared.
var wallClockColumns = map[string]bool{"wall_ms": true, "events_per_s": true}

// markdownTables parses Markdown into the first table under each "### ID"
// heading: the heading line, then the header row and the data rows.
func markdownTables(md string) map[string][][]string {
	tables := map[string][][]string{}
	id, open := "", false
	for _, line := range strings.Split(md, "\n") {
		if rest, ok := strings.CutPrefix(line, "### "); ok {
			id, _, _ = strings.Cut(rest, " ")
			tables[id] = [][]string{{line}}
			open = true
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if len(tables[id]) > 1 {
				open = false
			}
			continue
		}
		if !open || strings.HasPrefix(line, "|---") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		tables[id] = append(tables[id], cells)
	}
	return tables
}

// docTables returns the tables of EXPERIMENTS.md's "Full tables" section.
func docTables(t *testing.T) map[string][][]string {
	t.Helper()
	b, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, full, ok := strings.Cut(string(b), "\n## Full tables")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "## Full tables" section`)
	}
	return markdownTables(full)
}

// keepColumns returns the heading and the named columns of a parsed table,
// in the order of names, and the first name the table lacks.
func keepColumns(table [][]string, names []string) ([][]string, string) {
	out := [][]string{table[0]}
	for _, row := range table[1:] {
		kept := make([]string, len(names))
		for i, name := range names {
			col := slices.Index(table[1], name)
			if col < 0 || col >= len(row) {
				return nil, name
			}
			kept[i] = row[col]
		}
		out = append(out, kept)
	}
	return out, ""
}

// compareDoc checks one generated table against the table of the same ID in
// EXPERIMENTS.md: heading, header and every row must match. A timed table
// is compared column by column, leaving out its wall-clock columns and
// any extra column the document adds.
func compareDoc(t *testing.T, doc map[string][][]string, tab *Table, timed bool) {
	t.Helper()
	got := markdownTables(tab.Markdown())[tab.ID]
	want, ok := doc[tab.ID]
	if !ok || len(want) < 2 {
		t.Fatalf("EXPERIMENTS.md has no table %s", tab.ID)
	}
	if timed {
		var names []string
		for _, h := range got[1] {
			if !wallClockColumns[h] {
				names = append(names, h)
			}
		}
		got, _ = keepColumns(got, names)
		var missing string
		if want, missing = keepColumns(want, names); missing != "" {
			t.Fatalf("EXPERIMENTS.md table %s has no column %q", tab.ID, missing)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d rows, EXPERIMENTS.md has %d", len(got)-2, len(want)-2)
	}
	for i := range min(len(got), len(want)) {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("line %d:\n got  %q\n want %q", i, got[i], want[i])
		}
	}
}

// TestExperimentsMatchDoc regenerates every table at the size
// EXPERIMENTS.md documents and checks it against the document's copy, so
// the full tables there cannot drift from the code.
func TestExperimentsMatchDoc(t *testing.T) {
	doc := docTables(t)
	ids := map[string]bool{}
	for _, x := range All {
		ids[x.ID] = true
		t.Run(x.ID, func(t *testing.T) {
			tab, _, err := x.Run(7, 150)
			if err != nil {
				t.Fatal(err)
			}
			compareDoc(t, doc, tab, x.timed)
		})
	}
	for id := range doc {
		if !ids[id] {
			t.Errorf("EXPERIMENTS.md has a table %s that no experiment produces", id)
		}
	}
}
