package experiments

import "strings"

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}
