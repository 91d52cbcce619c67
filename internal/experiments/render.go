package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// Table is the structured form every experiment renders to: a title, a
// header row, data rows, and optional trailing notes. It renders as an
// aligned text table (String) or as CSV for plotting (CSV).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the aligned text table with the title and notes.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Header, "\t"))
	underline := make([]string, len(t.Header))
	for i, h := range t.Header {
		underline[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(w, strings.Join(underline, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintln(&sb, n)
	}
	return sb.String()
}

// CSV renders the header and rows as RFC-4180-ish CSV (title and notes as
// '#' comment lines), ready for any plotting tool.
func (t Table) CSV() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", t.Title)
	writeCSVRow(&sb, t.Header)
	for _, r := range t.Rows {
		writeCSVRow(&sb, r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "# %s\n", n)
	}
	return sb.String()
}

func writeCSVRow(sb *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			sb.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		sb.WriteString(c)
	}
	sb.WriteByte('\n')
}

// Tabler is implemented by every experiment result: the structured table
// that renders as text (Table.String) or CSV (Table.CSV).
type Tabler interface {
	Table() Table
}

func pct(v float64) string  { return fmt.Sprintf("%.1f%%", v) }
func f1(v float64) string   { return fmt.Sprintf("%.1f", v) }
func i64(v int64) string    { return fmt.Sprintf("%d", v) }
func usec(v float64) string { return fmt.Sprintf("%.0fµs", v) }
