package stats

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned table for experiment reports. It renders
// both as padded text (for terminals) and CSV (for plotting).
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v. Short rows are padded
// with empty cells, long rows are truncated to the header width.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = fmt.Sprintf("%v", cells[i])
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the formatted cells (for tests and programmatic access).
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); w > widths[i] {
				widths[i] = w
			}
		}
	}
	if t.title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.title); err != nil {
			return err
		}
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := writeRow(t.headers); err != nil {
		return err
	}
	rule := make([]string, len(t.headers))
	for i, wd := range widths {
		rule[i] = strings.Repeat("-", wd)
	}
	if err := writeRow(rule); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as CSV (headers first, no title).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(escapeCSV(t.headers), ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, strings.Join(escapeCSV(row), ",")); err != nil {
			return err
		}
	}
	return nil
}

// String renders the text form.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.WriteText(&sb)
	return sb.String()
}

// pad right-pads to width in runes (cells may hold multi-byte characters
// such as ±).
func pad(s string, width int) string {
	n := utf8.RuneCountInString(s)
	if n >= width {
		return s
	}
	return s + strings.Repeat(" ", width-n)
}

func escapeCSV(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		out[i] = c
	}
	return out
}
