package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Ledger is the one BENCH JSON schema: the run environment, the suites
// that were run (so that a suite which produced nothing is visible to
// the gate) and their rows.
type Ledger struct {
	Meta   Meta     `json:"meta"`
	Suites []string `json:"suites"`
	Rows   []Row    `json:"rows"`
}

// Add records one suite run, replacing any rows the ledger already
// holds for that suite.
func (l *Ledger) Add(suite string, rows []Row) {
	l.Rows = slices.DeleteFunc(l.Rows, func(r Row) bool { return r.Suite == suite })
	l.Rows = append(l.Rows, rows...)
	if !slices.Contains(l.Suites, suite) {
		l.Suites = append(l.Suites, suite)
	}
}

// ReadLedger loads a ledger file.
func ReadLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l := new(Ledger)
	if err := json.Unmarshal(data, l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// OpenLedger returns the ledger at path to add this run's suites to, or
// an empty one when the file does not exist yet: runs at different
// configurations accumulate into one file. Meta describes the latest run.
func OpenLedger(path string) (*Ledger, error) {
	l, err := ReadLedger(path)
	if errors.Is(err, fs.ErrNotExist) {
		l, err = new(Ledger), nil
	}
	if err != nil {
		return nil, err
	}
	l.Meta = CollectMeta()
	return l, nil
}

// WriteFile stores the ledger as JSON with one row per line, so that a
// committed ledger diffs and greps row by row.
func (l *Ledger) WriteFile(path string) error {
	meta, err := json.Marshal(l.Meta)
	if err != nil {
		return err
	}
	suites, err := json.Marshal(l.Suites)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n\"meta\": %s,\n\"suites\": %s,\n\"rows\": [", meta, suites)
	for i, r := range l.Rows {
		row, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("%+v: %w", r, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n%s", row)
	}
	b.WriteString("\n]\n}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// column is one parsed Suite.Columns entry, "metric[@backend][#workers]".
type column struct {
	head, metric, backend string
	workers               int
}

func parseColumn(spec string) column {
	c := column{head: spec}
	spec, w, _ := strings.Cut(spec, "#")
	c.workers, _ = strconv.Atoi(w)
	c.metric, c.backend, _ = strings.Cut(spec, "@")
	return c
}

// matches reports whether r belongs in the column: same metric and
// worker count, and the column's backend when it names one.
func (c column) matches(r Row) bool {
	return r.Metric == c.metric && r.Workers == c.workers && (c.backend == "" || r.Backend == c.backend)
}

// Render pivots a suite's rows into its aligned text table: one line
// per (circuit, L, variant, batch) in first-seen order, one column per
// Suite.Columns entry. Rows no column names (the kernel census, say)
// appear in the ledger only.
func Render(s *Suite, rows []Row) string {
	cols := make([]column, len(s.Columns))
	for i, spec := range s.Columns {
		cols[i] = parseColumn(spec)
	}
	lead := []string{"circuit", "L", "variant", "batch"}
	var lines [][]string // lead cells, then one cell per column
	index := map[string]int{}
	for _, r := range rows {
		cells := []string{r.Circuit, strconv.Itoa(r.L), r.Variant, strconv.Itoa(r.Batch)}
		id := strings.Join(cells, "\x00")
		li, ok := index[id]
		if !ok {
			li = len(lines)
			index[id] = li
			lines = append(lines, append(cells, make([]string, len(cols))...))
		}
		for ci, c := range cols {
			if c.matches(r) {
				lines[li][len(lead)+ci] = formatValue(r)
				break
			}
		}
	}
	head := lead
	for _, c := range cols {
		head = append(head, c.head)
	}
	table := append([][]string{head}, lines...)

	// Drop lead columns the suite never fills ("" or "0" on every line),
	// pad every other column to its widest cell.
	width, used := make([]int, len(head)), make([]bool, len(head))
	for ci := range head {
		width[ci], used[ci] = len(head[ci]), ci >= len(lead)
		for _, l := range lines {
			width[ci] = max(width[ci], len(l[ci]))
			used[ci] = used[ci] || (l[ci] != "" && l[ci] != "0")
		}
	}
	var b strings.Builder
	for _, line := range table {
		var cells []string
		for ci, cell := range line {
			if !used[ci] {
				continue
			}
			if cell == "" {
				cell = "-"
			}
			format := "%*s"
			if ci == 0 || ci == 2 { // names align left, numbers right
				format = "%-*s"
			}
			cells = append(cells, fmt.Sprintf(format, width[ci], cell))
		}
		b.WriteString(strings.TrimRight(strings.Join(cells, " "), " ") + "\n")
	}
	return b.String()
}

// formatValue prints counts and flags exactly and measurements to four
// significant digits.
func formatValue(r Row) string {
	switch {
	case r.Unit == "bool" && r.Value != 0:
		return "yes"
	case r.Unit == "bool":
		return "NO"
	case r.Value == math.Trunc(r.Value) && math.Abs(r.Value) < 1e9:
		return strconv.FormatInt(int64(r.Value), 10)
	}
	return strconv.FormatFloat(r.Value, 'g', 4, 64)
}
