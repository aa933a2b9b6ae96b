package experiments

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The live-capacity row schemas: the open-loop load engine
// (internal/load) emits its ramp-sweep results in these shapes so the
// figures tooling can plot goodput vs offered load and locate the SLO
// knee with the same machinery that renders simulator tables.

// LiveCapacityHeader is the per-ramp-level summary schema. One row per
// level; offered_rps is monotone in a well-formed ramp, and the knee is
// the first level where slo_violation_frac crosses the operator's
// threshold.
var LiveCapacityHeader = []string{
	"level", "rate_scale", "time_scale",
	"offered_rps", "achieved_rps", "goodput_rps", "goodput_kbps",
	"issued", "completed", "shed", "failed",
	"slo_violation_frac",
	"delay_p50_ms", "delay_p90_ms", "delay_p99_ms",
	"prefix_hit_ratio", "bw_hit_ratio", "wall_seconds",
}

// LiveClassHeader is the per-(level, class) breakdown schema.
var LiveClassHeader = []string{
	"level", "class", "slo_ms",
	"offered_rps", "achieved_rps",
	"issued", "completed", "shed", "failed",
	"slo_violation_frac",
	"delay_p50_ms", "delay_p90_ms", "delay_p99_ms",
}

// LiveCapacityMeta builds the summary table identity for one ramp sweep.
func LiveCapacityMeta(note string) TableMeta {
	return TableMeta{Name: "live-capacity", Note: note, Header: LiveCapacityHeader}
}

// LiveClassMeta builds the per-class table identity for one ramp sweep.
func LiveClassMeta(note string) TableMeta {
	return TableMeta{Name: "live-capacity-classes", Note: note, Header: LiveClassHeader}
}

// FindKnee locates the SLO knee in a live-capacity table: the index of
// the first row whose slo_violation_frac strictly exceeds threshold.
// Returns -1 when no row crosses (the sweep never saturated the proxy)
// or when the table lacks the needed columns.
func FindKnee(t *Table, threshold float64) int {
	col := -1
	for i, h := range t.Header {
		if h == "slo_violation_frac" {
			col = i
		}
	}
	if col < 0 {
		return -1
	}
	for i, row := range t.Rows {
		if col >= len(row) {
			continue
		}
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			continue
		}
		if v > threshold {
			return i
		}
	}
	return -1
}

// ReadCSVFile is ReadCSVTable over the file at path.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSVTable(f)
}

// ReadCSVTable parses a table in the CSVSink rendering: a `# name`
// comment line, an optional `# note` line, then the header and one
// record per row as RFC 4180 CSV (encoding/csv). This is the inverse of
// streaming a table through NewCSVSink, used by tooling (cmd/figures
// -knee, -overlay) that consumes live-capacity output. A row of another
// width than the header is an error naming its line.
func ReadCSVTable(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	t := &Table{}
	preamble := 0
	for _, field := range []*string{&t.Name, &t.Note} {
		if next, _ := br.Peek(2); string(next) != "# " {
			break
		}
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("experiments: read csv table: %w", err)
		}
		*field = strings.TrimRight(line[2:], "\r\n")
		preamble++
	}
	// FieldsPerRecord 0: the header sets the width every row must have.
	records, err := csv.NewReader(br).ReadAll()
	if err != nil {
		var at *csv.ParseError
		if errors.As(err, &at) { // csv counts lines from where it started reading
			at.StartLine += preamble
			at.Line += preamble
		}
		return nil, fmt.Errorf("experiments: read csv table: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("experiments: read csv table: no header line")
	}
	t.Header, t.Rows = records[0], records[1:]
	return t, nil
}
