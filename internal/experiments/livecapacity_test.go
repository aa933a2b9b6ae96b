package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestFindKnee(t *testing.T) {
	table := &Table{
		Header: LiveCapacityHeader,
		Rows: [][]string{
			make([]string, len(LiveCapacityHeader)),
			make([]string, len(LiveCapacityHeader)),
			make([]string, len(LiveCapacityHeader)),
		},
	}
	col := -1
	for i, h := range LiveCapacityHeader {
		if h == "slo_violation_frac" {
			col = i
		}
	}
	if col < 0 {
		t.Fatal("LiveCapacityHeader lost slo_violation_frac")
	}
	for i, v := range []string{"0.0100", "0.0500", "0.7200"} {
		for j := range table.Rows[i] {
			table.Rows[i][j] = "0"
		}
		table.Rows[i][col] = v
	}
	if got := FindKnee(table, 0.1); got != 2 {
		t.Errorf("FindKnee(0.1) = %d, want 2", got)
	}
	if got := FindKnee(table, 0.03); got != 1 {
		t.Errorf("FindKnee(0.03) = %d, want 1", got)
	}
	if got := FindKnee(table, 0.9); got != -1 {
		t.Errorf("FindKnee(0.9) = %d, want -1 (never crosses)", got)
	}
	if got := FindKnee(&Table{Header: []string{"x"}}, 0.1); got != -1 {
		t.Errorf("FindKnee without the column = %d, want -1", got)
	}
}

// TestReadCSVTableRoundTrip: Table.Stream through a CSVSink and
// ReadCSVTable are inverses, also for cells holding what CSV itself
// uses — a comma, a quote, a line break — and a file whose rows are not
// all as wide as its header fails on read with the line named.
func TestReadCSVTableRoundTrip(t *testing.T) {
	want := &Table{Name: "live-capacity", Note: "a note", Header: []string{"a", "b"}, Rows: [][]string{
		{"1", "2.5"},
		{"3", "4.5"},
		{"got 5 bytes, want 9", `say "when"`},
		{"two\nlines", ""},
	}}
	var buf bytes.Buffer
	if err := want.Stream(NewCSVSink(&buf)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVTable(&buf)
	if err != nil {
		t.Fatalf("ReadCSVTable: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip\n got  %+v\n want %+v", got, want)
	}

	if _, err := ReadCSVTable(strings.NewReader("")); err == nil {
		t.Error("ReadCSVTable accepted an empty stream")
	}
	ragged := "# T\n# note\na,b\n1,2\n1,2,3\n"
	if _, err := ReadCSVTable(strings.NewReader(ragged)); err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Errorf("ReadCSVTable of a ragged file: %v, want an error naming line 5", err)
	}
}
