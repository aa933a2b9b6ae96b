package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestOverlayTables pins the join: shared columns in live-header order,
// source-tagged rows live-first, unique columns dropped, missing cells
// blank.
func TestOverlayTables(t *testing.T) {
	live := &Table{
		Name:   "live-capacity",
		Header: []string{"offered_rps", "bw_hit_ratio", "delay_p50_ms", "wall_seconds"},
		Rows: [][]string{
			{"10", "0.61", "120", "30.1"},
			{"20", "0.58"}, // ragged row: missing cells overlay as blanks
		},
	}
	sim := &Table{
		Name:   "hierarchy sweep",
		Header: []string{"cache_pct", "bw_hit_ratio", "offered_rps"},
		Rows: [][]string{
			{"10", "0.64", "10"},
		},
	}
	got, err := OverlayTables(live, sim)
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := []string{"source", "offered_rps", "bw_hit_ratio"}
	if strings.Join(got.Header, ",") != strings.Join(wantHeader, ",") {
		t.Fatalf("header = %v, want %v (shared columns in live order)", got.Header, wantHeader)
	}
	wantRows := [][]string{
		{"live", "10", "0.61"},
		{"live", "20", "0.58"},
		{"sim", "10", "0.64"},
	}
	if len(got.Rows) != len(wantRows) {
		t.Fatalf("rows = %v, want %v", got.Rows, wantRows)
	}
	for i := range wantRows {
		if strings.Join(got.Rows[i], ",") != strings.Join(wantRows[i], ",") {
			t.Errorf("row %d = %v, want %v", i, got.Rows[i], wantRows[i])
		}
	}

	// The overlay streams as a regular table.
	var buf bytes.Buffer
	if err := got.Stream(NewCSVSink(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "live,10,0.61") {
		t.Errorf("overlay CSV missing live row:\n%s", buf.String())
	}

	if _, err := OverlayTables(live, &Table{Header: []string{"unrelated"}}); err == nil {
		t.Error("overlay of disjoint headers returned no error")
	}
}

// TestOverlayLiveCapacityAgainstLoadgenLive: the two real schemas the
// overlay exists for do share columns, so the join is never vacuous.
func TestOverlayLiveCapacityAgainstLoadgenLive(t *testing.T) {
	live := &Table{Name: "live", Header: LiveCapacityHeader}
	sim := &Table{Name: "sim", Header: LiveClassHeader}
	got, err := OverlayTables(live, sim)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Header) < 5 {
		t.Errorf("capacity/class overlay shares only %v", got.Header)
	}
}
