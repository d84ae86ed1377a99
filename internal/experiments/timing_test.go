package experiments

import (
	"context"
	"testing"

	"repro/internal/bench"
)

func TestTimingTableProfilesPipeline(t *testing.T) {
	var subset []bench.Benchmark
	for _, name := range []string{"rotary_pcr", "planar_synthetic_1"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		subset = append(subset, b)
	}
	tb := TimingTable(context.Background(), subset, 2, Seed)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	// Rows keep benchmark order regardless of completion order.
	if tb.Rows[0][0] != "rotary_pcr" || tb.Rows[1][0] != "planar_synthetic_1" {
		t.Errorf("row order: %v, %v", tb.Rows[0][0], tb.Rows[1][0])
	}
	// Every stage column parses as a number and the route stage did work.
	for _, row := range tb.Rows {
		if row[4] == "0.00" && row[3] == "0.00" {
			t.Errorf("%s: place and route both report zero time", row[0])
		}
	}
}
