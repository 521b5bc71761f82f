package eval

import (
	"strings"
	"testing"
)

// tinyOpts keeps the statistical drivers affordable in unit tests; the
// repository benchmarks and cmd/experiments run them at full size.
func tinyOpts() Options {
	return Options{Trials: 2, DurationS: 40, Seed: 3, Parallelism: 2}
}

func TestFig03Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical driver")
	}
	rep, err := Fig03Environment(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) < 10 {
		t.Errorf("only %d windows", len(rep.Table.Rows))
	}
	// Every activity class must appear in the truth column.
	seen := map[string]bool{}
	for _, row := range rep.Table.Rows {
		seen[row[1]] = true
	}
	for _, want := range []string{"sitting", "absent", "walking"} {
		if !seen[want] {
			t.Errorf("activity %q missing from schedule", want)
		}
	}
	checkGolden(t, "fig03", rep)
}

func TestFig05Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical driver")
	}
	rep, err := Fig05SubcarrierPatterns(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 30 {
		t.Errorf("rows = %d, want 30", len(rep.Table.Rows))
	}
	checkGolden(t, "fig05", rep)
}

func TestFig06Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical driver")
	}
	rep, err := Fig06DWT(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// α4, β3+β4 and the four per-level rows.
	if len(rep.Table.Rows) != 6 {
		t.Errorf("rows = %d, want 6", len(rep.Table.Rows))
	}
	if !strings.Contains(rep.Table.Rows[0][1], "0.625") {
		t.Errorf("α4 band wrong: %v", rep.Table.Rows[0])
	}
	checkGolden(t, "fig06", rep)
}

func TestFig08Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical driver")
	}
	opts := tinyOpts()
	opts.DurationS = 60
	rep, err := Fig08MultiPersonFFT(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 6 {
		t.Errorf("rows = %d, want 6 (two cases × three rows)", len(rep.Table.Rows))
	}
	checkGolden(t, "fig08", rep)
}

func TestFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical driver")
	}
	rep, err := Fig11BreathingCDF(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Table.Rows))
	}
	if rep.Table.Rows[0][0] != "PhaseBeat" {
		t.Errorf("first row = %v", rep.Table.Rows[0])
	}
	checkGolden(t, "fig11", rep)
}

func TestFig12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical driver")
	}
	rep, err := Fig12HeartCDF(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(rep.Table.Rows))
	}
	checkGolden(t, "fig12", rep)
}

func TestFig13Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical driver")
	}
	opts := tinyOpts()
	opts.Trials = 1
	rep, err := Fig13SamplingSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 4 {
		t.Errorf("rows = %d, want 4 rates", len(rep.Table.Rows))
	}
	checkGolden(t, "fig13", rep)
}

func TestFig14Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical driver")
	}
	opts := tinyOpts()
	opts.Trials = 1
	opts.DurationS = 60
	rep, err := Fig14MultiPersonAccuracy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 3 {
		t.Errorf("rows = %d, want 3 person counts", len(rep.Table.Rows))
	}
	checkGolden(t, "fig14", rep)
}

func TestFig15And16Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical driver")
	}
	opts := tinyOpts()
	opts.Trials = 1
	rep15, err := Fig15CorridorDistance(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep15.Table.Rows) != 6 {
		t.Errorf("fig15 rows = %d, want 6", len(rep15.Table.Rows))
	}
	rep16, err := Fig16ThroughWallDistance(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep16.Table.Rows) != 6 {
		t.Errorf("fig16 rows = %d, want 6", len(rep16.Table.Rows))
	}
	checkGolden(t, "fig15", rep15)
	checkGolden(t, "fig16", rep16)
}
