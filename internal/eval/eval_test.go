package eval

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Header: []string{"name", "value"},
		Rows:   [][]string{{"alpha", "1"}, {"b", "22"}},
	}
	out := tbl.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	// Columns aligned: header and row share the separator column position.
	if !strings.Contains(lines[1], "name") || !strings.HasPrefix(lines[2], "-") ||
		!strings.HasPrefix(lines[3], "alpha") {
		t.Errorf("unexpected layout:\n%s", out)
	}
}

func TestReportString(t *testing.T) {
	rep := Report{
		Name:  "x",
		Paper: "expected",
		Table: Table{Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}},
		Notes: []string{"note1"},
	}
	s := rep.String()
	for _, want := range []string{"paper: expected", "note: note1", "t"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4, 5})
	if c.Median() != 3 {
		t.Errorf("median = %v", c.Median())
	}
	if c.Max() != 5 {
		t.Errorf("max = %v", c.Max())
	}
	if c.Mean() != 3 {
		t.Errorf("mean = %v", c.Mean())
	}
	if got := c.FractionBelow(2); got != 0.4 {
		t.Errorf("FractionBelow(2) = %v, want 0.4", got)
	}
	if got := c.FractionBelow(10); got != 1 {
		t.Errorf("FractionBelow(10) = %v, want 1", got)
	}
	if got := c.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := c.Percentile(100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if !math.IsNaN(c.Median()) || !math.IsNaN(c.Max()) || !math.IsNaN(c.Mean()) || !math.IsNaN(c.FractionBelow(1)) {
		t.Error("empty CDF should be NaN everywhere")
	}
}

// Property: Percentile is monotone in p.
func TestCDFPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = math.Abs(math.Mod(v, 1000))
		}
		c := NewCDF(vals)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := c.Percentile(p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy(15, 15); got != 1 {
		t.Errorf("exact accuracy = %v", got)
	}
	if got := Accuracy(12, 15); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("accuracy = %v, want 0.8", got)
	}
	if got := Accuracy(100, 15); got != 0 {
		t.Errorf("clamped accuracy = %v, want 0", got)
	}
	if got := Accuracy(10, 0); got != 0 {
		t.Errorf("zero-truth accuracy = %v, want 0", got)
	}
}

func TestMatchedAccuracy(t *testing.T) {
	// Order must not matter.
	a := MatchedAccuracy([]float64{18, 12}, []float64{12, 18})
	if math.Abs(a-1) > 1e-12 {
		t.Errorf("matched accuracy = %v, want 1", a)
	}
	// Fewer estimates than truths → missing ones score 0.
	b := MatchedAccuracy([]float64{12}, []float64{12, 18})
	if math.Abs(b-0.5) > 1e-12 {
		t.Errorf("partial accuracy = %v, want 0.5", b)
	}
	if MatchedAccuracy(nil, nil) != 0 {
		t.Error("empty truth should score 0")
	}
}

func TestRunTrials(t *testing.T) {
	results, failed := runTrials(10, 4, func(trial int) (*int, error) {
		if trial%3 == 0 {
			return nil, ErrNoTrials
		}
		v := trial * trial
		return &v, nil
	})
	if failed != 4 { // trials 0, 3, 6, 9
		t.Errorf("failed = %d, want 4", failed)
	}
	for i, r := range results {
		if i%3 == 0 {
			if r != nil {
				t.Errorf("trial %d should be nil", i)
			}
			continue
		}
		if r == nil || *r != i*i {
			t.Errorf("trial %d = %v", i, r)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	exps := Experiments()
	if len(exps) != 14 {
		t.Fatalf("registry has %d experiments, want 14", len(exps))
	}
	for _, e := range exps {
		got, err := Lookup(e.Name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", e.Name, err)
		}
		if got.Name != e.Name || got.Run == nil {
			t.Errorf("Lookup(%q) returned %+v", e.Name, got)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("want error for unknown experiment")
	}
}

// Smoke tests for the light experiments (the statistical ones are covered
// by the repository benchmarks).
func TestFig01Smoke(t *testing.T) {
	rep, err := Fig01PhaseStability(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rawR := mustCell(t, rep, 0, 1)
	diffR := mustCell(t, rep, 1, 1)
	if rawR > 0.5 {
		t.Errorf("raw phase too stable: R = %v", rawR)
	}
	if diffR < 0.9 {
		t.Errorf("phase difference too scattered: R = %v", diffR)
	}
	checkGolden(t, "fig01", rep)
}

func TestFig04Smoke(t *testing.T) {
	rep, err := Fig04Calibration(Options{Seed: 1, DurationS: 25})
	if err != nil {
		t.Fatal(err)
	}
	// Calibration reduces sample count 20x and removes HF noise.
	before := mustCell(t, rep, 0, 1)
	after := mustCell(t, rep, 1, 1)
	if after*20 != before {
		t.Errorf("downsampling: %v -> %v, want 20x", before, after)
	}
	hfAfter := mustCell(t, rep, 1, 3)
	hfBefore := mustCell(t, rep, 0, 3)
	if hfAfter > hfBefore/3 {
		t.Errorf("HF noise not reduced: %v -> %v", hfBefore, hfAfter)
	}
	checkGolden(t, "fig04", rep)
}

func TestFig07Smoke(t *testing.T) {
	rep, err := Fig07SubcarrierSelection(Options{Seed: 2, DurationS: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 30 {
		t.Errorf("rows = %d, want 30", len(rep.Table.Rows))
	}
	selected := 0
	for _, row := range rep.Table.Rows {
		if row[2] == "SELECTED" {
			selected++
		}
	}
	if selected != 1 {
		t.Errorf("selected count = %d, want 1", selected)
	}
	checkGolden(t, "fig07", rep)
}

func TestFig09Smoke(t *testing.T) {
	rep, err := Fig09HeartFFT(Options{Seed: 1, DurationS: 60})
	if err != nil {
		t.Fatal(err)
	}
	if errBPM := mustCell(t, rep, 3, 1); errBPM > 5 {
		t.Errorf("heart error %v bpm too large for showcase", errBPM)
	}
	checkGolden(t, "fig09", rep)
}

func mustCell(t *testing.T, rep *Report, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(rep.Table.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, rep.Table.Rows[row][col])
	}
	return v
}
