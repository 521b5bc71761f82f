package eval

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the figure golden tables in testdata/")

// checkGolden compares a figure's rendered table with the committed
// testdata/<name>.golden, byte for byte, so any change to the pipeline's
// numerics shows up as a diff of the paper's figures. Run
// `go test ./internal/eval -run 'TestFig' -update` to rewrite the goldens
// after an intentional numerics change, and commit them with the shape
// evidence that accuracy held. No figure table carries a timing cell, so
// every TestFig*Smoke checks its table here.
//
// The goldens are pinned on amd64: arm64 fuses multiply-adds, which can
// move last digits.
func checkGolden(t *testing.T, name string, rep *Report) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden table %s pinned on amd64: arm64 fuses multiply-adds, which can move last digits", name)
	}
	path := filepath.Join("testdata", name+".golden")
	got := rep.Table.Render()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s table differs from %s:\n--- got\n%s--- want\n%s", name, path, got, want)
	}
}
