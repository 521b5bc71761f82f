package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStripTypeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"phasebeat/internal/dsp.Hampel":                                    "phasebeat/internal/dsp.Hampel",
		"phasebeat/internal/dsp.grow[go.shape.float64]":                    "phasebeat/internal/dsp.grow",
		"p.(*Ring[go.shape.float64]).Push":                                 "p.(*Ring).Push",
		"p.View[go.shape.struct { A []float64; B map[string]int }].CopyTo": "p.View.CopyTo",
		"*Ring[T]": "*Ring",
	} {
		if got := stripTypeArgs(in); got != want {
			t.Errorf("stripTypeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestReadAllowlist(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	if err := os.WriteFile(good, []byte("# header\n\np.A kept by TestA # note\n  p.(*T).M  TestM's reference\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) != 2 || allow["p.A"] != "kept by TestA" || allow["p.(*T).M"] != "TestM's reference" {
		t.Fatalf("allowlist = %q", allow)
	}

	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("p.A reason\np.B # no reason\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAllowlist(bad); err == nil || !strings.Contains(err.Error(), "bad.txt:2: p.B has no reason") {
		t.Fatalf("err = %v, want a missing-reason error on line 2", err)
	}
}
