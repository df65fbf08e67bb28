package store

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// updateGolden regenerates the committed v2 and JSON snapshot fixtures.
// Run after a DELIBERATE format change only — the whole point of the
// fixtures is that old files keep loading byte-identically through new
// code. The v1 fixtures (golden-v1.snap, empty-v1.snap) are frozen:
// nothing writes v1 any more, so no flag can regenerate them.
//
//	go test ./internal/store -run TestGoldenFixtures -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the committed snapshot fixtures")

// goldenModel is the fixed model the committed fixtures encode. Its seed
// and shape must never change (that would amount to rewriting history).
func goldenModel() *core.Model {
	m := testModel(14, 4, 5, 48, 424242)
	attachAttrs(m, 6, 434343)
	return m
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

// TestGoldenFixtures pins on-disk format compatibility: the committed v1,
// v2 and JSON encodings of a fixed model must keep decoding to
// bit-identical parameter blocks through every future change to the
// loading code. A failure here means a break of the storage contract, not
// a test to "fix" by re-pinning.
func TestGoldenFixtures(t *testing.T) {
	m := goldenModel()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := SaveV2(goldenPath("golden-v2.snap"), m); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(goldenPath("golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Save(f); err != nil {
			f.Close()
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Log("golden snapshot fixtures rewritten")
		return
	}
	for _, name := range []string{"golden-v1.snap", "golden-v2.snap", "golden.json"} {
		t.Run(name, func(t *testing.T) {
			got, err := LoadFile(goldenPath(name))
			if err != nil {
				t.Fatalf("committed %s fixture no longer loads: %v", name, err)
			}
			modelsEquivalent(t, m, got)
		})
	}
	t.Run("golden-v2.snap/mapped", func(t *testing.T) {
		mm, err := Open(goldenPath("golden-v2.snap"))
		if err != nil {
			t.Fatalf("committed v2 fixture no longer opens mapped: %v", err)
		}
		defer mm.Close()
		modelsEquivalent(t, m, mm.Model)
	})
}
