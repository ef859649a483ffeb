package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRegressionCorpus replays every committed reproducer under the full
// oracle (including the double-run determinism check). Each file is the
// minimal case of a once-real bug; a failure here means the bug is back.
func TestRegressionCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "regressions", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("regression corpus has %d cases, want at least the seeded 3", len(files))
	}
	x := &Executor{Replay: true}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			c, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := x.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict.Failed() {
				t.Fatalf("regressed: verdict %s (kinds %v, mismatch %q)\n%s%s",
					r.Verdict, r.Kinds, r.Mismatch, r.Panic, r.FindingsJSONL)
			}
		})
	}
}

// TestRegressionCorpusCanonical: committed corpus files must be in the
// canonical Encode form, so a reproducer promoted from `fuzz -shrink
// -out` diffs cleanly forever after.
func TestRegressionCorpusCanonical(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "regressions", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := parse(raw)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, enc) {
			t.Errorf("%s is not in canonical form; rewrite it with Case.WriteFile", path)
		}
	}
}
