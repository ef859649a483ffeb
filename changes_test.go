package ufab

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// changesEntry matches the head of a PR's entry in CHANGES.md: "PR n ·",
// "- PR n:", or a qualified follow-up such as "PR n (test-floor fix):".
var changesEntry = regexp.MustCompile(`^(?:- )?(PR \d+(?: \([^)]*\))?)(?::| ·)`)

// TestChangesLedgerHasNoDuplicates holds CHANGES.md to one entry per PR and
// no line twice: an entry appended over a stale copy of the file once
// spliced a second entry for one PR and twelve repeated lines into it.
func TestChangesLedgerHasNoDuplicates(t *testing.T) {
	raw, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	seenPR := map[string]int{}
	seenLine := map[string]int{}
	for i, line := range strings.Split(string(raw), "\n") {
		n := i + 1
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if m := changesEntry.FindStringSubmatch(line); m != nil {
			if first, ok := seenPR[m[1]]; ok {
				t.Errorf("CHANGES.md:%d: a second %q entry (the first is line %d)", n, m[1], first)
			}
			seenPR[m[1]] = n
		}
		if first, ok := seenLine[line]; ok {
			t.Errorf("CHANGES.md:%d repeats line %d", n, first)
		}
		seenLine[line] = n
	}
	if len(seenPR) < 20 {
		t.Errorf("only %d PR entries recognised in CHANGES.md; has the entry format changed?", len(seenPR))
	}
}
