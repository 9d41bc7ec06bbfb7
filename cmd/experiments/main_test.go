package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestDeterministicSectionsCommitted holds EXPERIMENTS.md to the code: Table
// 1 and Example 5.1 depend only on translation and modification, so the
// committed file must contain their current output verbatim. Regenerate it
// with `go run ./cmd/experiments` when either changes.
func TestDeterministicSectionsCommitted(t *testing.T) {
	committed, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(io.Writer){
		"Table 1":     runTable1,
		"Example 5.1": runExample51,
	} {
		var out bytes.Buffer
		run(&out)
		section := strings.TrimRight(out.String(), "\n")
		if !bytes.Contains(committed, []byte(section)) {
			t.Errorf("EXPERIMENTS.md does not contain the current %s output; regenerate it. Current output:\n%s", name, section)
		}
	}
}
