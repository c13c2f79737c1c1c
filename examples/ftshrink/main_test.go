package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestShrinkAndContinue checks the recovery the example prints: rank
// 2's crash shrinks the job to three survivors, which finish the last
// iteration with sum (0+1)+(1+1)+(3+1) = 7.
func TestShrinkAndContinue(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"iter 7: sum of (rank+1) over 3 ranks = 7 ",
		"done on 3 survivors",
		"failed ranks [2]",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}
