package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestQuickstart checks every line the example prints: rank r's token
// is r*r, and every rank sees the broadcast value and the rank sum.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for r := 1; r < 4; r++ {
		if want := fmt.Sprintf("rank 0 got token %d from rank %d\n", r*r, r); !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	for r := 0; r < 4; r++ {
		if want := fmt.Sprintf("rank %d/4: bcast=3.14159, sum(ranks)=6,", r); !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}
