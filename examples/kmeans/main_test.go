package main

import (
	"math"
	"testing"
)

// TestDistributedMatchesSerial checks the invariant the example
// prints: the allreduce-driven centroids equal the serial reference.
func TestDistributedMatchesSerial(t *testing.T) {
	got, err := distributed()
	if err != nil {
		t.Fatal(err)
	}
	want := serial()
	for c := range want {
		for d := range want[c] {
			if math.Abs(got[c][d]-want[c][d]) > 1e-6 {
				t.Errorf("centroid c%d[%d]: %v, want %v", c, d, got[c][d], want[c][d])
			}
		}
	}
}
