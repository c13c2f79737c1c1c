package main

import (
	"math"
	"testing"
)

// TestEstimate runs a tenth of the shipped sample count: the reduced
// estimate lands near pi and is the same on a second run.
func TestEstimate(t *testing.T) {
	const samples = samplesPerRank / 10
	pi, err := estimate(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi-math.Pi) > 0.01 {
		t.Errorf("estimate %.6f too far from pi", pi)
	}
	again, err := estimate(samples)
	if err != nil {
		t.Fatal(err)
	}
	if again != pi {
		t.Errorf("nondeterministic estimate: %v vs %v", pi, again)
	}
}
