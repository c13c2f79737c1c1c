package main

import "testing"

// TestDistributedMatchesSerial checks the invariant the example
// prints: the map-reduce tallies equal a serial count of the corpus.
func TestDistributedMatchesSerial(t *testing.T) {
	got, err := distributed()
	if err != nil {
		t.Fatal(err)
	}
	want := serial()
	if len(got) != len(want) {
		t.Fatalf("vocabulary size %d, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("count for %q: %d, want %d", w, got[w], c)
		}
	}
}
