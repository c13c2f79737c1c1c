package main

import (
	"testing"

	"mv2j/internal/core"
)

// TestBuffersBeatArrays checks the table the example prints: direct
// ByteBuffers are faster than Java arrays at every size (arrays pay
// the JNI copy), and a 1 MiB message costs more than a 1 B one.
func TestBuffersBeatArrays(t *testing.T) {
	buffers, err := run(core.MVAPICH2J, useBuffers)
	if err != nil {
		t.Fatal(err)
	}
	arrays, err := run(core.MVAPICH2J, useArrays)
	if err != nil {
		t.Fatal(err)
	}
	for size := 1; size <= maxSize; size *= 4 {
		if b, a := buffers[size], arrays[size]; b <= 0 || a <= b {
			t.Errorf("%d B: arrays %.2f us, buffers %.2f us; want 0 < buffers < arrays", size, a, b)
		}
	}
	if buffers[maxSize] <= buffers[1] || arrays[maxSize] <= arrays[1] {
		t.Errorf("1 MiB no slower than 1 B: buffers %v, arrays %v", buffers, arrays)
	}
}
