package nativempi

import (
	"bytes"
	"strings"
	"testing"

	"mv2j/internal/vtime"
)

func iovecMustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestNewIOVecValidation(t *testing.T) {
	full := make([]byte, 64)
	iovecMustPanic(t, "no runs", func() { NewIOVec(full, nil) })
	iovecMustPanic(t, "zero length", func() { NewIOVec(full, []Run{{Off: 0, Len: 0}}) })
	iovecMustPanic(t, "negative length", func() { NewIOVec(full, []Run{{Off: 0, Len: -4}}) })
	iovecMustPanic(t, "overlap", func() { NewIOVec(full, []Run{{Off: 0, Len: 8}, {Off: 4, Len: 8}}) })
	iovecMustPanic(t, "reorder", func() { NewIOVec(full, []Run{{Off: 16, Len: 8}, {Off: 0, Len: 8}}) })
	iovecMustPanic(t, "out of range", func() { NewIOVec(full, []Run{{Off: 60, Len: 8}}) })
}

func TestNewIOVecCoalescing(t *testing.T) {
	full := make([]byte, 64)
	v := NewIOVec(full, []Run{{Off: 0, Len: 8}, {Off: 8, Len: 8}, {Off: 24, Len: 4}, {Off: 28, Len: 4}})
	if len(v.Runs) != 2 {
		t.Fatalf("coalesced into %d runs, want 2", len(v.Runs))
	}
	if v.Runs[0] != (Run{Off: 0, Len: 16}) || v.Runs[1] != (Run{Off: 24, Len: 8}) {
		t.Errorf("runs = %v", v.Runs)
	}
	if v.N != 24 {
		t.Errorf("N = %d, want 24", v.N)
	}
}

func TestIOVecGatherScatter(t *testing.T) {
	full := make([]byte, 32)
	for i := range full {
		full[i] = byte(i)
	}
	v := NewIOVec(full, []Run{{Off: 2, Len: 4}, {Off: 10, Len: 2}, {Off: 20, Len: 6}})
	img := make([]byte, v.N)
	if moved := v.gatherInto(img); moved != 12 {
		t.Fatalf("gathered %d bytes, want 12", moved)
	}
	want := []byte{2, 3, 4, 5, 10, 11, 20, 21, 22, 23, 24, 25}
	if !bytes.Equal(img, want) {
		t.Fatalf("gather = %v, want %v", img, want)
	}

	dstFull := make([]byte, 32)
	d := NewIOVec(dstFull, []Run{{Off: 1, Len: 6}, {Off: 12, Len: 6}})
	if moved := d.scatterFrom(img); moved != 12 {
		t.Fatalf("scattered %d bytes, want 12", moved)
	}
	if !bytes.Equal(dstFull[1:7], want[:6]) || !bytes.Equal(dstFull[12:18], want[6:]) {
		t.Errorf("scatter mismatch: %v", dstFull)
	}
	if dstFull[0] != 0 || dstFull[7] != 0 || dstFull[18] != 0 {
		t.Error("scatter wrote outside its runs")
	}
}

// TestVecCopyMismatchedRuns streams strided-to-strided layouts whose
// run boundaries do not line up: the two-pointer merge must move the
// same bytes a gather-then-scatter bounce would.
func TestVecCopyMismatchedRuns(t *testing.T) {
	srcFull := make([]byte, 48)
	for i := range srcFull {
		srcFull[i] = byte(i + 1)
	}
	src := NewIOVec(srcFull, []Run{{Off: 0, Len: 5}, {Off: 8, Len: 7}, {Off: 30, Len: 4}})
	mkDst := func() (*IOVec, []byte) {
		dstFull := make([]byte, 48)
		return NewIOVec(dstFull, []Run{{Off: 2, Len: 3}, {Off: 10, Len: 9}, {Off: 25, Len: 4}}), dstFull
	}

	direct, directFull := mkDst()
	if moved := vecCopy(direct, src); moved != 16 {
		t.Fatalf("vecCopy moved %d bytes, want 16", moved)
	}

	bounce, bounceFull := mkDst()
	img := make([]byte, src.N)
	src.gatherInto(img)
	bounce.scatterFrom(img)

	if !bytes.Equal(directFull, bounceFull) {
		t.Errorf("vecCopy differs from gather+scatter bounce:\n direct %v\n bounce %v", directFull, bounceFull)
	}
}

func TestVecCopyTruncates(t *testing.T) {
	src := NewIOVec(bytes.Repeat([]byte{7}, 16), []Run{{Off: 0, Len: 16}})
	dst := NewIOVec(make([]byte, 16), []Run{{Off: 0, Len: 4}, {Off: 8, Len: 4}})
	if moved := vecCopy(dst, src); moved != 8 {
		t.Errorf("vecCopy into smaller dst moved %d, want 8", moved)
	}
	if moved := vecCopy(NewIOVec(make([]byte, 32), []Run{{Off: 0, Len: 32}}), src); moved != 16 {
		t.Errorf("vecCopy from smaller src moved %d, want 16", moved)
	}
}

// TestProfileValidateDDTKnobs pins the Validate rejection for the
// derived-datatype profile knob.
func TestProfileValidateDDTKnobs(t *testing.T) {
	base := Profile{Name: "t"}
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline profile invalid: %v", err)
	}

	bad := base
	bad.DDTPackRun = -vtime.Nanosecond
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "DDTPackRun") {
		t.Errorf("negative DDTPackRun: err = %v", err)
	}

	good := base
	good.DDTPackRun = 20 * vtime.Nanosecond
	if err := good.Validate(); err != nil {
		t.Errorf("valid DDT knobs rejected: %v", err)
	}
}
