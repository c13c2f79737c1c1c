package nativempi

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"mv2j/internal/jvm"
)

func TestReduceIntoLengthMismatch(t *testing.T) {
	if err := reduceInto(make([]byte, 8), make([]byte, 4), jvm.Int, OpSum); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := reduceInto(make([]byte, 7), make([]byte, 7), jvm.Int, OpSum); err == nil {
		t.Fatal("non-multiple length accepted")
	}
}

func TestReduceIntoAllOpsAllKinds(t *testing.T) {
	intKinds := []jvm.Kind{jvm.Byte, jvm.Short, jvm.Int, jvm.Long, jvm.Char}
	intOps := []Op{OpSum, OpProd, OpMax, OpMin, OpLAnd, OpLOr, OpBAnd, OpBOr, OpBXor}
	for _, k := range intKinds {
		for _, op := range intOps {
			dst := make([]byte, 4*k.Size())
			src := make([]byte, 4*k.Size())
			for i := 0; i < 4; i++ {
				putIntNative(dst, i*k.Size(), k, int64(i+1))
				putIntNative(src, i*k.Size(), k, int64(i+3))
			}
			if err := reduceInto(dst, src, k, op); err != nil {
				t.Fatalf("%v/%v: %v", k, op, err)
			}
		}
	}
	floatOps := []Op{OpSum, OpProd, OpMax, OpMin, OpLAnd, OpLOr}
	for _, k := range []jvm.Kind{jvm.Float, jvm.Double} {
		for _, op := range floatOps {
			dst := make([]byte, 4*k.Size())
			src := make([]byte, 4*k.Size())
			if err := reduceInto(dst, src, k, op); err != nil {
				t.Fatalf("%v/%v: %v", k, op, err)
			}
		}
	}
	// Bitwise ops on floats are undefined.
	if err := reduceInto(make([]byte, 8), make([]byte, 8), jvm.Double, OpBAnd); err == nil {
		t.Fatal("bitwise op on double accepted")
	}
}

// Property: the fast kernels must agree with the generic element-wise
// path for every (kind, op) pair they cover. The pairs are found by
// asking fastReduce about every kind and op, so a new fast path is
// checked without editing this test.
func TestFastReduceMatchesGenericProperty(t *testing.T) {
	var covered []struct {
		kind jvm.Kind
		op   Op
	}
	for kind := jvm.Byte; kind <= jvm.Double; kind++ {
		for op := OpSum; op <= OpBXor; op++ {
			probe := make([]byte, kind.Size())
			if fastReduce(probe, probe, kind, op) {
				covered = append(covered, struct {
					kind jvm.Kind
					op   Op
				}{kind, op})
			}
		}
	}
	if len(covered) < 4 {
		t.Fatalf("fastReduce covers %d (kind, op) pairs, want at least 4", len(covered))
	}
	for _, c := range covered {
		f := func(raw []byte) bool {
			sz := c.kind.Size()
			n := (len(raw) / (2 * sz)) * sz
			if n == 0 {
				return true
			}
			dstFast := append([]byte(nil), raw[:n]...)
			srcFast := append([]byte(nil), raw[n:2*n]...)
			dstGen := append([]byte(nil), raw[:n]...)
			srcGen := append([]byte(nil), raw[n:2*n]...)

			if !fastReduce(dstFast, srcFast, c.kind, c.op) {
				return false
			}
			var err error
			if c.kind.IsFloating() {
				err = reduceFloat(dstGen, srcGen, c.kind, c.op, n/sz)
			} else {
				err = reduceInt(dstGen, srcGen, c.kind, c.op, n/sz)
			}
			// Both paths run the same float64 arithmetic, so even NaN
			// payload bits must match.
			return err == nil && bytes.Equal(dstFast, dstGen)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v/%v: %v", c.kind, c.op, err)
		}
	}
}

// Property: the fixed-width element accessors read and write exactly
// what a byte-at-a-time little-endian codec does, for every kind.
func TestNativeAccessorsMatchByteCodec(t *testing.T) {
	bitsAt := func(b []byte, sz int) (bits uint64) {
		for i := sz - 1; i >= 0; i-- {
			bits = bits<<8 | uint64(b[i])
		}
		return bits
	}
	for kind := jvm.Byte; kind <= jvm.Double; kind++ {
		sz := kind.Size()
		f := func(raw [8]byte) bool {
			b := raw[:sz]
			bits := bitsAt(b, sz)
			out := make([]byte, sz)
			if kind.IsFloating() {
				v := getFloatNative(b, 0, kind)
				var want float64
				if kind == jvm.Float {
					want = float64(math.Float32frombits(uint32(bits)))
				} else {
					want = math.Float64frombits(bits)
				}
				if math.Float64bits(v) != math.Float64bits(want) && !(math.IsNaN(v) && math.IsNaN(want)) {
					return false
				}
				putFloatNative(out, 0, kind, v)
				return math.IsNaN(v) || bytes.Equal(out, b)
			}
			var want int64
			switch kind {
			case jvm.Byte:
				want = int64(int8(bits))
			case jvm.Boolean:
				want = int64(bits & 1)
			case jvm.Char:
				want = int64(uint16(bits))
			case jvm.Short:
				want = int64(int16(bits))
			case jvm.Int:
				want = int64(int32(bits))
			default:
				want = int64(bits)
			}
			v := getIntNative(b, 0, kind)
			if v != want {
				return false
			}
			putIntNative(out, 0, kind, v)
			return kind == jvm.Boolean || bytes.Equal(out, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

// Property: OpSum over int kinds is commutative and associative in
// two's-complement arithmetic: reducing in either order agrees.
func TestReduceSumCommutativeProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		n -= n % 8
		if n == 0 {
			return true
		}
		x1 := append([]byte(nil), a[:n]...)
		y1 := append([]byte(nil), b[:n]...)
		x2 := append([]byte(nil), b[:n]...)
		y2 := append([]byte(nil), a[:n]...)
		if err := reduceInto(x1, y1, jvm.Long, OpSum); err != nil {
			return false
		}
		if err := reduceInto(x2, y2, jvm.Long, OpSum); err != nil {
			return false
		}
		for i := range x1 {
			if x1[i] != x2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Max/Min are idempotent (x op x == x) and ordered
// (min <= max elementwise).
func TestReduceMinMaxProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		n -= n % 4
		if n == 0 {
			return true
		}
		self := append([]byte(nil), a[:n]...)
		dup := append([]byte(nil), a[:n]...)
		if err := reduceInto(self, dup, jvm.Int, OpMax); err != nil {
			return false
		}
		for i := range self {
			if self[i] != a[i] {
				return false
			}
		}
		mx := append([]byte(nil), a[:n]...)
		mn := append([]byte(nil), a[:n]...)
		if err := reduceInto(mx, b[:n], jvm.Int, OpMax); err != nil {
			return false
		}
		if err := reduceInto(mn, b[:n], jvm.Int, OpMin); err != nil {
			return false
		}
		for i := 0; i+4 <= n; i += 4 {
			lo := getIntNative(mn, i, jvm.Int)
			hi := getIntNative(mx, i, jvm.Int)
			if lo > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	names := map[Op]string{
		OpSum: "MPI_SUM", OpProd: "MPI_PROD", OpMax: "MPI_MAX", OpMin: "MPI_MIN",
		OpLAnd: "MPI_LAND", OpLOr: "MPI_LOR", OpBAnd: "MPI_BAND", OpBOr: "MPI_BOR", OpBXor: "MPI_BXOR",
	}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), want)
		}
	}
	if Op(99).String() != "Op(99)" {
		t.Error("unknown op string wrong")
	}
}
