package nativempi

import (
	"encoding/binary"
	"fmt"
	"math"

	"mv2j/internal/jvm"
)

// reduceInto combines src into dst elementwise: dst = op(dst, src),
// interpreting both byte slices as arrays of kind elements in native
// (little-endian) layout. This is the kernel behind MPI_Reduce and
// friends; the caller charges compute cost separately.
func reduceInto(dst, src []byte, kind jvm.Kind, op Op) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: reduce length mismatch %d vs %d", ErrCount, len(dst), len(src))
	}
	sz := kind.Size()
	if len(dst)%sz != 0 {
		return fmt.Errorf("%w: %d bytes not a multiple of %v", ErrCount, len(dst), kind)
	}
	n := len(dst) / sz
	if fastReduce(dst, src, kind, op) {
		return nil
	}
	if kind.IsFloating() {
		return reduceFloat(dst, src, kind, op, n)
	}
	return reduceInt(dst, src, kind, op, n)
}

// fastReduce handles the hot (kind, op) pairs the benchmarks exercise
// without going through the generic element codec. It reports whether
// it handled the combination.
func fastReduce(dst, src []byte, kind jvm.Kind, op Op) bool {
	switch {
	case kind == jvm.Byte && op == OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
		return true
	case kind == jvm.Byte && op == OpMax:
		for i := range dst {
			if int8(src[i]) > int8(dst[i]) {
				dst[i] = src[i]
			}
		}
		return true
	case kind == jvm.Double && op == OpSum:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8], src[i:i+8]
			le.PutUint64(d, math.Float64bits(math.Float64frombits(le.Uint64(d))+math.Float64frombits(le.Uint64(s))))
		}
		return true
	case kind == jvm.Long && op == OpSum:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8], src[i:i+8]
			le.PutUint64(d, le.Uint64(d)+le.Uint64(s))
		}
		return true
	default:
		return false
	}
}

func reduceInt(dst, src []byte, kind jvm.Kind, op Op, n int) error {
	sz := kind.Size()
	for i := 0; i < n; i++ {
		a := getIntNative(dst, i*sz, kind)
		b := getIntNative(src, i*sz, kind)
		var r int64
		switch op {
		case OpSum:
			r = a + b
		case OpProd:
			r = a * b
		case OpMax:
			r = a
			if b > a {
				r = b
			}
		case OpMin:
			r = a
			if b < a {
				r = b
			}
		case OpLAnd:
			r = boolToInt(a != 0 && b != 0)
		case OpLOr:
			r = boolToInt(a != 0 || b != 0)
		case OpBAnd:
			r = a & b
		case OpBOr:
			r = a | b
		case OpBXor:
			r = a ^ b
		default:
			return fmt.Errorf("nativempi: unknown op %v", op)
		}
		putIntNative(dst, i*sz, kind, r)
	}
	return nil
}

func reduceFloat(dst, src []byte, kind jvm.Kind, op Op, n int) error {
	sz := kind.Size()
	for i := 0; i < n; i++ {
		a := getFloatNative(dst, i*sz, kind)
		b := getFloatNative(src, i*sz, kind)
		var r float64
		switch op {
		case OpSum:
			r = a + b
		case OpProd:
			r = a * b
		case OpMax:
			r = math.Max(a, b)
		case OpMin:
			r = math.Min(a, b)
		case OpLAnd:
			r = float64(boolToInt(a != 0 && b != 0))
		case OpLOr:
			r = float64(boolToInt(a != 0 || b != 0))
		default:
			return fmt.Errorf("nativempi: op %v undefined for %v", op, kind)
		}
		putFloatNative(dst, i*sz, kind, r)
	}
	return nil
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Native-layout element accessors (little-endian, matching the jvm
// package's array payload layout): one fixed-width load or store per
// element.

var le = binary.LittleEndian

func getIntNative(b []byte, off int, kind jvm.Kind) int64 {
	switch kind {
	case jvm.Byte:
		return int64(int8(b[off]))
	case jvm.Boolean:
		return int64(b[off] & 1)
	case jvm.Char:
		return int64(le.Uint16(b[off:]))
	case jvm.Short:
		return int64(int16(le.Uint16(b[off:])))
	case jvm.Int:
		return int64(int32(le.Uint32(b[off:])))
	case jvm.Long:
		return int64(le.Uint64(b[off:]))
	default:
		panic("nativempi: getIntNative on " + kind.String())
	}
}

func putIntNative(b []byte, off int, kind jvm.Kind, v int64) {
	switch kind.Size() {
	case 1:
		b[off] = byte(v)
	case 2:
		le.PutUint16(b[off:], uint16(v))
	case 4:
		le.PutUint32(b[off:], uint32(v))
	default:
		le.PutUint64(b[off:], uint64(v))
	}
}

func getFloatNative(b []byte, off int, kind jvm.Kind) float64 {
	if kind == jvm.Float {
		return float64(math.Float32frombits(le.Uint32(b[off:])))
	}
	return math.Float64frombits(le.Uint64(b[off:]))
}

func putFloatNative(b []byte, off int, kind jvm.Kind, v float64) {
	if kind == jvm.Float {
		le.PutUint32(b[off:], math.Float32bits(float32(v)))
		return
	}
	le.PutUint64(b[off:], math.Float64bits(v))
}
