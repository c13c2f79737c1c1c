package main

import "encoding/binary"

// splitmix64 is the seed mixer behind every generated input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a deterministic stream over splitmix64.
type rng struct{ s uint64 }

func newRNG(seed uint64, salt uint64) *rng {
	return &rng{s: splitmix64(seed ^ splitmix64(salt))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix64(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes xs in place (Fisher–Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// pattern returns n seeded payload bytes. Messages carry windows of it
// at seeded offsets, so consecutive messages never look alike.
func pattern(seed uint64, n int) []byte {
	r := newRNG(seed, 0x7061747465726e) // "pattern"
	out := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(out[i:], r.next())
	}
	return out
}

// patOff returns the seeded pattern offset of op, a multiple of 8 in
// [0, span).
func patOff(seed uint64, op int64, span int) int {
	return int(splitmix64(seed^uint64(op)*0x2545f4914f6cdd1d)%uint64(span/8)) * 8
}

// jitter shrinks n by a seeded share below 1/32, keeping it a multiple
// of quantum, so seeds move the virtual figures a little without
// changing the workload's shape.
func jitter(r *rng, n, quantum int) int {
	steps := n / 32 / quantum
	if steps < 1 {
		return n
	}
	return n - quantum*r.intn(steps)
}

// sumBase is the seeded per-element contribution of a reduction; rank r
// adds r, so the expected sum over np ranks is np*base + np(np-1)/2.
func sumBase(seed uint64, call, i int) int64 {
	return int64(splitmix64(seed^uint64(call)<<20^uint64(i)) >> 8)
}

func fillSum(raw []byte, seed uint64, call, rank, count int) {
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(sumBase(seed, call, i)+int64(rank)))
	}
}

func checkSum(raw []byte, seed uint64, call, np, count int) bool {
	for i := 0; i < count; i++ {
		want := int64(np)*sumBase(seed, call, i) + int64(np*(np-1)/2)
		if int64(binary.LittleEndian.Uint64(raw[8*i:])) != want {
			return false
		}
	}
	return true
}
