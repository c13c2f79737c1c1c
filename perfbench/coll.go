package main

import (
	"bytes"

	"mv2j/internal/core"
	"mv2j/internal/jvm"
	"mv2j/internal/profile"
)

// collMix is the wide-job workload: 32 nodes x 32 ppn running a seeded
// blocking-collective mix (Allreduce, Bcast, Allgather, Reduce,
// Barrier) plus overlapped Iallreduce+Ibcast pairs on the schedule
// executor, every result checked on every rank. Payloads are direct
// ByteBuffers, so the copy path stays light and the cost is set-up of
// 1,024 JVMs, the engine's phase merging and the multi-leader
// algorithms. An op is one collective call on one rank.
type collMix struct {
	seed         uint64
	nodes, ppn   int
	calls        []collOp
	warm         int   // calls[:warm] are the warm-up
	slot         []int // first op slot of each call
	slots        int   // op slots per rank
	maxN, patLen int
	pat          []byte
}

type collKind uint8

const (
	cAllreduce collKind = iota
	cBcast
	cAllgather
	cReduce
	cBarrier
	cNonblocking // Iallreduce of n plus Ibcast of n2, waited together
)

var collNames = [...]string{"Allreduce", "Bcast", "Allgather", "Reduce", "Barrier", "Iallreduce+Ibcast"}

type collOp struct {
	kind  collKind
	n, n2 int // bytes
	root  int
}

// The steady ladder: every seed runs the same (kind, size) multiset, in
// seeded order with sizes jittered below 1/32 (the Allgather by up to
// 32 B).
var collLadder = []collOp{
	{kind: cAllreduce, n: 8}, {kind: cAllreduce, n: 256}, {kind: cAllreduce, n: 4096}, {kind: cAllreduce, n: 16384},
	{kind: cBcast, n: 8}, {kind: cBcast, n: 1024}, {kind: cBcast, n: 65536},
	{kind: cAllgather, n: 256},
	{kind: cReduce, n: 8}, {kind: cReduce, n: 16384},
	{kind: cBarrier},
	{kind: cNonblocking, n: 1024, n2: 4096}, {kind: cNonblocking, n: 16384, n2: 16384},
}

func newCollMix(seed uint64, tiny bool) *collMix {
	w := &collMix{seed: seed, nodes: 32, ppn: 32, maxN: 65536}
	if tiny {
		w.nodes, w.ppn = 8, 16
	}
	r := newRNG(seed, 3)
	np := w.nodes * w.ppn
	draw := func(c collOp) collOp {
		if c.n >= 1024 {
			c.n = jitter(r, c.n, 8)
		}
		if c.n2 >= 1024 {
			c.n2 = jitter(r, c.n2, 8)
		}
		if c.kind == cAllgather {
			c.n -= 8 * r.intn(5)
		}
		return c
	}
	// Warm-up: one small call of each kind but Allgather, whose ring
	// costs np-1 steps whatever the size.
	for _, k := range []collKind{cAllreduce, cBcast, cReduce, cBarrier, cNonblocking} {
		w.calls = append(w.calls, draw(collOp{kind: k, n: 64, n2: 64}))
	}
	w.warm = len(w.calls)
	steady := append([]collOp(nil), collLadder...)
	shuffle(r, steady)
	for _, c := range steady {
		w.calls = append(w.calls, draw(c))
	}
	// Roots are fixed per call position, so the seed changes the order
	// and sizes of the mix but not its shape.
	for i := range w.calls {
		w.calls[i].root = (397*i + 13) % np
	}
	for _, c := range w.calls {
		w.slot = append(w.slot, w.slots)
		w.slots++
		if c.kind == cNonblocking {
			w.slots++
		}
	}
	w.patLen = w.maxN + 8*np + 256
	w.pat = pattern(seed, 2*w.patLen)
	return w
}

func (w *collMix) np() int { return w.nodes * w.ppn }

// recvLen fits the largest Allgather (256 B per rank) and reduction.
func (w *collMix) recvLen() int { return max(256*w.np(), w.maxN) }

func (w *collMix) ops() (warm, steady int) {
	np := w.np()
	return w.slot[w.warm] * np, (w.slots - w.slot[w.warm]) * np
}

func (w *collMix) config() core.Config {
	// Direct ByteBuffers only: the heap stays tiny and the arena holds
	// the send, receive and nonblocking buffers.
	arena := 2*w.maxN + w.recvLen() + 2*16384 + 64<<10
	return core.Config{Nodes: w.nodes, PPN: w.ppn, Lib: profile.MVAPICH2(), Flavor: core.MVAPICH2J,
		HeapSize: 16 << 10, ArenaSize: arena}
}

// opID returns the op id of slot s of call ci on rank: warm-up slots
// first, rank-major within each call.
func (w *collMix) opID(ci, s, rank int) int64 {
	return int64((w.slot[ci]+s)*w.np() + rank)
}

type collBufs struct {
	send, recv   *jvm.ByteBuffer
	nbSend, nbRx *jvm.ByteBuffer // Iallreduce
	nbBcast      *jvm.ByteBuffer
	nb           []*core.CollRequest
}

func (w *collMix) main(rs *rankState) error {
	j := rs.m.JVM()
	b := &collBufs{nb: make([]*core.CollRequest, 2)}
	var err error
	for _, p := range []struct {
		buf **jvm.ByteBuffer
		n   int
	}{{&b.send, w.maxN}, {&b.recv, w.recvLen()}, {&b.nbSend, 16384}, {&b.nbRx, 16384}, {&b.nbBcast, w.maxN}} {
		if *p.buf, err = j.AllocateDirect(p.n); err != nil {
			return err
		}
	}
	for ci := range w.calls {
		if ci == w.warm {
			if err := rs.steadyBegin(); err != nil {
				return err
			}
		}
		// As in OMB, a barrier separates the timed calls, so each call's
		// latency is its own and not the skew the previous one left. It
		// also keeps the Allgather ring's host cost, which grows with
		// that skew, from varying with the seeded order.
		t := rs.callBegin()
		err := rs.m.CommWorld().Barrier()
		rs.callEnd(t, "Barrier", collCall, -1, -1)
		if err != nil {
			return err
		}
		if err := w.call(rs, b, ci); err != nil {
			return err
		}
	}
	return rs.steadyEnd()
}

func (w *collMix) call(rs *rankState, b *collBufs, ci int) error {
	c := rs.m.CommWorld()
	co, np, me := w.calls[ci], w.np(), rs.rank
	op := w.opID(ci, 0, me)
	off := patOff(w.seed, int64(ci), w.patLen)
	want := w.pat[off : off+co.n]
	send, recv := b.send.RawBytes(), b.recv.RawBytes()
	switch co.kind {
	case cAllreduce, cReduce:
		fillSum(send, w.seed, ci, me, co.n/8)
	case cBcast:
		if me == co.root {
			copy(send, want)
		}
	case cAllgather:
		copy(send, w.pat[off+8*me:off+8*me+co.n])
	case cNonblocking:
		fillSum(b.nbSend.RawBytes(), w.seed, ci, me, co.n/8)
		if me == co.root {
			copy(b.nbBcast.RawBytes(), w.pat[off:off+co.n2])
		}
	}
	id := rs.opBegin(op)
	rs.r.post[op] = rs.now()
	var op2 int64 = -1
	if co.kind == cNonblocking {
		op2 = w.opID(ci, 1, me)
		rs.r.post[op2] = rs.now()
	}
	t := rs.callBegin()
	var err error
	switch co.kind {
	case cAllreduce:
		err = c.Allreduce(b.send, b.recv, co.n/8, core.LONG, core.SUM)
	case cBcast:
		err = c.Bcast(b.send, co.n, core.BYTE, co.root)
	case cAllgather:
		err = c.Allgather(b.send, co.n, b.recv, co.n, core.BYTE)
	case cReduce:
		err = c.Reduce(b.send, b.recv, co.n/8, core.LONG, core.SUM, co.root)
	case cBarrier:
		err = c.Barrier()
	case cNonblocking:
		if b.nb[0], err = c.Iallreduce(b.nbSend, b.nbRx, co.n/8, core.LONG, core.SUM); err == nil {
			rs.callEnd(t, "Iallreduce", collCall, op, id)
			t = rs.callBegin()
			if b.nb[1], err = c.Ibcast(b.nbBcast, co.n2, core.BYTE, co.root); err == nil {
				rs.callEnd(t, "Ibcast", collCall, op2, id)
				t = rs.callBegin()
				err = core.WaitallColl(b.nb)
			}
		}
	}
	name := collNames[co.kind]
	if co.kind == cNonblocking {
		name = "WaitallColl"
	}
	rs.callEnd(t, name, collCall, op, id)
	rs.r.done[op] = rs.now()
	if op2 >= 0 {
		rs.r.done[op2] = rs.now()
	}
	rs.opEnd(id)
	if err != nil {
		return err
	}
	ok := true
	switch co.kind {
	case cAllreduce:
		ok = checkSum(recv, w.seed, ci, np, co.n/8)
	case cReduce:
		ok = me != co.root || checkSum(recv, w.seed, ci, np, co.n/8)
	case cBcast:
		ok = bytes.Equal(send[:co.n], want)
	case cAllgather:
		for r := 0; r < np && ok; r++ {
			ok = bytes.Equal(recv[r*co.n:(r+1)*co.n], w.pat[off+8*r:off+8*r+co.n])
		}
	case cNonblocking:
		ok = checkSum(b.nbRx.RawBytes(), w.seed, ci, np, co.n/8) &&
			bytes.Equal(b.nbBcast.RawBytes()[:co.n2], w.pat[off:off+co.n2])
	}
	if !ok {
		rs.r.fail("coll-1024: call %d (%s, %d B) result mismatch on rank %d", ci, collNames[co.kind], co.n, me)
		if op2 >= 0 {
			rs.r.fail("coll-1024: call %d second op mismatch on rank %d", ci, me)
		}
	}
	return nil
}
