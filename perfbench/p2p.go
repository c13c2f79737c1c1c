package main

import (
	"bytes"

	"mv2j/internal/core"
	"mv2j/internal/jvm"
	"mv2j/internal/profile"
)

// p2pJava is the copy-datapath workload: 2 nodes x 2 ppn, ping-pong
// plus windowed streaming over 8 B .. 1 MiB, every size sent as a Java
// byte[] array, a direct ByteBuffer and a 50%-dense TypeVector int[].
//
// Four ranks on two nodes cannot form one intra-node and one
// inter-node pair at the same time, so each (size, kind) segment runs
// twice: first on the intra-node pairs (0,1) and (2,3), then on the
// inter-node pairs (0,2) and (1,3). An op is one delivered payload
// message; its virtual latency runs from the sender's call to the
// receiver's completion.
type p2pJava struct {
	seed    uint64
	maxSize int
	sizes   []int      // seeded order
	kinds   [][3]int   // per size: payload kinds in seeded order
	pat     []byte     // payload pattern, 2*maxSize long
	blank   []byte     // sentinel run as long as the largest receive region
	vec     []vecShape // per size
}

// Payload kinds.
const (
	kindArray = iota
	kindDirect
	kindVector
)

var kindNames = [3]string{"array", "direct", "vector"}

// vecShape is the 50%-dense layout of one wire size: blocks of blk
// ints every 2*blk ints.
type vecShape struct{ blocks, blk int }

func shapeFor(n int) vecShape {
	ints := n / 4
	blk := 16
	if ints < blk {
		blk = ints
	}
	return vecShape{blocks: ints / blk, blk: blk}
}

// extent is the int[] footprint in bytes.
func (v vecShape) extent() int { return ((v.blocks-1)*2*v.blk + v.blk) * 4 }

const (
	tagPing = iota + 1
	tagPong
	tagStream
	tagAck
)

// Per-segment op counts: ping-pong iterations and stream window. They
// do not depend on the seed, so every seed measures the same mix of
// ping-pong and stream messages.
const (
	p2pPing      = 4
	p2pWin       = 12
	p2pPingLarge = 2
	p2pWinLarge  = 4
	p2pLarge     = 32 << 10 // sizes above this use the large counts
)

func newP2PJava(seed uint64, tiny bool) *p2pJava {
	w := &p2pJava{seed: seed, maxSize: 1 << 20}
	if tiny {
		w.maxSize = 64 << 10
	}
	r := newRNG(seed, 1)
	for n := 8; n <= w.maxSize; n *= 2 {
		w.sizes = append(w.sizes, jitter(r, n, 64))
	}
	shuffle(r, w.sizes)
	for _, n := range w.sizes {
		k := [3]int{kindArray, kindDirect, kindVector}
		shuffle(r, k[:])
		w.kinds = append(w.kinds, k)
		w.vec = append(w.vec, shapeFor(n))
	}
	w.pat = pattern(seed, 2*w.maxSize)
	w.blank = bytes.Repeat([]byte{gapByte}, shapeFor(w.maxSize).extent())
	return w
}

func (w *p2pJava) config() core.Config {
	return core.Config{
		Nodes: 2, PPN: 2, Lib: profile.MVAPICH2(), Flavor: core.MVAPICH2J,
		HeapSize: 6*w.maxSize + 1<<20, ArenaSize: 16*w.maxSize + 1<<20,
	}
}

// counts returns the ping-pong iterations and stream window of size
// index si in the warm-up (steady=false) or measured pass.
func (w *p2pJava) counts(si int, steady bool) (ping, win int) {
	if !steady {
		return 1, 2
	}
	if w.sizes[si] > p2pLarge {
		return p2pPingLarge, p2pWinLarge
	}
	return p2pPing, p2pWin
}

func (w *p2pJava) passOps(steady bool) int {
	ops := 0
	for si := range w.sizes {
		ping, win := w.counts(si, steady)
		// 3 kinds x 2 phases x 2 pairs.
		ops += 12 * (2*ping + win)
	}
	return ops
}

func (w *p2pJava) ops() (warm, steady int) { return w.passOps(false), w.passOps(true) }

// p2pBufs are one rank's payload buffers, sized for the largest
// message.
type p2pBufs struct {
	sArr, rArr jvm.Array
	sBB, rBB   *jvm.ByteBuffer
	sVec, rVec jvm.Array
	vtypes     []core.Datatype // per size index
	ack        *jvm.ByteBuffer
	reqs       []*core.Request
}

// gapByte is the sentinel every receive region holds before its
// message lands.
const gapByte = 0xA5

func (w *p2pJava) alloc(m *core.MPI) (*p2pBufs, error) {
	j := m.JVM()
	b := &p2pBufs{}
	var err error
	ext := shapeFor(w.maxSize).extent()
	if b.sArr, err = j.NewArray(jvm.Byte, w.maxSize); err != nil {
		return nil, err
	}
	if b.rArr, err = j.NewArray(jvm.Byte, w.maxSize); err != nil {
		return nil, err
	}
	if b.sVec, err = j.NewArray(jvm.Int, ext/4); err != nil {
		return nil, err
	}
	if b.rVec, err = j.NewArray(jvm.Int, ext/4); err != nil {
		return nil, err
	}
	if b.sBB, err = j.AllocateDirect(w.maxSize); err != nil {
		return nil, err
	}
	if b.rBB, err = j.AllocateDirect(w.maxSize); err != nil {
		return nil, err
	}
	if b.ack, err = j.AllocateDirect(8); err != nil {
		return nil, err
	}
	for _, v := range w.vec {
		dt := core.TypeVector(core.INT, v.blocks, v.blk, 2*v.blk)
		dt.Commit()
		b.vtypes = append(b.vtypes, dt)
	}
	b.reqs = make([]*core.Request, 0, 32)
	return b, nil
}

// msg describes one payload message's buffers and datatype.
func (b *p2pBufs) msg(kind, si, n int, send bool) (obj any, count int, dt core.Datatype) {
	switch kind {
	case kindArray:
		if send {
			return b.sArr, n, core.BYTE
		}
		return b.rArr, n, core.BYTE
	case kindDirect:
		if send {
			return b.sBB, n, core.BYTE
		}
		return b.rBB, n, core.BYTE
	default:
		if send {
			return b.sVec, 1, b.vtypes[si]
		}
		return b.rVec, 1, b.vtypes[si]
	}
}

// The payload checks below read and write the buffers' backing bytes
// directly: they are the benchmark's oracle, not part of the measured
// program, and charge no virtual time.

func (w *p2pJava) fill(b *p2pBufs, kind, si, n, off int) {
	src := w.pat[off : off+n]
	switch kind {
	case kindArray:
		copy(b.sArr.RawBytes(), src)
	case kindDirect:
		copy(b.sBB.RawBytes(), src)
	default:
		v, raw := w.vec[si], b.sVec.RawBytes()
		bb := 4 * v.blk
		for i := 0; i < v.blocks; i++ {
			copy(raw[2*bb*i:2*bb*i+bb], src[bb*i:bb*i+bb])
		}
	}
}

// scrub overwrites the receive region with the sentinel before each
// receive, so a message that is not delivered, or only in part, fails
// verify even when the buffer's previous message carried the same
// pattern (as a stream window's messages do).
func (w *p2pJava) scrub(b *p2pBufs, kind, si, n int) {
	var raw []byte
	switch kind {
	case kindArray:
		raw = b.rArr.RawBytes()[:n]
	case kindDirect:
		raw = b.rBB.RawBytes()[:n]
	default:
		raw = b.rVec.RawBytes()[:w.vec[si].extent()]
	}
	copy(raw, w.blank)
}

func (w *p2pJava) verify(b *p2pBufs, kind, si, n, off int) bool {
	want := w.pat[off : off+n]
	switch kind {
	case kindArray:
		return bytes.Equal(b.rArr.RawBytes()[:n], want)
	case kindDirect:
		return bytes.Equal(b.rBB.RawBytes()[:n], want)
	default:
		v, raw := w.vec[si], b.rVec.RawBytes()
		bb := 4 * v.blk
		for i := 0; i < v.blocks; i++ {
			if !bytes.Equal(raw[2*bb*i:2*bb*i+bb], want[bb*i:bb*i+bb]) {
				return false
			}
			if i < v.blocks-1 && !bytes.Equal(raw[2*bb*i+bb:2*bb*(i+1)], w.blank[:bb]) {
				return false
			}
		}
		return true
	}
}

func (w *p2pJava) main(rs *rankState) error {
	b, err := w.alloc(rs.m)
	if err != nil {
		return err
	}
	var op int64
	pass := func(steady bool) error {
		for si, n := range w.sizes {
			ping, win := w.counts(si, steady)
			per := int64(2*ping + win)
			for _, kind := range w.kinds[si] {
				for phase := 0; phase < 2; phase++ {
					peer, pair := rs.rank^1, rs.rank>>1
					if phase == 1 {
						peer, pair = rs.rank^2, rs.rank&1
					}
					seg := segment{b: b, kind: kind, si: si, n: n, peer: peer,
						init: rs.rank < peer, base: op + int64(pair)*per, ping: ping, win: win}
					if err := w.segment(rs, seg); err != nil {
						return err
					}
					op += 2 * per
				}
			}
		}
		return nil
	}
	if err := pass(false); err != nil {
		return err
	}
	if err := rs.steadyBegin(); err != nil {
		return err
	}
	if err := pass(true); err != nil {
		return err
	}
	return rs.steadyEnd()
}

// segment is one pair's share of a (size, kind, phase) step.
type segment struct {
	b           *p2pBufs
	kind, si, n int
	peer        int
	init        bool
	base        int64
	ping, win   int
}

func (w *p2pJava) segment(rs *rankState, s segment) error {
	for it := 0; it < s.ping; it++ {
		ping, pong := s.base+int64(2*it), s.base+int64(2*it+1)
		var err error
		if s.init {
			if err = w.send(rs, s, tagPing, ping); err == nil {
				err = w.recv(rs, s, tagPong, pong, pong)
			}
		} else {
			if err = w.recv(rs, s, tagPing, ping, ping); err == nil {
				err = w.send(rs, s, tagPong, pong)
			}
		}
		if err != nil {
			return err
		}
	}
	first := s.base + int64(2*s.ping)
	c := rs.m.CommWorld()
	if !s.init {
		for k := 0; k < s.win; k++ {
			if err := w.recv(rs, s, tagStream, first+int64(k), first); err != nil {
				return err
			}
		}
		t := rs.callBegin()
		err := c.Send(s.b.ack, 1, core.BYTE, s.peer, tagAck)
		rs.callEnd(t, "Send", p2pCall, first, -1)
		return err
	}
	// The window shares one send buffer, so all its messages carry the
	// pattern of the window's first op.
	w.fill(s.b, s.kind, s.si, s.n, patOff(w.seed, first, w.maxSize))
	obj, count, dt := s.b.msg(s.kind, s.si, s.n, true)
	reqs := s.b.reqs[:0]
	for k := 0; k < s.win; k++ {
		op := first + int64(k)
		id := rs.opBegin(op)
		rs.r.post[op] = rs.now()
		t := rs.callBegin()
		req, err := c.Isend(obj, count, dt, s.peer, tagStream)
		rs.callEnd(t, "Isend", p2pCall, op, id)
		rs.opEnd(id)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	t := rs.callBegin()
	err := core.Waitall(reqs)
	rs.callEnd(t, "Waitall", p2pCall, first, -1)
	if err != nil {
		return err
	}
	t = rs.callBegin()
	_, err = c.Recv(s.b.ack, 1, core.BYTE, s.peer, tagAck)
	rs.callEnd(t, "Recv", p2pCall, first, -1)
	return err
}

func (w *p2pJava) send(rs *rankState, s segment, tag int, op int64) error {
	w.fill(s.b, s.kind, s.si, s.n, patOff(w.seed, op, w.maxSize))
	obj, count, dt := s.b.msg(s.kind, s.si, s.n, true)
	id := rs.opBegin(op)
	rs.r.post[op] = rs.now()
	t := rs.callBegin()
	err := rs.m.CommWorld().Send(obj, count, dt, s.peer, tag)
	rs.callEnd(t, "Send", p2pCall, op, id)
	rs.opEnd(id)
	return err
}

// recv receives op and checks it against the pattern of patOp.
func (w *p2pJava) recv(rs *rankState, s segment, tag int, op, patOp int64) error {
	w.scrub(s.b, s.kind, s.si, s.n)
	obj, count, dt := s.b.msg(s.kind, s.si, s.n, false)
	id := rs.opBegin(op)
	t := rs.callBegin()
	_, err := rs.m.CommWorld().Recv(obj, count, dt, s.peer, tag)
	rs.callEnd(t, "Recv", p2pCall, op, id)
	rs.r.done[op] = rs.now()
	rs.opEnd(id)
	if err != nil {
		return err
	}
	if !w.verify(s.b, s.kind, s.si, s.n, patOff(w.seed, patOp, w.maxSize)) {
		rs.r.fail("p2p-java: op %d (%s, %d B) payload mismatch on rank %d", op, kindNames[s.kind], s.n, rs.rank)
	}
	return nil
}
