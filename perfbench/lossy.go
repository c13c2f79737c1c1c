package main

import (
	"bytes"

	"mv2j/internal/core"
	"mv2j/internal/faults"
	"mv2j/internal/jvm"
	"mv2j/internal/profile"
)

// lossy8 is the reliability workload: 2 nodes x 4 ranks over a fabric
// with a seeded 1% drop plan, so every transfer is CRC-framed, acked
// and retransmitted on loss, and the zero-copy paths fall back to
// framed copies. Each step every rank exchanges one message with a
// partner (r^1, r^2 or r^4: intra- and inter-node), eager- or
// rendezvous-sized; every other step adds an Allreduce. An op is one
// delivered message or one collective call on one rank.
type lossy8 struct {
	seed  uint64
	steps []lossyStep
	warm  int   // steps[:warm] are the warm-up
	slot  []int // first op slot of each step
	slots int
	maxN  int
	pat   []byte
}

type lossyStep struct {
	n, shift int // message bytes, partner = rank ^ (1<<shift)
	reduce   int // Allreduce bytes, 0 for none
}

const lossyNP = 8

var (
	lossyEager = []int{64, 512, 2048, 4096}
	lossyRndv  = []int{32 << 10, 64 << 10, 128 << 10}
)

func newLossy8(seed uint64, tiny bool) *lossy8 {
	w := &lossy8{seed: seed, maxN: 128 << 10}
	warm, steady := 12, 1920
	if tiny {
		warm, steady = 4, 130
	}
	r := newRNG(seed, 4)
	for i := 0; i < warm+steady; i++ {
		// Eager and rendezvous steps alternate. The retransmission tail
		// then holds one to two percent of the ops, so the p99 needs
		// this many steps to sit inside it for every seed.
		var n int
		if i%2 == 0 {
			n = jitter(r, lossyRndv[r.intn(len(lossyRndv))], 64)
		} else {
			n = lossyEager[r.intn(len(lossyEager))]
		}
		s := lossyStep{n: n, shift: i % 3}
		if i%2 == 1 {
			s.reduce = 8 << r.intn(9) // 8 B .. 2 KiB
		}
		w.steps = append(w.steps, s)
	}
	w.warm = warm
	for _, s := range w.steps {
		w.slot = append(w.slot, w.slots)
		w.slots++
		if s.reduce > 0 {
			w.slots++
		}
	}
	w.pat = pattern(seed, 2*w.maxN+8*lossyNP)
	return w
}

func (w *lossy8) config() core.Config {
	return core.Config{Nodes: 2, PPN: 4, Lib: profile.MVAPICH2(), Flavor: core.MVAPICH2J,
		Faults:   faults.Uniform(w.seed, 0.01),
		HeapSize: 64 << 10, ArenaSize: 4*w.maxN + 1<<20}
}

func (w *lossy8) ops() (warm, steady int) {
	return w.slot[w.warm] * lossyNP, (w.slots - w.slot[w.warm]) * lossyNP
}

// opID: slot-major, then the sending (or calling) rank.
func (w *lossy8) opID(step, s, rank int) int64 {
	return int64((w.slot[step]+s)*lossyNP + rank)
}

func (w *lossy8) main(rs *rankState) error {
	j := rs.m.JVM()
	var send, recv, rsend, rrecv *jvm.ByteBuffer
	var err error
	for _, p := range []struct {
		buf **jvm.ByteBuffer
		n   int
	}{{&send, w.maxN}, {&recv, w.maxN}, {&rsend, 4096}, {&rrecv, 4096}} {
		if *p.buf, err = j.AllocateDirect(p.n); err != nil {
			return err
		}
	}
	c, me := rs.m.CommWorld(), rs.rank
	for si, s := range w.steps {
		if si == w.warm {
			if err := rs.steadyBegin(); err != nil {
				return err
			}
		}
		peer := me ^ (1 << s.shift)
		out, in := w.opID(si, 0, me), w.opID(si, 0, peer)
		copy(send.RawBytes(), w.pat[patOff(w.seed, out, w.maxN):][:s.n])
		id := rs.opBegin(out)
		t := rs.callBegin()
		req, err := c.Irecv(recv, s.n, core.BYTE, peer, si)
		rs.callEnd(t, "Irecv", p2pCall, in, id)
		if err != nil {
			return err
		}
		rs.r.post[out] = rs.now()
		t = rs.callBegin()
		err = c.Send(send, s.n, core.BYTE, peer, si)
		rs.callEnd(t, "Send", p2pCall, out, id)
		if err != nil {
			return err
		}
		t = rs.callBegin()
		_, err = req.Wait()
		rs.callEnd(t, "Wait", p2pCall, in, id)
		rs.r.done[in] = rs.now()
		rs.opEnd(id)
		if err != nil {
			return err
		}
		if !bytes.Equal(recv.RawBytes()[:s.n], w.pat[patOff(w.seed, in, w.maxN):][:s.n]) {
			rs.r.fail("lossy-8: op %d (%d B) payload mismatch on rank %d", in, s.n, me)
		}
		if s.reduce == 0 {
			continue
		}
		op := w.opID(si, 1, me)
		fillSum(rsend.RawBytes(), w.seed, si, me, s.reduce/8)
		id = rs.opBegin(op)
		rs.r.post[op] = rs.now()
		t = rs.callBegin()
		err = c.Allreduce(rsend, rrecv, s.reduce/8, core.LONG, core.SUM)
		rs.callEnd(t, "Allreduce", collCall, op, id)
		rs.r.done[op] = rs.now()
		rs.opEnd(id)
		if err != nil {
			return err
		}
		if !checkSum(rrecv.RawBytes(), w.seed, si, lossyNP, s.reduce/8) {
			rs.r.fail("lossy-8: step %d Allreduce mismatch on rank %d", si, me)
		}
	}
	return rs.steadyEnd()
}
