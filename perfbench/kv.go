package main

import (
	"encoding/binary"

	"mv2j/internal/core"
	"mv2j/internal/jvm"
	"mv2j/internal/profile"
)

// kvService is the per-message-overhead workload, in the shape of
// omb.KVService: 2 nodes x 4 ranks, half serving and half hosting
// clients, 4 simulated threads per rank under MPI_THREAD_MULTIPLE.
// Each client lane draws its requests from its share of a ~1M-client
// population (the client id picks the private reply tag); one request
// in four is for one of a few hot keys, all served by server 0.
// Requests and replies are 32 B, pipelined 64 per lane. Eager credits
// are 8 with a 256 B unexpected-queue bound, so the hot server parks
// and demotes senders. An op is one request/reply round trip, timed
// per request on the client from posting the reply receive to its
// completion.
type kvService struct {
	seed               uint64
	threads, window    int
	clients            int
	warmPer, steadyPer int // requests per client lane
}

const (
	kvNodes    = 2
	kvPPN      = 4
	kvMsg      = 32
	kvTagReq   = 64
	kvTagReply = 1024
	kvHotKeys  = 64     // hot client ids per lane
	kvWarmSeed = 0x6b76 // input seed of the warm-up pass
)

func newKVService(seed uint64, tiny bool) *kvService {
	w := &kvService{seed: seed, threads: 4, window: 64, clients: 1 << 20,
		warmPer: 256, steadyPer: 16384}
	if tiny {
		w.warmPer, w.steadyPer = 64, 128
	}
	return w
}

func (w *kvService) lanes() int { return kvNodes * kvPPN / 2 * w.threads }

func (w *kvService) ops() (warm, steady int) {
	return w.lanes() * w.warmPer, w.lanes() * w.steadyPer
}

func (w *kvService) config() core.Config {
	prof := profile.MVAPICH2()
	prof.EagerCredits = 8
	prof.UnexpectedQueueBytes = 256
	return core.Config{Nodes: kvNodes, PPN: kvPPN, Lib: prof, Flavor: core.MVAPICH2J,
		HeapSize: 64 << 10, ArenaSize: 1 << 20}
}

// op returns the op id of request i of a lane in the given pass.
func (w *kvService) op(steady bool, lane, i int) int64 {
	if !steady {
		return int64(lane*w.warmPer + i)
	}
	return int64(w.lanes()*w.warmPer + lane*w.steadyPer + i)
}

// request returns request i's client id, server and server thread.
// Requests come in groups of four: one, in a seeded slot, is for a hot
// key of server 0; the other three go round-robin over the others.
// Client ids are lane + L*j, so lanes never share a reply tag. A client
// always uses the same server thread, picked by hashing its id, so two
// requests of one client are answered in order.
//
// The warm-up pass is the same for every seed. The flow-control and
// thread-scheduling state it leaves decides which of two regimes the
// measured pass settles in (their latencies differ by about 12%), and
// that must not depend on the seed.
func (w *kvService) request(steady bool, lane, i int) (client, server, thread int) {
	L, S := w.lanes(), kvNodes*kvPPN/2
	seed := uint64(kvWarmSeed)
	if steady {
		seed = w.seed
	}
	g, pos := i/4, i%4
	h := splitmix64(seed ^ uint64(lane)<<40 ^ uint64(g))
	if pos == int(h&3) {
		client = lane + L*int((h>>2)%kvHotKeys)
	} else {
		j := splitmix64(h^uint64(pos)) % uint64(w.clients/L)
		client, server = lane+L*int(j), 1+(3*g+pos+lane)%(S-1)
	}
	return client, server, int(splitmix64(uint64(client)) % uint64(w.threads))
}

func (w *kvService) value(key uint64) uint64 { return splitmix64(key ^ w.seed) }

// Request layout: [0] kind (0 request, 1 FIN), [1:5] reply tag,
// [5:13] client id, [13:21] op id, [21:29] check. Reply layout:
// [1:9] value(client id), [9:17] op id.
func reqCheck(key, op uint64) uint64 { return splitmix64(key*31 + op) }

func (w *kvService) main(rs *rankState) error {
	m := rs.m
	np := m.CommWorld().Size()
	S, T := np/2, w.threads
	serving := rs.rank < S
	if got := m.InitThread(core.ThreadMultiple); got != core.ThreadMultiple {
		rs.r.fail("kv-1m: library granted %v, need MPI_THREAD_MULTIPLE", got)
		return nil
	}
	alloc := func() (*jvm.ByteBuffer, error) { return m.JVM().AllocateDirect(kvMsg) }
	type lane struct {
		req, rep []*jvm.ByteBuffer
		fin      *jvm.ByteBuffer
		rreq     []*core.Request // reply receives of the window
		sreq     []*core.Request // request sends of the window
	}
	type srvLane struct {
		in  []*jvm.ByteBuffer
		ws  []*core.Request
		out *jvm.ByteBuffer
	}
	lanes := make([]lane, T)
	srv := make([]srvLane, T)
	for tid := 0; tid < T; tid++ {
		var err error
		if serving {
			sl := srvLane{in: make([]*jvm.ByteBuffer, np-S), ws: make([]*core.Request, np-S)}
			for j := range sl.in {
				if sl.in[j], err = alloc(); err != nil {
					return err
				}
			}
			if sl.out, err = alloc(); err != nil {
				return err
			}
			srv[tid] = sl
			continue
		}
		ln := lane{req: make([]*jvm.ByteBuffer, w.window), rep: make([]*jvm.ByteBuffer, w.window),
			rreq: make([]*core.Request, 0, w.window), sreq: make([]*core.Request, 0, w.window)}
		for k := 0; k < w.window; k++ {
			if ln.req[k], err = alloc(); err != nil {
				return err
			}
			if ln.rep[k], err = alloc(); err != nil {
				return err
			}
		}
		if ln.fin, err = alloc(); err != nil {
			return err
		}
		ln.fin.RawBytes()[0] = 1
		lanes[tid] = ln
	}
	c := m.CommWorld()
	// serve answers requests until every client thread of every client
	// rank has sent its FIN, keeping one receive posted per client rank.
	serve := func(tid int) error {
		sl := srv[tid]
		C := np - S
		fins := make([]int, C)
		post := func(j int) error {
			t := rs.callBegin()
			req, err := c.Irecv(sl.in[j], kvMsg, core.BYTE, S+j, kvTagReq+tid)
			rs.callEnd(t, "Irecv", p2pCall, -1, -1)
			sl.ws[j] = req
			return err
		}
		for j := 0; j < C; j++ {
			if err := post(j); err != nil {
				return err
			}
		}
		for active := C; active > 0; {
			t := rs.callBegin()
			j, _, err := core.Waitany(sl.ws)
			rs.callEnd(t, "Waitany", p2pCall, -1, -1)
			if err != nil {
				return err
			}
			sl.ws[j] = nil
			in := sl.in[j].RawBytes()
			if in[0] == 1 {
				if fins[j]++; fins[j] == T {
					active--
					continue
				}
			} else {
				tag := int(binary.LittleEndian.Uint32(in[1:5]))
				key := binary.LittleEndian.Uint64(in[5:13])
				op := binary.LittleEndian.Uint64(in[13:21])
				if binary.LittleEndian.Uint64(in[21:29]) != reqCheck(key, op) {
					rs.r.fail("kv-1m: op %d request corrupted at server %d", op, rs.rank)
				}
				out := sl.out.RawBytes()
				binary.LittleEndian.PutUint64(out[1:9], w.value(key))
				binary.LittleEndian.PutUint64(out[9:17], op)
				id := rs.opBegin(int64(op))
				t := rs.callBegin()
				err := c.Send(sl.out, kvMsg, core.BYTE, S+j, tag)
				rs.callEnd(t, "Send", p2pCall, int64(op), id)
				rs.opEnd(id)
				if err != nil {
					return err
				}
			}
			if err := post(j); err != nil {
				return err
			}
		}
		return nil
	}

	drive := func(tid int, steady bool) error {
		myLane := (rs.rank-S)*T + tid
		ln := &lanes[tid]
		n := w.warmPer
		if steady {
			n = w.steadyPer
		}
		first := 0
		flush := func(upto int) error {
			// Replies are taken as they complete, so each request's
			// latency is its own, not its window predecessors'.
			for range ln.rreq {
				t := rs.callBegin()
				k, _, err := core.Waitany(ln.rreq)
				i := first + k
				op := w.op(steady, myLane, i)
				rs.callEnd(t, "Waitany", p2pCall, op, -1)
				if err != nil {
					return err
				}
				rs.r.done[op] = rs.now()
				ln.rreq[k] = nil
				rep := ln.rep[k].RawBytes()
				cl, _, _ := w.request(steady, myLane, i)
				key := uint64(cl)
				if binary.LittleEndian.Uint64(rep[1:9]) != w.value(key) ||
					binary.LittleEndian.Uint64(rep[9:17]) != uint64(op) {
					rs.r.fail("kv-1m: op %d reply mismatch on rank %d", op, rs.rank)
				}
			}
			t := rs.callBegin()
			err := core.Waitall(ln.sreq)
			rs.callEnd(t, "Waitall", p2pCall, -1, -1)
			ln.rreq, ln.sreq = ln.rreq[:0], ln.sreq[:0]
			first = upto
			return err
		}
		for i := 0; i < n; i++ {
			k := i - first
			cl, dst, dstThread := w.request(steady, myLane, i)
			op := w.op(steady, myLane, i)
			tag := kvTagReply + cl
			raw := ln.req[k].RawBytes()
			raw[0] = 0
			binary.LittleEndian.PutUint32(raw[1:5], uint32(tag))
			binary.LittleEndian.PutUint64(raw[5:13], uint64(cl))
			binary.LittleEndian.PutUint64(raw[13:21], uint64(op))
			binary.LittleEndian.PutUint64(raw[21:29], reqCheck(uint64(cl), uint64(op)))
			id := rs.opBegin(op)
			rs.r.post[op] = rs.now()
			t := rs.callBegin()
			rreq, err := c.Irecv(ln.rep[k], kvMsg, core.BYTE, dst, tag)
			rs.callEnd(t, "Irecv", p2pCall, op, id)
			if err != nil {
				return err
			}
			t = rs.callBegin()
			sreq, err := c.Isend(ln.req[k], kvMsg, core.BYTE, dst, kvTagReq+dstThread)
			rs.callEnd(t, "Isend", p2pCall, op, id)
			rs.opEnd(id)
			if err != nil {
				return err
			}
			ln.rreq, ln.sreq = append(ln.rreq, rreq), append(ln.sreq, sreq)
			if len(ln.rreq) == w.window || i == n-1 {
				if err := flush(i + 1); err != nil {
					return err
				}
			}
		}
		for s := 0; s < S; s++ {
			for stid := 0; stid < T; stid++ {
				t := rs.callBegin()
				err := c.Send(ln.fin, kvMsg, core.BYTE, s, kvTagReq+stid)
				rs.callEnd(t, "Send", p2pCall, -1, -1)
				if err != nil {
					return err
				}
			}
		}
		return nil
	}

	pass := func(steady bool) error {
		return m.RunThreads(T, func(tid int) error {
			if serving {
				return serve(tid)
			}
			return drive(tid, steady)
		})
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
