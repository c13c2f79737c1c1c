package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mv2j/internal/core"
	"mv2j/internal/jni"
	"mv2j/internal/jvm"
	"mv2j/internal/metrics"
	"mv2j/internal/mpjbuf"
	"mv2j/internal/nativempi"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// workload is one benchmark scenario. Its inputs are fixed at
// construction from the seed; every round replays them exactly, so
// every round of one seed has the same virtual digest.
type workload interface {
	// config returns the job shape, library profile and fault plan.
	config() core.Config
	// ops returns the warm-up and steady op counts of one round. Op ids
	// [0, warm) are warm-up, [warm, warm+steady) the measured window.
	ops() (warm, steady int)
	// main is the rank body. It brackets the measured window with
	// rs.steadyBegin and rs.steadyEnd and records every op's virtual
	// post and completion time.
	main(rs *rankState) error
}

// callKind separates point-to-point from collective calls in the
// per-call host-time samples.
type callKind uint8

const (
	p2pCall callKind = iota
	collCall
)

// span is one traced interval recorded by the benchmark around a
// layer boundary: a round's setup, an op, or a call into core.
type span struct {
	Name        string `json:"name"`
	Rank        int    `json:"rank"`
	ID          int32  `json:"id"`
	Parent      int32  `json:"parent"`
	Op          int64  `json:"op"`
	HostStartNs int64  `json:"host_start_ns"`
	HostEndNs   int64  `json:"host_end_ns"`
	VirtStartPs int64  `json:"virt_start_ps"`
	VirtEndPs   int64  `json:"virt_end_ps"`
}

// rankState is one rank's benchmark bookkeeping. It is confined to the
// rank (simulated threads of a rank run one at a time), so it needs no
// locking.
type rankState struct {
	r    *round
	rank int
	m    *core.MPI // nil once the round has finished

	jvm0, jvm1   jvm.Stats
	jni0, jni1   jni.Stats
	pool0, pool1 mpjbuf.PoolStats
	flow0, flow1 nativempi.FlowStats

	// Traced rounds only.
	steady   bool
	depth    int
	busyFrom int64
	busyNs   int64
	callNs   [2][]int64
	spans    []span
}

// round is one core.Run of a workload: set-up, warm-up, the measured
// steady window, teardown.
type round struct {
	wl      workload
	traced  bool
	workers int
	np      int
	warm    int
	steady  int

	t0         time.Time
	alloc0     uint64
	entered    atomic.Int64
	setupNs    atomic.Int64
	setupAlloc uint64 // Go bytes allocated during set-up

	steady0, steady1 time.Time // on rank 0, after the window's barriers
	ms0, ms1         runtime.MemStats
	vStart, vEnd     atomic.Int64

	// spanStride samples the ops whose spans are kept: every op's in a
	// round of at most maxSpanOps ops, every spanStride-th beyond, so
	// the span output stays bounded.
	spanStride int64

	// post/done are each op's virtual start and completion; a message's
	// sender writes post and its receiver done, so no slot is shared.
	post, done []vtime.Time

	failed   atomic.Int64
	failOnce sync.Once
	failMsg  string

	ranks  []*rankState
	host   nativempi.HostStats
	rec    *trace.Recorder
	reg    *metrics.Registry
	wallNs int64
	err    error

	// Condensed by finish.
	digest    uint64
	regDigest uint64
	proc      nativempi.ProcStats // summed over ranks
	flow      flowRegime          // steady window, summed over ranks
	phases    trace.Phases        // summed over ranks (traced)
}

// maxSpanOps bounds the ops of one round whose spans are kept.
const maxSpanOps = 1 << 14

func newRound(wl workload, workers int, traced bool) *round {
	warm, steady := wl.ops()
	r := &round{wl: wl, traced: traced, workers: workers, warm: warm, steady: steady,
		spanStride: int64(max(1, (warm+steady)/maxSpanOps)),
		post:       make([]vtime.Time, warm+steady), done: make([]vtime.Time, warm+steady)}
	r.vStart.Store(int64(^uint64(0) >> 1))
	return r
}

// run executes the round. Set-up runs from core.Run until the last
// rank enters its main; it covers world, JVM, JNI and pool
// construction.
func (r *round) run() {
	cfg := r.wl.config()
	cfg.EngineWorkers = r.workers
	cfg.HostStats = &r.host
	if r.traced {
		r.rec = trace.New(4 << 20)
		r.reg = metrics.NewRegistry()
		cfg.Trace, cfg.Metrics = r.rec, r.reg
	}
	r.np = cfg.Nodes * cfg.PPN
	r.ranks = make([]*rankState, r.np)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc0 = ms.TotalAlloc
	r.t0 = time.Now()
	r.err = core.Run(cfg, func(m *core.MPI) error {
		rs := r.enter(m)
		return r.wl.main(rs)
	})
	r.wallNs = time.Since(r.t0).Nanoseconds()
	r.finish()
}

func (r *round) since() int64 { return time.Since(r.t0).Nanoseconds() }

func (r *round) enter(m *core.MPI) *rankState {
	now := r.since()
	rs := &rankState{r: r, rank: m.CommWorld().Rank(), m: m}
	r.ranks[rs.rank] = rs
	atomicMax(&r.setupNs, now)
	if r.traced {
		rs.spans = append(rs.spans, span{Name: "setup", Rank: rs.rank, Parent: -1, Op: -1,
			HostEndNs: now, VirtEndPs: int64(m.Clock().Now())})
	}
	if r.entered.Add(1) == int64(r.np) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.setupAlloc = ms.TotalAlloc - r.alloc0
	}
	return rs
}

// fail counts one failed op and keeps the first reason.
func (r *round) fail(format string, args ...any) {
	r.failed.Add(1)
	r.failOnce.Do(func() { r.failMsg = fmt.Sprintf(format, args...) })
}

func (rs *rankState) snapshot(j *jvm.Stats, n *jni.Stats, p *mpjbuf.PoolStats, f *nativempi.FlowStats) {
	*j, *n, *p = rs.m.JVM().Stats(), rs.m.JNI().Stats(), rs.m.Pool().Stats()
	*f = rs.m.Proc().FlowStats()
}

// flowRegime is the flow-control state the steady window settled in.
// kv-1m's latencies differ by about 12% between its two regimes, so a
// change of regime is reported beside the figures it moves.
type flowRegime struct{ demoted, parks int64 }

func (f flowRegime) String() string {
	return fmt.Sprintf("%d demoted sends, %d RNR parks", f.demoted, f.parks)
}

// steadyBegin opens the measured window: a barrier, then every rank
// snapshots its layer counters and rank 0 the host clock and heap.
func (rs *rankState) steadyBegin() error {
	if err := rs.m.CommWorld().Barrier(); err != nil {
		return err
	}
	r := rs.r
	if rs.rank == 0 {
		runtime.ReadMemStats(&r.ms0)
		r.steady0 = time.Now()
	}
	rs.snapshot(&rs.jvm0, &rs.jni0, &rs.pool0, &rs.flow0)
	atomicMin(&r.vStart, int64(rs.m.Clock().Now()))
	rs.steady = true
	return nil
}

// steadyEnd closes the measured window once every rank has finished
// its steady ops.
func (rs *rankState) steadyEnd() error {
	r := rs.r
	atomicMax(&r.vEnd, int64(rs.m.Clock().Now()))
	rs.snapshot(&rs.jvm1, &rs.jni1, &rs.pool1, &rs.flow1)
	rs.steady = false
	if err := rs.m.CommWorld().Barrier(); err != nil {
		return err
	}
	if rs.rank == 0 {
		r.steady1 = time.Now()
		runtime.ReadMemStats(&r.ms1)
	}
	return nil
}

// tok is an open call span; zero in untraced rounds.
type tok struct {
	h int64
	v vtime.Time
}

// callBegin opens a span around one call into core. Untraced rounds
// record nothing, so the measured loop carries no tracing cost.
func (rs *rankState) callBegin() tok {
	if !rs.r.traced {
		return tok{}
	}
	h := rs.r.since()
	if rs.depth == 0 {
		rs.busyFrom = h
	}
	rs.depth++
	return tok{h, rs.m.Clock().Now()}
}

// callEnd closes a call span opened by callBegin.
func (rs *rankState) callEnd(t tok, name string, k callKind, op int64, parent int32) {
	if !rs.r.traced {
		return
	}
	h := rs.r.since()
	rs.depth--
	if rs.steady {
		if rs.depth == 0 {
			rs.busyNs += h - rs.busyFrom
		}
		rs.callNs[k] = append(rs.callNs[k], h-t.h)
	}
	if rs.r.keepSpans(op) {
		rs.spans = append(rs.spans, span{Name: name, Rank: rs.rank, ID: int32(len(rs.spans)),
			Parent: parent, Op: op, HostStartNs: t.h, HostEndNs: h,
			VirtStartPs: int64(t.v), VirtEndPs: int64(rs.m.Clock().Now())})
	}
}

// keepSpans reports whether the spans of op are kept. When ops are
// sampled, calls outside any op (op < 0) are dropped too.
func (r *round) keepSpans(op int64) bool {
	return r.spanStride == 1 || (op >= 0 && op%r.spanStride == 0)
}

// opBegin opens the span of one op on this rank and returns its id,
// the parent of the op's call spans (-1 when untraced or not kept).
func (rs *rankState) opBegin(op int64) int32 {
	if !rs.r.traced || !rs.r.keepSpans(op) {
		return -1
	}
	id := int32(len(rs.spans))
	rs.spans = append(rs.spans, span{Name: "op", Rank: rs.rank, ID: id, Parent: -1, Op: op,
		HostStartNs: rs.r.since(), VirtStartPs: int64(rs.m.Clock().Now())})
	return id
}

func (rs *rankState) opEnd(id int32) {
	if id < 0 {
		return
	}
	s := &rs.spans[id]
	s.HostEndNs = rs.r.since()
	s.VirtEndPs = int64(rs.m.Clock().Now())
}

func (rs *rankState) now() vtime.Time { return rs.m.Clock().Now() }

// finish checks and condenses the round once core.Run has returned,
// then drops the world (JVMs, procs, trace) so later rounds start
// from the same heap.
func (r *round) finish() {
	for i := range r.post {
		if r.done[i] == 0 || r.done[i] < r.post[i] {
			r.fail("op %d never completed (post %d, done %d)", i, r.post[i], r.done[i])
		}
	}
	// The digest fingerprints the round's virtual outcome: every op's
	// virtual latency in op order, then every rank's final clock. Any
	// two rounds of one seed must agree, whatever the engine width or
	// tracing.
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := range r.post {
		put(int64(r.done[i] - r.post[i]))
	}
	for _, rs := range r.ranks {
		if rs == nil {
			continue
		}
		put(int64(rs.m.Clock().Now()))
		s := rs.m.Proc().Stats()
		r.proc.MsgsSent += s.MsgsSent
		r.proc.BytesSent += s.BytesSent
		r.proc.RndvSends += s.RndvSends
		r.proc.Retransmits += s.Retransmits
		r.proc.AcksSent += s.AcksSent
		r.proc.FaultDrops += s.FaultDrops
		r.flow.demoted += rs.flow1.DemotedSends - rs.flow0.DemotedSends
		r.flow.parks += rs.flow1.RNRParks - rs.flow0.RNRParks
		rs.m = nil
	}
	r.digest = h.Sum64()
	if r.traced {
		for _, p := range trace.PhasesByRank(r.rec.Events()) {
			r.phases.CopyIn += p.CopyIn
			r.phases.Wire += p.Wire
			r.phases.CopyOut += p.CopyOut
			r.phases.Ack += p.Ack
			r.phases.Retransmit += p.Retransmit
			r.phases.Flow += p.Flow
			r.phases.GC += p.GC
			r.phases.Coll += p.Coll
		}
		// The trace figures must cover the whole round.
		if n := r.rec.Dropped(); n > 0 && r.err == nil {
			r.err = fmt.Errorf("trace recorder dropped %d events", n)
		}
		// The registry export is deterministic per seed: traced rounds
		// must agree on it byte for byte.
		var buf bytes.Buffer
		if err := r.reg.WriteJSON(&buf); err != nil && r.err == nil {
			r.err = err
		}
		rh := fnv.New64a()
		rh.Write(buf.Bytes())
		r.regDigest = rh.Sum64()
		r.rec, r.reg = nil, nil
	}
}

// steadyLatUs returns the steady ops' virtual latencies in µs, sorted.
func (r *round) steadyLatUs() []float64 {
	out := make([]float64, 0, r.steady)
	for i := r.warm; i < r.warm+r.steady; i++ {
		out = append(out, r.done[i].Sub(r.post[i]).Micros())
	}
	return sortedCopy(out)
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func atomicMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
