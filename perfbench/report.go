package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mv2j/internal/vtime"
)

// endToEndMetrics computes the untraced figures. Host figures pool the
// measured rounds; the virtual ones come from the reference round,
// which every measured round reproduces exactly.
func endToEndMetrics(ref *round, rounds []*round) (map[string]reading, error) {
	// Host figures are per-round medians, so a round disturbed by
	// another tenant of the machine moves none of them.
	var setup, wall, allocs, bytes []float64
	for _, r := range rounds {
		ops := float64(r.steady)
		setup = append(setup, float64(r.setupNs.Load())/1e9)
		wall = append(wall, float64(r.wallNs)/1e9)
		allocs = append(allocs, float64(r.ms1.Mallocs-r.ms0.Mallocs)/ops)
		bytes = append(bytes, float64(r.ms1.TotalAlloc-r.ms0.TotalAlloc)/ops)
	}
	n := fmt.Sprintf("median of %d rounds", len(rounds))
	perOp := fmt.Sprintf("median over %d rounds of %d steady ops", len(rounds), ref.steady)
	lat := ref.steadyLatUs()
	p50 := percentile(lat, 50)
	p99 := percentile(lat, 99)
	if !p99.ok() {
		return nil, fmt.Errorf("virt_lat_p99_us: %v breaks the percentile rule (%d samples beyond needed)", p99, minBeyond)
	}
	vwin := vtime.Duration(ref.vEnd.Load() - ref.vStart.Load())
	m := map[string]reading{
		"setup_s":            {Value: median(setup), Base: n},
		"wall_s":             {Value: median(wall), Base: n},
		"host_ops_per_s":     {Value: hostOpsPerSec(rounds), Base: perOp},
		"allocs_per_op":      {Value: median(allocs), Base: perOp},
		"alloc_bytes_per_op": {Value: median(bytes), Base: perOp},
		"peak_rss_mb":        {Value: peakRSSMiB(), Base: "VmHWM of the process"},
		"virt_lat_p50_us":    {Value: p50.Value, Base: p50.String()},
		"virt_lat_p99_us":    {Value: p99.Value, Base: p99.String()},
		"virt_ops_per_s": {Value: float64(ref.steady) / vwin.Seconds(),
			Base: fmt.Sprintf("%d steady ops / %s virtual window", ref.steady, vwin)},
	}
	return m, nil
}

// hostOpsPerSec is the median steady-window host throughput of rounds.
func hostOpsPerSec(rounds []*round) float64 {
	var rate []float64
	for _, r := range rounds {
		rate = append(rate, float64(r.steady)/r.steady1.Sub(r.steady0).Seconds())
	}
	return median(rate)
}

// layerMetrics computes the traced per-layer figures. Counts come from
// the first traced round (every traced round repeats them exactly);
// host timings pool all traced rounds.
func layerMetrics(plain, traced []*round) map[string]reading {
	t := traced[0]
	all := float64(t.warm + t.steady)
	steady := float64(t.steady)
	m := map[string]reading{}
	per := func(name string, v float64, base float64, baseName string) {
		m[name] = reading{Value: ratio{v, base}.Value(), Base: fmt.Sprintf("%s / %.0f %s", fmtNum(v), base, baseName)}
	}
	share := func(name string, num, den float64, what string) {
		r := ratio{num, den}
		m[name] = reading{Value: r.Value(), Base: r.String() + " " + what}
	}
	abs := func(name string, v float64, note string) { m[name] = reading{Value: v, Base: note} }

	// core: host time inside calls, from the benchmark's own spans.
	var calls [2][]float64
	var busy []float64
	for _, r := range traced {
		win := float64(r.steady1.Sub(r.steady0).Nanoseconds())
		var frac float64
		for _, rs := range r.ranks {
			for k := range rs.callNs {
				for _, ns := range rs.callNs[k] {
					calls[k] = append(calls[k], float64(ns))
				}
			}
			frac += float64(rs.busyNs) / win
		}
		busy = append(busy, frac/float64(len(r.ranks)))
	}
	abs("core.p2p_host_ns", median(calls[p2pCall]), fmt.Sprintf("median of %d calls", len(calls[p2pCall])))
	abs("core.coll_host_ns", median(calls[collCall]), fmt.Sprintf("median of %d calls", len(calls[collCall])))
	abs("core.host_busy_frac", median(busy), "in-core host time / steady window, mean over ranks")
	var setupAlloc []float64
	for _, r := range append(append([]*round(nil), plain...), traced...) {
		setupAlloc = append(setupAlloc, float64(r.setupAlloc)/(1<<20))
	}
	abs("jvm.setup_alloc_mb", median(setupAlloc), fmt.Sprintf("median of %d rounds", len(setupAlloc)))

	// jvm, jni, mpjbuf: steady-window deltas summed over ranks.
	var gcs, pause, heapBytes, jniCalls, jniBytes, crit, gets, hits, hiwater float64
	for _, rs := range t.ranks {
		gcs += float64(rs.jvm1.Collections - rs.jvm0.Collections)
		pause += (rs.jvm1.GCPause - rs.jvm0.GCPause).Micros()
		heapBytes += float64(rs.jvm1.HeapAllocBytes - rs.jvm0.HeapAllocBytes)
		jniCalls += float64(rs.jni1.Calls - rs.jni0.Calls)
		jniBytes += float64(rs.jni1.CopiedBytes - rs.jni0.CopiedBytes)
		crit += float64(rs.jni1.CriticalEnters - rs.jni0.CriticalEnters)
		gets += float64(rs.pool1.Gets - rs.pool0.Gets)
		hits += float64(rs.pool1.Hits - rs.pool0.Hits)
		hiwater += float64(rs.pool1.HighWaterBytes)
	}
	abs("jvm.gc_collections", gcs, "steady window, all ranks")
	abs("jvm.gc_pause_us", pause, "virtual, steady window, all ranks")
	per("jvm.heap_alloc_bytes_per_op", heapBytes, steady, "steady ops")
	per("jni.calls_per_op", jniCalls, steady, "steady ops")
	per("jni.copied_bytes_per_op", jniBytes, steady, "steady ops")
	per("jni.critical_enters_per_op", crit, steady, "steady ops")
	share("mpjbuf.hit_ratio", hits, gets, "hits/gets, steady window")
	abs("mpjbuf.high_water_bytes", hiwater, "sum over ranks")

	// nativempi: whole-round host stats and per-rank protocol counters.
	hs, ps := t.host, t.proc
	ops := "round ops"
	per("nativempi.copy.bytes_copied_per_op", float64(hs.Copy.BytesCopied), all, ops)
	share("nativempi.copy.elided_ratio", float64(hs.Copy.BytesElided),
		float64(hs.Copy.BytesElided+hs.Copy.BytesCopied), "elided/(copied+elided) bytes")
	share("nativempi.reg.hit_ratio", float64(hs.Reg.Hits), float64(hs.Reg.Hits+hs.Reg.Misses), "hits/lookups")
	abs("nativempi.reg.pinned_peak_bytes", float64(hs.Reg.PinnedPeak), "whole round")
	per("nativempi.rdma.bytes_placed_per_op", float64(hs.RDMA.BytesPlaced), all, ops)
	share("nativempi.match.probes_per_lookup", float64(hs.Match.PostedProbes+hs.Match.UnexpProbes),
		float64(hs.Match.PostedLookups+hs.Match.UnexpLookups), "probes/lookups")
	abs("nativempi.match.unexp_depth_hiwater", float64(hs.Match.UnexpDepthHiWater), "packets")
	per("nativempi.mailbox.pushes_per_op", float64(hs.Mailbox.Pushes), all, ops)
	share("nativempi.mailbox.batch_mean", float64(hs.Mailbox.Batched), float64(hs.Mailbox.Swaps), "packets/swaps")
	abs("nativempi.mailbox.max_tail", float64(hs.Mailbox.MaxTail), "packets")
	per("nativempi.threads.handoffs_per_op", float64(hs.Threads.Handoffs), all, ops)
	abs("nativempi.threads.arb_wait_us", vtime.Duration(hs.Threads.ArbWaitPs).Micros(), "virtual, whole round")
	per("nativempi.flow.rnr_parks_per_op", float64(hs.Flow.RNRParks), all, ops)
	abs("nativempi.flow.rnr_wait_us", vtime.Duration(hs.Flow.RNRWaitPs).Micros(), "virtual, whole round")
	share("nativempi.flow.demoted_ratio", float64(hs.Flow.DemotedSends), float64(ps.MsgsSent), "demoted/sent messages")
	per("nativempi.engine.phases_per_op", float64(hs.Engine.Phases), all, ops)
	share("nativempi.engine.delivered_per_phase", float64(hs.Engine.Delivered), float64(hs.Engine.Phases), "packets/phases")
	per("nativempi.engine.yields_per_op", float64(hs.Engine.Yields), all, ops)
	share("nativempi.arena.hit_ratio", float64(hs.Arena.Hits), float64(hs.Arena.Borrows), "hits/borrows")
	per("nativempi.proc.bytes_sent_per_op", float64(ps.BytesSent), all, ops)
	share("nativempi.proc.rndv_ratio", float64(ps.RndvSends), float64(ps.MsgsSent), "rendezvous/sent messages")
	per("nativempi.proc.retransmits_per_op", float64(ps.Retransmits), all, ops)
	per("nativempi.proc.acks_per_op", float64(ps.AcksSent), all, ops)
	per("faults.drops_per_op", float64(ps.FaultDrops), all, ops)

	// trace: virtual phase totals over all ranks, per op.
	ph := t.phases
	note := fmt.Sprintf("virtual us summed over ranks / %.0f round ops", all)
	for _, x := range []struct {
		name string
		d    vtime.Duration
	}{{"copyin", ph.CopyIn}, {"wire", ph.Wire}, {"copyout", ph.CopyOut}, {"ack", ph.Ack},
		{"retx", ph.Retransmit}, {"flow", ph.Flow}, {"gc", ph.GC}, {"coll", ph.Coll}} {
		m["trace."+x.name+"_us"] = reading{Value: x.d.Micros() / all, Base: note}
	}
	tr, un := hostOpsPerSec(traced), hostOpsPerSec(plain)
	share("trace.overhead_frac", tr, un, "traced/untraced host ops/s")
	return m
}

// writeSpans writes the round's spans as JSON lines, rank by rank.
func writeSpans(path string, r *round) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rs := range r.ranks {
		for _, s := range rs.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
