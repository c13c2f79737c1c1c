package nativempi

import (
	"bytes"
	"fmt"
	"testing"

	"mv2j/internal/cluster"
	"mv2j/internal/difftest"
	"mv2j/internal/fabric"
	"mv2j/internal/faults"
	"mv2j/internal/jvm"
	"mv2j/internal/metrics"
	"mv2j/internal/trace"
)

// The datapath differential: a world runs either the direct host
// datapath (borrowed rendezvous payloads, RDMA placement writes,
// gather-direct iovecs) or the framed wire copy that fault plans and
// fault tolerance force (World.direct). The choice may move host
// counters only; every virtual artifact must be byte-identical.

// runCapture drives body on every rank of w under difftest.Capture,
// recording each rank's final clock once body returns.
func runCapture(w *World, body func(p *Proc, a *difftest.Artifacts) error) (difftest.Artifacts, error) {
	return difftest.Capture(w.Size(), func(rec *trace.Recorder, met *metrics.Registry, a *difftest.Artifacts) error {
		w.SetRecorder(rec)
		w.SetMetrics(met)
		return w.Run(func(p *Proc) error {
			if err := body(p, a); err != nil {
				return err
			}
			a.Clocks[p.Rank()] = p.Clock().Now()
			return nil
		})
	})
}

// runMixedWorkload drives a mixed eager/rendezvous workload — a ring
// of nonblocking large sends, a small eager exchange with rank 0, and
// an allreduce — and captures every deterministic artifact.
func runMixedWorkload(w *World, size int) (difftest.Artifacts, error) {
	return runCapture(w, func(p *Proc, a *difftest.Artifacts) error {
		c := p.CommWorld()
		me, n := p.Rank(), w.Size()
		next := (me + 1) % n
		prev := (me - 1 + n) % n

		// Ring shift at the sweep size (rendezvous when size is above
		// the eager limit).
		big := pattern(size, byte(me+1))
		rbuf := make([]byte, size)
		sreq, err := c.Isend(big, next, 11)
		if err != nil {
			return err
		}
		rreq, err := c.Irecv(rbuf, prev, 11)
		if err != nil {
			return err
		}
		if _, err := sreq.Wait(); err != nil {
			return err
		}
		if _, err := rreq.Wait(); err != nil {
			return err
		}
		if want := pattern(size, byte(prev+1)); !bytes.Equal(rbuf, want) {
			return fmt.Errorf("rank %d: ring payload corrupted", me)
		}

		// Small eager exchange against rank 0 (n=2 degenerates to one
		// pair, still exercising unexpected-queue traffic).
		small := pattern(32, byte(0x40+me))
		sink := make([]byte, 32)
		if me == 0 {
			for r := 1; r < n; r++ {
				if _, err := c.Recv(sink, r, 13); err != nil {
					return err
				}
			}
			for r := 1; r < n; r++ {
				if err := c.Send(small, r, 14); err != nil {
					return err
				}
			}
		} else {
			if err := c.Send(small, 0, 13); err != nil {
				return err
			}
			if _, err := c.Recv(sink, 0, 14); err != nil {
				return err
			}
		}

		// One collective on top, so the indexed matcher sees the
		// collTag stream too.
		acc := make([]byte, 8)
		if err := c.Allreduce(pattern(8, byte(me)), acc, jvm.Long, OpSum); err != nil {
			return err
		}
		a.Recvs[me] = append(append([]byte(nil), rbuf...), acc...)
		return nil
	})
}

// datapathRow is one case of the datapath differential: a world shape,
// fabric and profile, the engine widths to run, and the host counters
// that must tell the direct leg from the framed one.
type datapathRow struct {
	nodes, ppn int
	size       int    // ring message size of runMixedWorkload
	loss       uint64 // seed of a 5% uniform drop plan; 0 = lossless
	crash      bool   // FT world, rank 1 dies at its third op (runCrashWorkload)
	prof       Profile
	workers    []int // engine widths; workers[0] runs the reference legs
	elides     bool  // direct leg must elide copies and copy fewer bytes
	places     bool  // direct leg must place >= np RDMA writes and register
}

func (row datapathRow) world(t *testing.T, framed bool, workers int) *World {
	t.Helper()
	topo := cluster.New(row.nodes, row.ppn)
	fab := fabric.Default(topo)
	if row.loss != 0 {
		fab.WithFaults(faults.Uniform(row.loss, 0.05))
	}
	if row.crash {
		plan, err := faults.ParseSpec("crash=1:op3")
		if err != nil {
			t.Fatal(err)
		}
		fab.WithFaults(plan)
	}
	w := NewWorld(topo, fab, row.prof)
	if row.crash {
		w.EnableFT()
	}
	if framed {
		w.ForceFramed()
	}
	w.SetEngineWorkers(workers)
	return w
}

func (row datapathRow) run(t *testing.T, framed bool, workers int) (difftest.Artifacts, HostStats) {
	t.Helper()
	w := row.world(t, framed, workers)
	var a difftest.Artifacts
	var err error
	if row.crash {
		a, err = runCrashWorkload(w)
	} else {
		a, err = runMixedWorkload(w, row.size)
	}
	if err != nil {
		t.Fatalf("framed=%v workers=%d: %v", framed, workers, err)
	}
	return a, w.HostStats()
}

// check runs both datapaths at every engine width of the row, requires
// every run's artifacts to match the direct reference at workers[0],
// and checks the host counters of the two reference-width legs.
func (row datapathRow) check(t *testing.T) {
	ref, direct := row.run(t, false, row.workers[0])
	var framed HostStats
	for i, workers := range row.workers {
		for _, fr := range []bool{false, true} {
			if i == 0 && !fr {
				continue
			}
			a, hs := row.run(t, fr, workers)
			difftest.AssertSame(t, fmt.Sprintf("framed=%v workers=%d vs direct workers=%d", fr, workers, row.workers[0]), a, ref)
			if i == 0 {
				framed = hs
			}
		}
	}
	row.checkHost(t, direct, framed)
}

// checkHost holds the host-side half of the contract: the framed leg
// never borrows or places, registration economics are protocol state
// and match across legs, a fault plan or FT leaves the direct leg
// framed too, and each row's expected savings show.
func (row datapathRow) checkHost(t *testing.T, direct, framed HostStats) {
	t.Helper()
	if framed.Copy.CopiesElided != 0 || framed.RDMA.Writes != 0 {
		t.Errorf("framed leg: %d copies elided, %d placements, want 0/0", framed.Copy.CopiesElided, framed.RDMA.Writes)
	}
	if direct.Reg != framed.Reg {
		t.Errorf("registration stats differ: direct %+v, framed %+v", direct.Reg, framed.Reg)
	}
	if (row.loss != 0 || row.crash) && (direct.Copy.CopiesElided != 0 || direct.RDMA.Writes != 0 || direct.Reg.Misses != 0) {
		t.Errorf("fault plan or FT active but direct datapath engaged (elided %d, writes %d, reg misses %d)",
			direct.Copy.CopiesElided, direct.RDMA.Writes, direct.Reg.Misses)
	}
	if row.elides {
		if direct.Copy.CopiesElided == 0 {
			t.Error("direct leg: no copies elided")
		}
		if direct.Copy.BytesCopied >= framed.Copy.BytesCopied {
			t.Errorf("direct leg copied %d bytes, framed %d — elision saved nothing",
				direct.Copy.BytesCopied, framed.Copy.BytesCopied)
		}
	}
	if row.places {
		if np := int64(row.nodes * row.ppn); direct.RDMA.Writes < np {
			t.Errorf("direct leg: %d remote writes, want >= %d", direct.RDMA.Writes, np)
		}
		if direct.Reg.Misses == 0 {
			t.Error("direct leg registered nothing")
		}
	}
}

// modeRow is a row on one of the three differential fabrics: clean,
// lossy (5% drop, seed 42) or crash (FT, rank 1 dies at its third op).
func modeRow(nodes, ppn int, mode string) datapathRow {
	row := datapathRow{nodes: nodes, ppn: ppn, crash: mode == "crash"}
	if mode == "loss" {
		row.loss = 42
	}
	return row
}

var dpShapes = []struct{ nodes, ppn int }{{1, 2}, {2, 2}, {2, 4}}

// rdmaProf lowers the RDMA threshold so the 128 KiB ring crosses it.
var rdmaProf = Profile{RDMAThreshold: 64 << 10}

// TestZeroCopyDifferential: below the RDMA threshold the direct leg
// borrows the sender's buffer for every rendezvous, at np∈{2,4,8}.
func TestZeroCopyDifferential(t *testing.T) {
	for _, sh := range dpShapes {
		row := datapathRow{nodes: sh.nodes, ppn: sh.ppn, size: 128 << 10, workers: []int{0}, elides: true}
		t.Run(fmt.Sprintf("np%d", sh.nodes*sh.ppn), row.check)
	}
}

// TestZeroCopyDisabledUnderFaults: a fault plan forces the framed
// datapath (retransmission needs a stable payload image) on both legs.
func TestZeroCopyDisabledUnderFaults(t *testing.T) {
	row := datapathRow{nodes: 2, ppn: 1, size: 96 << 10, loss: 5, workers: []int{0}}
	row.check(t)
}

// TestRDMADifferential: with the RDMA tier engaged the direct leg
// places every ring payload, across np∈{2,4,8}, engine widths {1,8}
// and clean / lossy / crash fabrics. Faulty fabrics disable the
// protocol entirely (no placements, no registrations).
func TestRDMADifferential(t *testing.T) {
	for _, sh := range dpShapes {
		for _, mode := range []string{"clean", "loss", "crash"} {
			row := modeRow(sh.nodes, sh.ppn, mode)
			row.size, row.prof, row.workers, row.places = 128<<10, rdmaProf, []int{1, 8}, mode == "clean"
			t.Run(fmt.Sprintf("np%d/%s", sh.nodes*sh.ppn, mode), row.check)
		}
	}
}

// TestRDMAFallbackUnderFaults: a fault plan forces the framed path
// even where the RDMA threshold would engage the protocol.
func TestRDMAFallbackUnderFaults(t *testing.T) {
	row := datapathRow{nodes: 2, ppn: 1, size: 96 << 10, loss: 5, prof: rdmaProf, workers: []int{0}}
	row.check(t)
}

// fuzzDatapath drives the datapath differential across the (message
// size × eager limit × RDMA threshold × cache capacity × fault plan)
// space on one world shape: whatever protocol tier each message lands
// in and however hard the registration cache churns, the direct and
// framed legs must agree on every virtual artifact.
func fuzzDatapath(f *testing.F, nodes, ppn int) {
	f.Fuzz(func(t *testing.T, rawSize, rawEager, rawThresh, rawCache uint32, faulty bool) {
		eager := int(rawEager % (64 << 10)) // 0 = fabric default
		row := datapathRow{
			nodes: nodes, ppn: ppn,
			size: int(rawSize%(256<<10)) + 1,
			prof: Profile{
				RDMAThreshold:   int(rawThresh%(320<<10)) - 1, // -1 disables, 0 = default
				RegCacheEntries: int(rawCache % 9),            // 0 = default capacity
				EagerInter:      eager,
				EagerIntra:      eager,
			},
			workers: []int{0},
		}
		if faulty {
			row.loss = uint64(rawSize) ^ uint64(rawThresh)<<32 | 1
		}
		row.check(t)
	})
}

// FuzzZeroCopyEquivalence is the datapath fuzz on the intra-node pair;
// its seeds keep the RDMA threshold at the default, so the direct leg
// borrows rather than places.
func FuzzZeroCopyEquivalence(f *testing.F) {
	f.Add(uint32(64), uint32(0), uint32(1), uint32(0), false)
	f.Add(uint32(16<<10), uint32(0), uint32(1), uint32(0), false)
	f.Add(uint32(128<<10), uint32(0), uint32(1), uint32(0), false)
	f.Add(uint32(8192), uint32(8192), uint32(1), uint32(0), false)
	f.Add(uint32(8193), uint32(8192), uint32(1), uint32(0), true)
	f.Add(uint32(200_000), uint32(1), uint32(1), uint32(0), true)
	f.Add(uint32(64), uint32(30), uint32(1), uint32(0), false) // unexpected-queue gauge
	fuzzDatapath(f, 1, 2)
}

// FuzzRDMAEquivalence is the datapath fuzz on the inter-node pair,
// seeded across RDMA thresholds and cache capacities.
func FuzzRDMAEquivalence(f *testing.F) {
	f.Add(uint32(64), uint32(0), uint32(0), uint32(0), false)
	f.Add(uint32(128<<10), uint32(0), uint32(64<<10), uint32(0), false)
	f.Add(uint32(200_000), uint32(8192), uint32(100), uint32(2), false)
	f.Add(uint32(96<<10), uint32(1), uint32(1), uint32(1), true)
	f.Add(uint32(256<<10), uint32(32<<10), uint32(300<<10), uint32(3), false)
	f.Add(uint32(98240), uint32(1), uint32(1), uint32(90), false) // unexpected-queue gauge
	fuzzDatapath(f, 2, 1)
}
