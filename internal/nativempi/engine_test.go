package nativempi

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mv2j/internal/cluster"
	"mv2j/internal/difftest"
	"mv2j/internal/fabric"
	"mv2j/internal/vtime"
)

// The phase-stepped engine's contract: for ANY worker-pool width, the
// virtual artifacts — receive payloads, final clocks, trace JSONL,
// metrics JSON — are byte-identical to serial (workers=1) execution.
// Host-side counters (mailbox batches, phase shapes) may differ; the
// deterministic surface may not, by a single byte.

// runCrashWorkload is the FT differential workload: iterated validated
// allreduce with revoke/shrink/agree recovery after rank 1's scheduled
// death. Artifacts: each survivor's final sum + shrunken comm size,
// final clocks, trace, metrics.
func runCrashWorkload(w *World) (difftest.Artifacts, error) {
	return runCapture(w, func(p *Proc, a *difftest.Artifacts) error {
		c, last, err := ftAllreduceSum(p, 6)
		if err != nil {
			return err
		}
		var out [16]byte
		binary.LittleEndian.PutUint64(out[:8], last)
		binary.LittleEndian.PutUint64(out[8:], uint64(c.Size()))
		a.Recvs[p.Rank()] = out[:]
		return nil
	})
}

// TestEngineDifferential is the tentpole guarantee: parallel execution
// (workers 2 and 8) is byte-identical to serial (workers 1) on every
// virtual artifact, on both host datapaths, across np ∈ {2, 8, 64} and
// clean / loss-fault / crash-fault fabrics. Crash mode kills rank 1:
// its artifact slot stays empty in every run, which the comparison
// still covers.
func TestEngineDifferential(t *testing.T) {
	for _, sh := range []struct{ nodes, ppn int }{{1, 2}, {2, 4}, {8, 8}} {
		for _, mode := range []string{"clean", "loss", "crash"} {
			row := modeRow(sh.nodes, sh.ppn, mode)
			row.size = 64 << 10 // above the eager limits: rendezvous traffic too
			row.workers = []int{1, 2, 8}
			t.Run(fmt.Sprintf("np%d/%s", sh.nodes*sh.ppn, mode), row.check)
		}
	}
}

// TestSameTickMatchOrder is the regression for the latent
// drain-order-equals-delivery-order assumption: two ranks posting to a
// third at the SAME virtual tick must match in (tick, src, seq) order,
// whatever the goroutine interleaving. Before the phase-stepped merge,
// whichever sender's goroutine pushed first won the wildcard match;
// now the sorted flush delivers rank 1's packet first, every run.
func TestSameTickMatchOrder(t *testing.T) {
	for rep := 0; rep < 25; rep++ {
		topo := cluster.New(1, 3)
		w := NewWorld(topo, fabric.Default(topo), Profile{})
		var order [2]int
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			if p.Rank() == 0 {
				buf := make([]byte, 8)
				for i := 0; i < 2; i++ {
					st, err := c.Recv(buf, AnySource, 9)
					if err != nil {
						return err
					}
					order[i] = st.Source
				}
				return nil
			}
			// Ranks 1 and 2 send from identical virtual clocks over
			// identical intra-node channels: same arriveAt tick.
			return c.Send(pattern(8, byte(p.Rank())), 0, 9)
		})
		if err != nil {
			t.Fatal(err)
		}
		if order != [2]int{1, 2} {
			t.Fatalf("rep %d: same-tick wildcard matches arrived as %v, want [1 2]", rep, order)
		}
	}
}

// TestEngineDeadlockAbort pins the scheduler's liveness backstop: when
// every live rank is blocked and a barrier delivers nothing, the job
// aborts with a deadlock diagnosis instead of hanging the harness.
func TestEngineDeadlockAbort(t *testing.T) {
	topo := cluster.New(1, 2)
	w := NewWorld(topo, fabric.Default(topo), Profile{})
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(p *Proc) error {
			buf := make([]byte, 8)
			// Both ranks receive, nobody sends: a true deadlock.
			_, err := p.CommWorld().Recv(buf, (p.Rank()+1)%2, 1)
			return err
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("want deadlock abort, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlocked job was not aborted")
	}
}

// TestEngineWorkersKnob checks the scheduler reports activity and
// respects the width cap.
func TestEngineWorkersKnob(t *testing.T) {
	topo := cluster.New(2, 2)
	w := NewWorld(topo, fabric.Default(topo), Profile{})
	w.SetEngineWorkers(3)
	if _, err := runMixedWorkload(w, 4096); err != nil {
		t.Fatal(err)
	}
	es := w.EngineStats()
	if es.Handoffs == 0 {
		t.Error("engine reported zero token handoffs")
	}
	if es.Phases == 0 || es.Delivered == 0 {
		t.Errorf("engine reported no barrier deliveries: %+v", es)
	}
}

// FuzzPhaseMerge fuzzes the barrier merge over randomized same-tick
// event sets: however the emissions are permuted (i.e. whatever host
// interleaving produced them), sorting by vtime.PhaseKey yields ONE
// canonical order, and the key is total — no two distinct events tie.
func FuzzPhaseMerge(f *testing.F) {
	f.Add(uint64(1), 8, 3)
	f.Add(uint64(42), 64, 1)
	f.Add(uint64(7), 33, 5)
	f.Fuzz(func(t *testing.T, seed uint64, n, ticks int) {
		if n <= 0 || n > 512 || ticks <= 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		// Build packets the way ranks emit them: per-source monotone
		// seq, arrival ticks drawn from a small set to force ties.
		seqOf := map[int]uint64{}
		pkts := make([]*packet, n)
		for i := range pkts {
			src := rng.Intn(8)
			pkts[i] = &packet{
				src:      src,
				dst:      rng.Intn(8),
				arriveAt: vtime.Time(rng.Intn(ticks)),
				emitSeq:  seqOf[src],
			}
			seqOf[src]++
		}
		sortKeys := func(perm []int) []vtime.PhaseKey {
			shuffled := make([]*packet, n)
			for i, j := range perm {
				shuffled[i] = pkts[j]
			}
			sortPhase(shuffled)
			keys := make([]vtime.PhaseKey, n)
			for i, p := range shuffled {
				keys[i] = vtime.PhaseKey{At: p.arriveAt, Src: p.src, Seq: p.emitSeq}
			}
			return keys
		}
		ref := sortKeys(rng.Perm(n))
		for trial := 0; trial < 4; trial++ {
			got := sortKeys(rng.Perm(n))
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("trial %d: merge order diverged at %d: %v vs %v", trial, i, got[i], ref[i])
				}
			}
		}
		// Totality: distinct events never compare equal.
		for i := 1; i < n; i++ {
			if ref[i-1].Compare(ref[i]) == 0 && ref[i-1] != ref[i] {
				t.Fatalf("distinct events %v and %v compare equal", ref[i-1], ref[i])
			}
		}
	})
}

// sortPhase sorts packets with the engine's merge comparator (a thin
// indirection so the fuzzer exercises exactly the production key).
func sortPhase(pkts []*packet) {
	sortPackets(pkts)
}

// TestAbortFromOutsideRun pins that MPI_Abort still works when called
// from a goroutine that is not one of the engine's ranks (a watchdog,
// say): the engine is reached through the atomic pointer and every
// rank — blocked or spinning — unwinds. Rank 0 spins on Test (stays
// runnable, so the deadlock backstop never fires) while rank 1 blocks.
func TestAbortFromOutsideRun(t *testing.T) {
	topo := cluster.New(1, 2)
	w := NewWorld(topo, fabric.Default(topo), Profile{})
	started := make(chan struct{}, 1)
	go func() {
		<-started
		time.Sleep(10 * time.Millisecond)
		w.Abort(-1, "watchdog")
	}()
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		buf := make([]byte, 8)
		if p.Rank() == 0 {
			req, err := c.Irecv(buf, 1, 1) // never satisfied
			if err != nil {
				return err
			}
			started <- struct{}{}
			for {
				if _, ok, err := req.Test(); ok || err != nil {
					return err
				}
			}
		}
		_, err := c.Recv(buf, 0, 1) // never satisfied
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("want watchdog abort, got %v", err)
	}
}
