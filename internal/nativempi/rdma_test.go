package nativempi

import (
	"bytes"
	"fmt"
	"testing"

	"mv2j/internal/cluster"
	"mv2j/internal/difftest"
	"mv2j/internal/fabric"
	"mv2j/internal/vtime"
)

// TestRDMAWarmColdCounters pins the cache economics end to end over
// the wire protocol: a repeated large transfer registers both ends
// exactly once (cold misses) and rides warm hits thereafter, with the
// placement datapath writing every payload and the counters surfacing
// in HostStats and the deterministic metrics JSON.
func TestRDMAWarmColdCounters(t *testing.T) {
	topo := cluster.New(2, 1)
	w := NewWorld(topo, fabric.Default(topo), rdmaProf)
	const size = 512 << 10
	a, err := runRepeatSend(w, size, 3)
	if err != nil {
		t.Fatal(err)
	}
	hs := w.HostStats()
	if hs.RDMA.Writes != 3 || hs.RDMA.BytesPlaced != 3*size {
		t.Errorf("placement: %d writes / %d bytes, want 3 / %d", hs.RDMA.Writes, hs.RDMA.BytesPlaced, 3*size)
	}
	// Iteration 1 registers the send buffer and the receive buffer
	// (cold misses); iterations 2 and 3 hit both.
	if hs.Reg.Misses != 2 {
		t.Errorf("cold misses %d, want 2", hs.Reg.Misses)
	}
	if hs.Reg.Hits != 4 {
		t.Errorf("warm hits %d, want 4", hs.Reg.Hits)
	}
	if hs.Reg.Evictions != 0 {
		t.Errorf("evictions %d, want 0", hs.Reg.Evictions)
	}
	// PinnedBytes sums across ranks (each end pins its buffer);
	// PinnedPeak is the per-rank high-water maximum.
	if hs.Reg.PinnedBytes != 2*size || hs.Reg.PinnedPeak != size {
		t.Errorf("pinned %d/%d, want %d/%d", hs.Reg.PinnedBytes, hs.Reg.PinnedPeak, 2*size, size)
	}
	for _, counter := range []string{"reg_hits", "reg_misses"} {
		if !bytes.Contains(a.Metrics, []byte(counter)) {
			t.Errorf("metrics JSON missing %q", counter)
		}
	}
}

// runRepeatSend drives iters sequential rank0→rank1 transfers of the
// SAME buffers, the warm-cache workload, capturing the artifacts.
func runRepeatSend(w *World, size, iters int) (difftest.Artifacts, error) {
	return runCapture(w, func(p *Proc, _ *difftest.Artifacts) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			buf := pattern(size, 0x5a)
			for k := 0; k < iters; k++ {
				if err := c.Send(buf, 1, 7); err != nil {
					return err
				}
			}
			return nil
		}
		rbuf := make([]byte, size)
		for k := 0; k < iters; k++ {
			if _, err := c.Recv(rbuf, 0, 7); err != nil {
				return err
			}
			if want := pattern(size, 0x5a); !bytes.Equal(rbuf, want) {
				return fmt.Errorf("iter %d: payload corrupted", k)
			}
		}
		return nil
	})
}

// TestRDMAAdaptivePromotion pins the adaptive protocol switch: a
// rendezvous message BELOW the RDMA threshold still rides the RDMA
// channel when its buffer is already covered by a live registration —
// the transfer is free to place — while a fresh sub-threshold buffer
// stays on the framed rendezvous path.
func TestRDMAAdaptivePromotion(t *testing.T) {
	topo := cluster.New(2, 1)
	w := NewWorld(topo, fabric.Default(topo), Profile{}) // default 256 KiB threshold
	const big = 512 << 10
	const small = 64 << 10 // rendezvous (above eager), below the threshold
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			buf := pattern(big, 1)
			if err := c.Send(buf, 1, 1); err != nil { // above threshold: registers buf
				return err
			}
			if err := c.Send(buf[:small], 1, 2); err != nil { // covered: promoted
				return err
			}
			return c.Send(pattern(small, 3), 1, 3) // fresh buffer: framed rendezvous
		}
		rbuf := make([]byte, big)
		for tag := 1; tag <= 3; tag++ {
			n := big
			if tag > 1 {
				n = small
			}
			if _, err := c.Recv(rbuf[:n], 0, tag); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := w.HostStats()
	if hs.RDMA.Writes != 2 {
		t.Errorf("remote writes %d, want 2 (threshold send + promoted warm send)", hs.RDMA.Writes)
	}
	if hs.Reg.Hits != 2 || hs.Reg.Misses != 2 {
		t.Errorf("reg counters h%d m%d, want h2 m2", hs.Reg.Hits, hs.Reg.Misses)
	}
}

// TestRMACrossover demonstrates the protocol trade the rebase of
// rma.go exists to expose, as exact virtual-time arithmetic: below the
// eager limit a fence-bounded put epoch LOSES to plain send/recv (the
// epoch synchronisation costs more than the two-sided handshake), and
// at RDMA sizes it WINS (the window's standing registration plus
// one-sided placement beat the per-message rendezvous round trip).
func TestRMACrossover(t *testing.T) {
	const iters = 8
	perTransfer := func(size int) (put, p2p vtime.Duration) {
		topo := cluster.New(2, 1)
		w := NewWorld(topo, fabric.Default(topo), Profile{})
		var putSpan, p2pSpan [2]vtime.Duration
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			me := p.Rank()
			src := pattern(size, 9)
			exposed := make([]byte, size)

			win, err := c.WinCreate(exposed)
			if err != nil {
				return err
			}
			// Warm-up epoch and exchange: first-touch registration
			// charges land here, outside the measured phases, so both
			// variants are measured with a warm cache.
			if me == 0 {
				if err := win.Put(src, 1, 0); err != nil {
					return err
				}
			}
			if err := win.Fence(); err != nil {
				return err
			}
			if me == 0 {
				if err := c.Send(src, 1, 99); err != nil {
					return err
				}
			} else if _, err := c.Recv(exposed, 0, 99); err != nil {
				return err
			}

			if err := c.Barrier(); err != nil {
				return err
			}
			start := p.Clock().Now()
			if me == 0 {
				for k := 0; k < iters; k++ {
					if err := win.Put(src, 1, 0); err != nil {
						return err
					}
				}
			}
			if err := win.Fence(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			putSpan[me] = p.Clock().Now().Sub(start)

			if err := c.Barrier(); err != nil {
				return err
			}
			start = p.Clock().Now()
			for k := 0; k < iters; k++ {
				if me == 0 {
					if err := c.Send(src, 1, 100+k); err != nil {
						return err
					}
				} else if _, err := c.Recv(exposed, 0, 100+k); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			p2pSpan[me] = p.Clock().Now().Sub(start)
			return win.Free()
		})
		if err != nil {
			t.Fatal(err)
		}
		putMax, p2pMax := putSpan[0], p2pSpan[0]
		if putSpan[1] > putMax {
			putMax = putSpan[1]
		}
		if p2pSpan[1] > p2pMax {
			p2pMax = p2pSpan[1]
		}
		return putMax / iters, p2pMax / iters
	}

	smallPut, smallP2P := perTransfer(1 << 10)   // eager on both paths
	largePut, largeP2P := perTransfer(512 << 10) // RDMA put vs rendezvous send
	if smallPut <= smallP2P {
		t.Errorf("1 KiB: put+fence %v <= send/recv %v; epoch sync should dominate", smallPut, smallP2P)
	}
	if largePut >= largeP2P {
		t.Errorf("512 KiB: put+fence %v >= send/recv %v; one-sided placement should win", largePut, largeP2P)
	}
	t.Logf("crossover: 1KiB put %v vs p2p %v; 512KiB put %v vs p2p %v",
		smallPut, smallP2P, largePut, largeP2P)
}
