package nativempi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// panicOf runs fn and returns what it panicked with (nil if nothing).
func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// Release accepts only a consumed request, and only once: a second
// release would park one struct twice and hand it to two later owners.
func TestRequestReleaseMisusePanics(t *testing.T) {
	w := testWorld(1, 2)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			return c.Send(pattern(16, 1), 0, 4)
		}
		req, err := c.Irecv(make([]byte, 16), 1, 4)
		if err != nil {
			return err
		}
		if panicOf(req.Release) == nil {
			return errors.New("releasing an unconsumed request did not panic")
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		req.Release()
		if got := panicOf(req.Release); got == nil {
			return errors.New("double release did not panic")
		}
		if n := len(p.reqFree); n != 1 || p.reqFree[0] != req {
			return fmt.Errorf("free list holds %d requests after a double release, want just the released one", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A rendezvous request that a revoke fails can be released and its
// struct reused at once: request ids are never reused, so the peer's
// late CTS (the sender revoked) or DATA (the receiver revoked) for the
// old id is dropped and counted, and never completes the struct's next
// request. Per-source mailbox FIFO orders every step, and the revoker
// does not poll between the revoke and the reuse, so the late packet is
// always dispatched after the struct has its next life.
func TestFTRevokedRendezvousReleaseReuse(t *testing.T) {
	const big = 1 << 20 // rendezvous at every eager limit
	for _, tc := range []struct {
		name    string
		revoker int // 0 = the sender (late CTS), 1 = the receiver (late DATA)
	}{{"sender revokes, late CTS", 0}, {"receiver revokes, late DATA", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			w := ftWorld(t, 1, 2, "")
			err := runGuarded(t, w, func(p *Proc) error {
				world := p.CommWorld()
				d, err := world.Dup()
				if err != nil {
					return err
				}
				buf := make([]byte, big)
				var old *Request
				if p.Rank() == 1 {
					if old, err = d.Irecv(buf, 0, 5); err != nil {
						return err
					}
					// Tell the sender the receive is posted, so its RTS
					// is matched and answered with a CTS.
					if err := world.Send(nil, 0, 1); err != nil {
						return err
					}
				} else {
					if _, err := world.Recv(nil, 1, 1); err != nil {
						return err
					}
					if old, err = d.Isend(pattern(big, 3), 1, 5); err != nil {
						return err
					}
				}

				if p.Rank() != tc.revoker {
					// The revoker's peer: a sender's CTS went out before
					// the revoke arrived, so it completes; a receiver's
					// pending rendezvous fails.
					_, err := old.Wait()
					if p.Rank() == 0 && err != nil || p.Rank() == 1 && !errors.Is(err, ErrRevoked) {
						return fmt.Errorf("revoker's peer, rank %d: err = %v", p.Rank(), err)
					}
					old.Release()
					if p.Rank() == 0 {
						return world.Send(pattern(big, 9), 1, 2)
					}
					_, err = world.Recv(buf, 0, 2)
					return err
				}

				if p.Rank() == 1 {
					for len(p.recvPending) == 0 {
						p.progressOnce() // answer the RTS with a CTS
					}
				}
				if err := d.Revoke(); err != nil {
					return err
				}
				// The revoke failed the request in place. Consume it
				// without Wait: Wait's poll could dispatch the late
				// packet before the struct is reused.
				if !old.done || !errors.Is(old.err, ErrRevoked) {
					return fmt.Errorf("revoked rendezvous: done = %v, err = %v", old.done, old.err)
				}
				old.consume()
				oldID := old.id
				old.Release()
				var next *Request
				if p.Rank() == 0 {
					next, err = world.Isend(pattern(big, 9), 1, 2)
				} else {
					next, err = world.Irecv(buf, 0, 2)
				}
				if err != nil {
					return err
				}
				if next != old {
					return errors.New("the next request did not reuse the released struct")
				}
				if next.id == oldID && oldID != 0 { // receives carry no id
					return fmt.Errorf("request id %d reused", oldID)
				}
				for p.Stats().RevokedDrops == 0 {
					p.progressOnce()
				}
				if next.Done() {
					return errors.New("a late packet for the revoked request completed its successor")
				}
				if _, err := next.Wait(); err != nil {
					return err
				}
				if p.Rank() == 1 && !bytes.Equal(buf, pattern(big, 9)) {
					return errors.New("the successor receive landed the wrong payload")
				}
				if got := p.Stats().RevokedDrops; got != 1 {
					return fmt.Errorf("RevokedDrops = %d, want 1", got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// When Sendrecv's send fails, its receive stays posted with the engine:
// the send request is recycled, the receive must not be.
func TestSendrecvSendErrorKeepsReceiveOffFreeList(t *testing.T) {
	w := ftWorld(t, 1, 3, "crash=2:op1")
	err := runGuarded(t, w, func(p *Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 2:
			return c.Send(make([]byte, 8), 0, 7) // dies on entry
		case 1:
			return nil
		}
		if _, err := c.Recv(make([]byte, 8), 2, 7); !errors.Is(err, ErrProcFailed) {
			return fmt.Errorf("recv from crashed rank: err = %v, want ErrProcFailed", err)
		}
		// The rendezvous send toward the confirmed-dead rank fails at
		// entry; the receive from live rank 1 is still pending.
		_, err := c.Sendrecv(make([]byte, 1<<20), 2, 3, make([]byte, 8), 1, 3)
		if !errors.Is(err, ErrProcFailed) {
			return fmt.Errorf("Sendrecv: err = %v, want ErrProcFailed", err)
		}
		var pending []*Request
		for _, f := range p.posted.buckets {
			for _, e := range f.q[f.head:] {
				pending = append(pending, e.req)
			}
		}
		if len(pending) != 1 {
			return fmt.Errorf("%d receives posted after Sendrecv, want 1", len(pending))
		}
		if len(p.reqFree) == 0 {
			return errors.New("the failed send was not recycled")
		}
		for _, r := range p.reqFree {
			if r == pending[0] {
				return errors.New("the pending receive is on the free list")
			}
			if !r.waited {
				return errors.New("an unconsumed request is on the free list")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
