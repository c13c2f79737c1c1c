package core

import (
	"math"
	"runtime"
	"testing"

	"mv2j/internal/jvm"
)

// TestP2PAllocsPerRequest pins the steady-state Go heap allocations of
// the point-to-point path on a 2-rank world with 32 B direct
// ByteBuffers: the blocking calls allocate nothing, and a non-blocking
// request allocates only the Request handle the caller holds — the
// native request under it is recycled when its Wait completes, and
// Waitany walks the handles without building a per-call slice. Each
// round is an exchange of a window of messages each way, so the
// in-flight set (and every pool behind it) stays bounded.
func TestP2PAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const (
		msg    = 32
		window = 4
		warm   = 64 // rounds run before counting, to fill the free lists
		rounds = 256
	)
	// A side moves one window of messages to or from peer.
	type side func(c *Comm, bufs []*jvm.ByteBuffer, reqs []*Request, peer int) error
	waitEach := func(post func(c *Comm, buf *jvm.ByteBuffer, peer int) (*Request, error)) side {
		return func(c *Comm, bufs []*jvm.ByteBuffer, _ []*Request, peer int) error {
			for _, b := range bufs {
				r, err := post(c, b, peer)
				if err != nil {
					return err
				}
				if _, err := r.Wait(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	isend := func(c *Comm, b *jvm.ByteBuffer, peer int) (*Request, error) {
		return c.Isend(b, msg, BYTE, peer, 0)
	}
	irecv := func(c *Comm, b *jvm.ByteBuffer, peer int) (*Request, error) {
		return c.Irecv(b, msg, BYTE, peer, 0)
	}
	cases := []struct {
		name       string
		send, recv side
		want       int // allocations per request
	}{
		{
			name: "blocking Send/Recv",
			send: func(c *Comm, bufs []*jvm.ByteBuffer, _ []*Request, peer int) error {
				for _, b := range bufs {
					if err := c.Send(b, msg, BYTE, peer, 0); err != nil {
						return err
					}
				}
				return nil
			},
			recv: func(c *Comm, bufs []*jvm.ByteBuffer, _ []*Request, peer int) error {
				for _, b := range bufs {
					if _, err := c.Recv(b, msg, BYTE, peer, 0); err != nil {
						return err
					}
				}
				return nil
			},
			want: 0,
		},
		{
			name: "Isend/Irecv+Wait",
			send: waitEach(isend),
			recv: waitEach(irecv),
			want: 1,
		},
		{
			name: "Isend+Wait/Irecv+Waitany",
			send: waitEach(isend),
			recv: func(c *Comm, bufs []*jvm.ByteBuffer, reqs []*Request, peer int) error {
				for k, b := range bufs {
					var err error
					if reqs[k], err = c.Irecv(b, msg, BYTE, peer, 0); err != nil {
						return err
					}
				}
				for range reqs {
					i, _, err := Waitany(reqs)
					if err != nil {
						return err
					}
					reqs[i] = nil
				}
				return nil
			},
			want: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got float64
			err := Run(mv2Config(2, 1), func(m *MPI) error {
				c := m.CommWorld()
				bufs := make([]*jvm.ByteBuffer, window)
				for k := range bufs {
					bufs[k] = m.JVM().MustAllocateDirect(msg)
				}
				reqs := make([]*Request, window)
				peer := 1 - c.Rank()
				first, second := tc.send, tc.recv
				if c.Rank() == 1 {
					first, second = tc.recv, tc.send
				}
				var ms runtime.MemStats
				var before uint64
				for i := 0; i < warm+rounds; i++ {
					if i == warm {
						if err := c.Barrier(); err != nil {
							return err
						}
						if c.Rank() == 0 {
							runtime.ReadMemStats(&ms)
							before = ms.Mallocs
						}
					}
					if err := first(c, bufs, reqs, peer); err != nil {
						return err
					}
					if err := second(c, bufs, reqs, peer); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					runtime.ReadMemStats(&ms)
					// Both ranks issue 2*window requests per round.
					got = float64(ms.Mallocs-before) / float64(rounds*4*window)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.3f heap allocations per request", got)
			if int(math.Round(got)) != tc.want {
				t.Fatalf("%.3f heap allocations per request, want %d", got, tc.want)
			}
		})
	}
}
