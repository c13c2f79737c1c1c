package nativempi

import (
	"fmt"

	"mv2j/internal/jvm"
)

// Scan computes the inclusive prefix reduction: rank r's recvBuf holds
// op(sendBuf_0, ..., sendBuf_r). The classic log-step algorithm: at
// step k, rank r receives from r-2^k (accumulating) and sends its
// current prefix to r+2^k.
func (c *Comm) Scan(sendBuf, recvBuf []byte, kind jvm.Kind, op Op) error {
	defer c.collSpan("scan", len(sendBuf))()
	n := len(sendBuf)
	if len(recvBuf) != n {
		return fmt.Errorf("%w: scan recv buffer %d != send %d", ErrCount, len(recvBuf), n)
	}
	p := c.Size()
	tag := c.collTag()
	copy(recvBuf, sendBuf)
	if p == 1 {
		return nil
	}
	// partial holds the reduction of my block with everything received
	// from lower ranks so far; at each step I forward the partial (the
	// prefix of the contiguous range I currently represent).
	scratch := c.borrowScratch(n)
	defer c.returnScratch(scratch)
	for mask := 1; mask < p; mask <<= 1 {
		dst := c.myRank + mask
		src := c.myRank - mask
		// Both directions may be active in one step; use non-blocking
		// posts to avoid rendezvous deadlock at large sizes.
		var rreq, sreq *Request
		if src >= 0 {
			rreq = c.cirecv(scratch, src, tag)
		}
		if dst < p {
			sreq = c.cisend(recvBuf, dst, tag)
		}
		if sreq != nil {
			if _, err := sreq.waitRelease(); err != nil {
				return err
			}
		}
		if rreq != nil {
			if _, err := rreq.waitRelease(); err != nil {
				return err
			}
			// Incoming partial covers lower ranks: combine on the left.
			if err := reduceInto(recvBuf, scratch, kind, op); err != nil {
				return err
			}
			c.chargeCompute(n)
		}
	}
	return nil
}

// Exscan computes the exclusive prefix reduction: rank 0's recvBuf is
// left untouched (MPI leaves it undefined; we preserve its contents),
// and rank r>0 receives op(sendBuf_0, ..., sendBuf_{r-1}).
func (c *Comm) Exscan(sendBuf, recvBuf []byte, kind jvm.Kind, op Op) error {
	defer c.collSpan("exscan", len(sendBuf))()
	n := len(sendBuf)
	if len(recvBuf) != n {
		return fmt.Errorf("%w: exscan recv buffer %d != send %d", ErrCount, len(recvBuf), n)
	}
	p := c.Size()
	if p == 1 {
		return nil
	}
	tag := c.collTag()
	// partial accumulates my own contribution for forwarding; recvBuf
	// accumulates everything strictly before me.
	partial := c.borrowScratch(n)
	defer c.returnScratch(partial)
	copy(partial, sendBuf)
	scratch := c.borrowScratch(n)
	defer c.returnScratch(scratch)
	seeded := false
	for mask := 1; mask < p; mask <<= 1 {
		dst := c.myRank + mask
		src := c.myRank - mask
		var rreq, sreq *Request
		if src >= 0 {
			rreq = c.cirecv(scratch, src, tag)
		}
		if dst < p {
			sreq = c.cisend(partial, dst, tag)
		}
		if sreq != nil {
			if _, err := sreq.waitRelease(); err != nil {
				return err
			}
		}
		if rreq != nil {
			if _, err := rreq.waitRelease(); err != nil {
				return err
			}
			if seeded {
				if err := reduceInto(recvBuf, scratch, kind, op); err != nil {
					return err
				}
			} else {
				copy(recvBuf, scratch)
				seeded = true
			}
			if err := reduceInto(partial, scratch, kind, op); err != nil {
				return err
			}
			c.chargeCompute(2 * n)
		}
	}
	return nil
}

// ReduceScatter reduces size·p elements across all ranks and scatters
// the result: rank r receives the reduced block r. counts are byte
// lengths per rank (uniform blocks use the same value everywhere).
// Implemented as the ring reduce-scatter for uniform blocks, and the
// reduce-then-scatterv composition otherwise.
func (c *Comm) ReduceScatter(sendBuf, recvBuf []byte, counts []int, kind jvm.Kind, op Op) error {
	defer c.collSpan("reduce_scatter", len(sendBuf))()
	p := c.Size()
	if len(counts) != p {
		return fmt.Errorf("%w: reduce_scatter counts length %d != %d", ErrCount, len(counts), p)
	}
	total := 0
	uniform := true
	for r := 0; r < p; r++ {
		if counts[r] < 0 {
			return fmt.Errorf("%w: negative count for rank %d", ErrCount, r)
		}
		if counts[r] != counts[0] {
			uniform = false
		}
		total += counts[r]
	}
	if len(sendBuf) != total {
		return fmt.Errorf("%w: reduce_scatter send buffer %d != sum(counts) %d", ErrCount, len(sendBuf), total)
	}
	if len(recvBuf) != counts[c.myRank] {
		return fmt.Errorf("%w: reduce_scatter recv buffer %d != counts[me] %d", ErrCount, len(recvBuf), counts[c.myRank])
	}
	esz := kind.Size()
	if total%esz != 0 {
		return fmt.Errorf("%w: %d bytes not a multiple of %v", ErrCount, total, kind)
	}

	if uniform && p > 1 && counts[0] > 0 && counts[0]%esz == 0 {
		// Ring reduce-scatter: p-1 steps, each moving one block.
		n := counts[0]
		tag := c.collTag()
		work := c.borrowScratch(total)
		defer c.returnScratch(work)
		copy(work, sendBuf)
		scratch := c.borrowScratch(n)
		defer c.returnScratch(scratch)
		right := (c.myRank + 1) % p
		left := (c.myRank - 1 + p) % p
		for s := 0; s < p-1; s++ {
			sendBlk := (c.myRank - s + p) % p
			recvBlk := (c.myRank - s - 1 + p) % p
			if err := c.csendrecv(work[sendBlk*n:(sendBlk+1)*n], right, scratch, left, tag); err != nil {
				return err
			}
			if err := reduceInto(work[recvBlk*n:(recvBlk+1)*n], scratch, kind, op); err != nil {
				return err
			}
			c.chargeCompute(n)
		}
		mine := (c.myRank + 1) % p
		owned := c.borrowScratch(n)
		defer c.returnScratch(owned)
		copy(owned, work[mine*n:(mine+1)*n])
		// The ring leaves rank r owning block (r+1)%p; block r sits at
		// rank r-1, so one neighbour exchange (send right, receive
		// left) restores rank-aligned ownership.
		tag2 := c.collTag()
		if err := c.csendrecv(owned, right, recvBuf, left, tag2); err != nil {
			return err
		}
		return nil
	}

	// General case: reduce everything to rank 0, scatter the blocks.
	var full []byte
	if c.myRank == 0 {
		full = c.borrowScratch(total)
		defer c.returnScratch(full)
	}
	if err := c.Reduce(sendBuf, full, kind, op, 0); err != nil {
		return err
	}
	displs := make([]int, p)
	off := 0
	for r := 0; r < p; r++ {
		displs[r] = off
		off += counts[r]
	}
	return c.Scatterv(full, counts, displs, recvBuf, 0)
}
