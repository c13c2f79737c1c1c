package nativempi

// Request-set completion operations (MPI_Waitany / MPI_Testall /
// MPI_Waitsome). Completed or nil entries follow the MPI convention of
// being skipped (inactive requests).

// Waitany blocks until at least one of the requests completes and
// returns its index and status. Nil or already-completed requests
// count as immediately ready (MPI returns any such index first). With
// no active requests it returns index -1, as MPI_UNDEFINED.
func Waitany(reqs []*Request) (int, Status, error) {
	return WaitanyFunc(len(reqs), func(i int) *Request { return reqs[i] })
}

// WaitanyFunc is Waitany over n requests that at reads by index, so a
// caller holding its requests inside wrapper handles (the bindings
// layer) need not build a slice of them per call. at may return nil
// for an inactive entry.
func WaitanyFunc(n int, at func(i int) *Request) (int, Status, error) {
	var p *Proc
	for i := 0; i < n; i++ {
		if r := at(i); r != nil && !r.waited {
			p = r.p
			break
		}
	}
	if p == nil {
		return -1, Status{}, nil
	}
	p.poll()
	for {
		for i := 0; i < n; i++ {
			r := at(i)
			if r == nil || r.waited {
				continue // inactive: consumed by an earlier Wait
			}
			if r.done {
				st, err := r.Wait() // completes bookkeeping; no blocking
				return i, st, err
			}
		}
		p.progressOnce()
	}
}

// Testall reports whether every request has completed; when it returns
// true all requests are finalized.
func Testall(reqs []*Request) (bool, error) {
	var p *Proc
	for _, r := range reqs {
		if r != nil {
			p = r.p
			break
		}
	}
	if p == nil {
		return true, nil
	}
	p.poll()
	for _, r := range reqs {
		if r != nil && !r.done {
			p.engYield() // Testall spins must cooperate with the phase engine
			return false, nil
		}
	}
	return true, Waitall(reqs)
}

// Waitsome blocks until at least one request completes, then finalizes
// and returns the indices of ALL currently-complete requests. Returns
// nil indices when no active requests remain (MPI_UNDEFINED).
func Waitsome(reqs []*Request) ([]int, error) {
	var p *Proc
	for _, r := range reqs {
		if r != nil && !r.completedAndWaited() {
			p = r.p
			break
		}
	}
	if p == nil {
		return nil, nil
	}
	p.poll()
	var idx []int
	var first error
	collect := func() {
		for i, r := range reqs {
			if r == nil || r.waitedFlag() {
				continue
			}
			if r.done {
				if _, err := r.Wait(); err != nil && first == nil {
					first = err
				}
				idx = append(idx, i)
			}
		}
	}
	collect()
	for len(idx) == 0 {
		p.progressOnce()
		collect()
	}
	return idx, first
}

// completedAndWaited reports whether the request has been fully
// consumed by a prior Wait.
func (r *Request) completedAndWaited() bool { return r.waited }

// waitedFlag exposes the consumed state for Waitsome's bookkeeping.
func (r *Request) waitedFlag() bool { return r.waited }
