// Ftshrink: shrink-and-continue under a rank crash. Four ranks run an
// iterative allreduce; a fault plan kills rank 2 partway through. With
// Config.FT enabled the crash surfaces as an ErrProcFailed-class error
// instead of aborting: the survivors revoke the world communicator,
// shrink it, agree on the slowest member's iteration (the rollback
// point), and finish the loop on three ranks — the ULFM recipe
// (revoke / shrink / agree) on the simulated cluster.
//
//	go run ./examples/ftshrink
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"mv2j/internal/core"
	"mv2j/internal/faults"
	"mv2j/internal/jvm"
	"mv2j/internal/profile"
)

const iters = 8

// printer serialises the rank goroutines' lines onto one writer.
type printer struct {
	mu  sync.Mutex
	out io.Writer
}

func (p *printer) say(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.out, format+"\n", args...)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the job, printing the recovery story to out.
func run(out io.Writer) error {
	pr := &printer{out: out}
	plan, err := faults.ParseSpec("crash=2@60us")
	if err != nil {
		return err
	}
	cfg := core.Config{
		Nodes: 1, PPN: 4,
		Lib:    profile.MVAPICH2(),
		Flavor: core.MVAPICH2J,
		Faults: plan,
		FT:     true,
	}
	pr.say("running %d iterations on %d ranks; rank 2 crashes at 60us (virtual)\n",
		iters, cfg.Nodes*cfg.PPN)
	return core.Run(cfg, func(mpi *core.MPI) error { return body(mpi, pr.say) })
}

func body(mpi *core.MPI, say func(format string, args ...any)) error {
	world := mpi.CommWorld()
	me := world.Rank()
	comm := world
	send := mpi.JVM().MustArray(jvm.Long, 1)
	recv := mpi.JVM().MustArray(jvm.Long, 1)

	for iter := 0; iter < iters; {
		send.SetInt(0, int64(me+1))
		err := comm.Allreduce(send, recv, 1, core.LONG, core.SUM)
		if err == nil {
			if comm.Rank() == 0 {
				say("iter %d: sum of (rank+1) over %d ranks = %d (t=%v)",
					iter, comm.Size(), recv.Int(0), mpi.Clock().Now())
			}
			iter++
			continue
		}
		if !core.IsFailure(err) {
			return err
		}
		say("rank %d: iteration %d failed: %v", me, iter, err)

		// The ULFM recovery sequence. Revoke flushes every member out
		// of the broken collective; AgreeShrink agrees on the failed
		// set and hands back the survivors' communicator; the MIN
		// allreduce picks the common rollback iteration.
		for {
			if err := comm.Revoke(); err != nil {
				return err
			}
			_, nc, failed, aerr := comm.AgreeShrink(^uint64(0))
			if aerr != nil {
				if core.IsFailure(aerr) {
					continue
				}
				return aerr
			}
			send.SetInt(0, int64(iter))
			if merr := nc.Allreduce(send, recv, 1, core.LONG, core.MIN); merr != nil {
				if core.IsFailure(merr) {
					comm = nc
					continue
				}
				return merr
			}
			say("rank %d: shrank %d -> %d ranks (lost world ranks %v), rolling back to iteration %d",
				me, comm.Size(), nc.Size(), failed, recv.Int(0))
			comm, iter = nc, int(recv.Int(0))
			break
		}
	}
	if comm.Rank() == 0 {
		say("\ndone on %d survivors at t=%v; world reports failed ranks %v",
			comm.Size(), mpi.Clock().Now(), world.FailedMembers())
	}
	return nil
}
