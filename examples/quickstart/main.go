// Quickstart: the smallest complete MVAPICH2-J program. It launches a
// simulated 2-node job, exchanges greetings over point-to-point calls,
// then runs a broadcast and a reduction — the bindings' Java-style API
// end to end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"mv2j/internal/core"
	"mv2j/internal/jvm"
	"mv2j/internal/profile"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the job, printing each rank's results to out.
func run(out io.Writer) error {
	var mu sync.Mutex // serialises printing across rank goroutines

	cfg := core.Config{
		Nodes:  2,
		PPN:    2,
		Lib:    profile.MVAPICH2(),
		Flavor: core.MVAPICH2J,
	}

	return core.Run(cfg, func(mpi *core.MPI) error {
		world := mpi.CommWorld()
		rank, size := world.Rank(), world.Size()

		// Point-to-point: everyone sends a token to rank 0.
		if rank == 0 {
			for i := 1; i < size; i++ {
				msg := mpi.JVM().MustArray(jvm.Int, 1)
				st, err := world.Recv(msg, 1, core.INT, core.AnySource, 0)
				if err != nil {
					return err
				}
				mu.Lock()
				fmt.Fprintf(out, "rank 0 got token %d from rank %d\n", msg.Int(0), st.Source)
				mu.Unlock()
			}
		} else {
			msg := mpi.JVM().MustArray(jvm.Int, 1)
			msg.SetInt(0, int64(rank*rank))
			if err := world.Send(msg, 1, core.INT, 0, 0); err != nil {
				return err
			}
		}

		// Broadcast a direct ByteBuffer from rank 0.
		buf := mpi.JVM().MustAllocateDirect(8)
		if rank == 0 {
			buf.PutFloatKindAt(jvm.Double, 0, 3.14159)
		}
		if err := world.Bcast(buf, 1, core.DOUBLE, 0); err != nil {
			return err
		}

		// Allreduce: sum of ranks.
		send := mpi.JVM().MustArray(jvm.Long, 1)
		recv := mpi.JVM().MustArray(jvm.Long, 1)
		send.SetInt(0, int64(rank))
		if err := world.Allreduce(send, recv, 1, core.LONG, core.SUM); err != nil {
			return err
		}

		mu.Lock()
		fmt.Fprintf(out, "rank %d/%d: bcast=%.5f, sum(ranks)=%d, virtual time=%v\n",
			rank, size, buf.FloatKindAt(jvm.Double, 0), recv.Int(0), mpi.Clock().Now())
		mu.Unlock()
		return nil
	})
}
