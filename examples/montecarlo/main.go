// Montecarlo: π estimation by Monte Carlo sampling, the textbook
// Reduce workload. Each rank draws deterministic pseudo-random points
// in the unit square, counts hits inside the quarter circle, and
// rank 0 reduces the hit counts. The example exercises direct
// ByteBuffers end-to-end (allocate, put, reduce, get).
//
//	go run ./examples/montecarlo
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	"mv2j/internal/core"
	"mv2j/internal/jvm"
	"mv2j/internal/profile"
)

const (
	samplesPerRank = 200000
	nodes          = 4
	ppn            = 4
)

func main() {
	pi, err := estimate(samplesPerRank)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pi ~= %.6f over %d samples on %d ranks (error %.2e)\n",
		pi, samplesPerRank*nodes*ppn, nodes*ppn, math.Abs(pi-math.Pi))
	if math.Abs(pi-math.Pi) > 0.01 {
		log.Fatalf("estimate too far from pi")
	}
}

// estimate draws samples points per rank and returns rank 0's reduced
// estimate of pi.
func estimate(samples int) (float64, error) {
	var mu sync.Mutex
	var pi float64

	cfg := core.Config{
		Nodes: nodes, PPN: ppn,
		Lib:    profile.MVAPICH2(),
		Flavor: core.MVAPICH2J,
	}
	err := core.Run(cfg, func(mpi *core.MPI) error {
		world := mpi.CommWorld()
		me := world.Rank()

		// Deterministic per-rank xorshift stream.
		state := uint64(me)*0x9E3779B97F4A7C15 + 0x123456789
		next := func() float64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return float64(state>>11) / float64(1<<53)
		}

		hits := int64(0)
		for i := 0; i < samples; i++ {
			x, y := next(), next()
			if x*x+y*y <= 1 {
				hits++
			}
		}

		// Reduce the counts through direct ByteBuffers.
		send := mpi.JVM().MustAllocateDirect(8)
		send.SetOrder(jvm.LittleEndian)
		send.PutIntKindAt(jvm.Long, 0, hits)
		var recv *jvm.ByteBuffer
		var recvAny any
		if me == 0 {
			recv = mpi.JVM().MustAllocateDirect(8)
			recv.SetOrder(jvm.LittleEndian)
			recvAny = recv
		}
		if err := world.Reduce(send, recvAny, 1, core.LONG, core.SUM, 0); err != nil {
			return err
		}
		if me == 0 {
			total := recv.IntKindAt(jvm.Long, 0)
			estimate := 4 * float64(total) / float64(samples*nodes*ppn)
			mu.Lock()
			pi = estimate
			mu.Unlock()
		}
		return nil
	})
	return pi, err
}
