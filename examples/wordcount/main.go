// Wordcount: the canonical Big Data kernel (the paper's introduction
// motivates Java HPC with Hadoop/Spark workloads), as a map-reduce
// over MPI. Each rank counts words in its shard of a synthetic corpus,
// partitions the partial counts by a word-hash, exchanges them with
// Alltoallv over Java byte arrays, and merges. The distributed tallies
// are verified against a serial count.
//
//	go run ./examples/wordcount
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"

	"mv2j/internal/core"
	"mv2j/internal/jvm"
	"mv2j/internal/profile"
)

const (
	nodes         = 2
	ppn           = 3
	linesPerShard = 400
)

var vocabulary = []string{
	"java", "bindings", "mpi", "buffer", "array", "latency", "bandwidth",
	"broadcast", "allreduce", "rendezvous", "eager", "direct", "heap",
	"garbage", "collector", "native", "jni", "pool", "frontera",
}

// shardLine deterministically generates line l of shard s.
func shardLine(s, l int) string {
	x := uint64(s*linesPerShard+l)*2862933555777941757 + 3037000493
	var words []string
	n := int(x%7) + 3
	for i := 0; i < n; i++ {
		x = x*2862933555777941757 + 3037000493
		words = append(words, vocabulary[int(x>>33)%len(vocabulary)])
	}
	return strings.Join(words, " ")
}

func countShard(s int) map[string]int {
	counts := map[string]int{}
	for l := 0; l < linesPerShard; l++ {
		for _, w := range strings.Fields(shardLine(s, l)) {
			counts[w]++
		}
	}
	return counts
}

// owner hashes a word onto a rank.
func owner(word string, p int) int {
	h := uint32(2166136261)
	for i := 0; i < len(word); i++ {
		h = (h ^ uint32(word[i])) * 16777619
	}
	return int(h % uint32(p))
}

// encodeCounts serialises word-count pairs as
// [len:1][word][count:4le] records.
func encodeCounts(m map[string]int) []byte {
	words := make([]string, 0, len(m))
	for w := range m {
		words = append(words, w)
	}
	sort.Strings(words)
	var out []byte
	for _, w := range words {
		out = append(out, byte(len(w)))
		out = append(out, w...)
		c := m[w]
		out = append(out, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	}
	return out
}

func decodeCounts(b []byte, into map[string]int) error {
	for len(b) > 0 {
		n := int(b[0])
		if len(b) < 1+n+4 {
			return fmt.Errorf("truncated record")
		}
		w := string(b[1 : 1+n])
		c := int(b[1+n]) | int(b[2+n])<<8 | int(b[3+n])<<16 | int(b[4+n])<<24
		into[w] += c
		b = b[5+n:]
	}
	return nil
}

func main() {
	got, err := distributed()
	if err != nil {
		log.Fatal(err)
	}
	want := serial()
	if len(got) != len(want) {
		log.Fatalf("vocabulary size mismatch: %d vs %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			log.Fatalf("count mismatch for %q: %d vs %d", w, got[w], c)
		}
	}
	top := make([]string, 0, len(got))
	for w := range got {
		top = append(top, w)
	}
	sort.Slice(top, func(i, j int) bool { return got[top[i]] > got[top[j]] })
	fmt.Println("top words (distributed == serial):")
	for _, w := range top[:5] {
		fmt.Printf("  %-12s %d\n", w, got[w])
	}
}

// serial counts the whole corpus in one process: the reference.
func serial() map[string]int {
	want := map[string]int{}
	for s := 0; s < nodes*ppn; s++ {
		for w, c := range countShard(s) {
			want[w] += c
		}
	}
	return want
}

func distributed() (map[string]int, error) {
	var mu sync.Mutex
	merged := map[string]int{}
	cfg := core.Config{
		Nodes: nodes, PPN: ppn,
		Lib:    profile.MVAPICH2(),
		Flavor: core.MVAPICH2J,
	}
	err := core.Run(cfg, func(mpi *core.MPI) error {
		world := mpi.CommWorld()
		p := world.Size()
		me := world.Rank()

		// Map phase: count the local shard, partition by owner.
		local := countShard(me)
		parts := make([]map[string]int, p)
		for r := range parts {
			parts[r] = map[string]int{}
		}
		for w, c := range local {
			parts[owner(w, p)][w] = c
		}

		// Serialise per-destination blocks.
		blocks := make([][]byte, p)
		sendCounts := make([]int, p)
		sendDispls := make([]int, p)
		total := 0
		for r := 0; r < p; r++ {
			blocks[r] = encodeCounts(parts[r])
			sendCounts[r] = len(blocks[r])
			sendDispls[r] = total
			total += len(blocks[r])
		}
		sendArr := mpi.JVM().MustArray(jvm.Byte, max(total, 1))
		for r := 0; r < p; r++ {
			sendArr.CopyInBytes(sendDispls[r], blocks[r])
		}

		// Exchange block sizes, then the blocks.
		cntSend := mpi.JVM().MustArray(jvm.Int, p)
		cntRecv := mpi.JVM().MustArray(jvm.Int, p)
		for r := 0; r < p; r++ {
			cntSend.SetInt(r, int64(sendCounts[r]))
		}
		if err := world.Alltoall(cntSend, 1, cntRecv, 1, core.INT); err != nil {
			return err
		}
		recvCounts := make([]int, p)
		recvDispls := make([]int, p)
		rTotal := 0
		for r := 0; r < p; r++ {
			recvCounts[r] = int(cntRecv.Int(r))
			recvDispls[r] = rTotal
			rTotal += recvCounts[r]
		}
		recvArr := mpi.JVM().MustArray(jvm.Byte, max(rTotal, 1))
		if err := world.Alltoallv(sendArr, sendCounts, sendDispls,
			recvArr, recvCounts, recvDispls, core.BYTE); err != nil {
			return err
		}

		// Reduce phase: merge the records I own.
		mine := map[string]int{}
		raw := make([]byte, rTotal)
		recvArr.CopyOutBytes(0, raw)
		if err := decodeCounts(raw, mine); err != nil {
			return err
		}

		// Collect everything at rank 0 for the final report: encode my
		// tallies, Gatherv by size.
		enc := encodeCounts(mine)
		lenSend := mpi.JVM().MustArray(jvm.Int, 1)
		lenSend.SetInt(0, int64(len(enc)))
		lenAll := mpi.JVM().MustArray(jvm.Int, p)
		if err := world.Allgather(lenSend, 1, lenAll, 1, core.INT); err != nil {
			return err
		}
		gcounts := make([]int, p)
		gdispls := make([]int, p)
		gtotal := 0
		for r := 0; r < p; r++ {
			gcounts[r] = int(lenAll.Int(r))
			gdispls[r] = gtotal
			gtotal += gcounts[r]
		}
		sendEnc := mpi.JVM().MustArray(jvm.Byte, max(len(enc), 1))
		sendEnc.CopyInBytes(0, enc)
		var gatherArr jvm.Array
		var gatherAny any
		if me == 0 {
			gatherArr = mpi.JVM().MustArray(jvm.Byte, max(gtotal, 1))
			gatherAny = gatherArr
		}
		if err := world.Gatherv(sendEnc, len(enc), gatherAny, gcounts, gdispls, core.BYTE, 0); err != nil {
			return err
		}
		if me == 0 {
			all := make([]byte, gtotal)
			gatherArr.CopyOutBytes(0, all)
			out := map[string]int{}
			if err := decodeCounts(all, out); err != nil {
				return err
			}
			mu.Lock()
			merged = out
			mu.Unlock()
		}
		return nil
	})
	return merged, err
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
