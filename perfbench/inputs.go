package main

import (
	"encoding/binary"
	"math/rand"

	"lrpc"
	"lrpc/internal/workload"
)

// Procedure indices of the benchmark interface (benchInterface).
const (
	procAdd   = iota // a, b uint32 -> a+b uint32
	procSum          // any bytes -> FNV-1a 64 of them
	procMix          // k, x uint64 -> mix(k, x) uint64
	procStore        // file id + BulkIn payload -> stored length
	procFetch        // file id + BulkOut capacity -> fetched length
)

// smallCall is one generated synchronous call and the reply it must get.
type smallCall struct {
	proc int
	args []byte
	want []byte
}

// addShare is the share of fixed-size Add calls mixed into the
// Figure-1-sized checksum calls.
const addShare = 0.25

// genSmallCalls draws n calls: Add calls with random operands, and Sum
// calls whose argument size follows the paper's Figure 1 distribution
// (internal/workload), filled with random bytes.
func genSmallCalls(rng *rand.Rand, n int) []smallCall {
	pop := workload.NewPopulation(rng)
	sizes := pop.CallSizes(rng, n)
	calls := make([]smallCall, n)
	for i := range calls {
		if rng.Float64() < addShare {
			a, b := rng.Uint32(), rng.Uint32()
			args := make([]byte, 8)
			binary.LittleEndian.PutUint32(args, a)
			binary.LittleEndian.PutUint32(args[4:], b)
			calls[i] = smallCall{proc: procAdd, args: args, want: binary.LittleEndian.AppendUint32(nil, a+b)}
			continue
		}
		args := make([]byte, sizes[i])
		rng.Read(args)
		calls[i] = smallCall{proc: procSum, args: args, want: binary.LittleEndian.AppendUint64(nil, fnv64(args))}
	}
	return calls
}

// fnv64 is FNV-1a over b: the checksum the Sum procedure returns.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// mix is one chain stage's transform.
func mix(k, x uint64) uint64 {
	x ^= k
	x *= 0x9E3779B97F4A7C15
	return x ^ (x >> 29)
}

// chainDepth is the stage count of every pipelined chain.
const chainDepth = 4

// chainCall is one generated chain: stage 0 runs Mix on (k0, x0) and
// each later stage runs Mix on (k_i, previous result).
type chainCall struct {
	ch   *lrpc.Chain
	want uint64
}

func genChains(rng *rand.Rand, n int) []chainCall {
	out := make([]chainCall, n)
	for i := range out {
		ch := lrpc.NewChain()
		k0, x := rng.Uint64(), rng.Uint64()
		head := binary.LittleEndian.AppendUint64(nil, k0)
		ch.Add(procMix, binary.LittleEndian.AppendUint64(head, x))
		x = mix(k0, x)
		for s := 1; s < chainDepth; s++ {
			k := rng.Uint64()
			ch.Add(procMix, binary.LittleEndian.AppendUint64(nil, k))
			x = mix(k, x)
		}
		out[i] = chainCall{ch: ch, want: x}
	}
	return out
}

// Bulk payload sizes are drawn uniformly within each octave from
// 64 KiB up to 4 MiB, one size per octave per round, so every round
// carries the same mix of sizes whatever the seed.
const (
	bulkMinSize = 64 << 10
	bulkOctaves = 6 // 64K-128K ... 2M-4M
	bulkMaxSize = bulkMinSize << bulkOctaves
)

// bulkRound is one round of files, one per octave (index 0 is the
// smallest), and the seeded order they are stored and fetched in.
type bulkRound struct {
	files [bulkOctaves][]byte
	order []int
}

// bulkSource is the seeded byte pool payloads are cut from.
type bulkSource struct {
	rng  *rand.Rand
	pool []byte
}

func newBulkSource(rng *rand.Rand) *bulkSource {
	pool := make([]byte, 2*bulkMaxSize)
	rng.Read(pool)
	return &bulkSource{rng: rng, pool: pool}
}

// round draws the next round's payloads and their order.
func (s *bulkSource) round() bulkRound {
	r := bulkRound{order: s.rng.Perm(bulkOctaves)}
	for oct := range r.files {
		lo := bulkMinSize << oct
		n := lo + s.rng.Intn(lo)
		off := s.rng.Intn(len(s.pool) - n)
		r.files[oct] = s.pool[off : off+n]
	}
	return r
}
