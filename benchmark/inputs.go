package main

import (
	"math"
	"math/rand"
)

const (
	embedRows  = 100_000 // embedding-table rows of the Zipf workloads
	embedDim   = 32
	embedBatch = 256
	zipfTheta  = 0.9
)

// keyBatches is a generated trace: nsteps batches of batch keys, stored
// flat and narrow (the key space fits 32 bits).
type keyBatches struct {
	batch int
	keys  []uint32
}

func (b *keyBatches) steps() int { return len(b.keys) / b.batch }

func (b *keyBatches) at(step int) []uint32 { return b.keys[step*b.batch : (step+1)*b.batch] }

// zipfSampler draws Zipf-θ keys over [0, n): rank r has weight
// 1/(r+1)^θ, drawn in O(1) from a Walker alias table. Ranks map to keys
// through one fixed permutation, so hot keys spread over the table but
// sit at the same keys for every seed: where the hottest keys land in
// the caches' sets and the slab's lock stripes is part of the workload,
// and the seed varies only the draws.
type zipfSampler struct {
	rng   *rand.Rand
	prob  []float64
	alias []int32
	perm  []int
}

func newZipfSampler(seed int64, n int, theta float64) *zipfSampler {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	total := 0.0
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), theta)
		total += w[r]
	}
	z := &zipfSampler{rng: rng, prob: make([]float64, n), alias: make([]int32, n), perm: rand.New(rand.NewSource(1)).Perm(n)}
	var small, large []int
	for r := range w {
		w[r] *= float64(n) / total
		if w[r] < 1 {
			small = append(small, r)
		} else {
			large = append(large, r)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		z.prob[s], z.alias[s] = w[s], int32(l)
		w[l] -= 1 - w[s]
		if w[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, r := range append(small, large...) {
		z.prob[r], z.alias[r] = 1, int32(r)
	}
	return z
}

func (z *zipfSampler) next() uint64 {
	r := z.rng.Intn(len(z.prob))
	if z.rng.Float64() >= z.prob[r] {
		r = int(z.alias[r])
	}
	return uint64(z.perm[r])
}

// zipfBatches draws nsteps batches of Zipf-0.9 keys over rows.
func zipfBatches(seed int64, rows uint64, batch, nsteps int) *keyBatches {
	z := newZipfSampler(seed, int(rows), zipfTheta)
	b := &keyBatches{batch: batch, keys: make([]uint32, batch*nsteps)}
	for i := range b.keys {
		b.keys[i] = uint32(z.next())
	}
	return b
}

// replayTrace feeds generated batches to the runtime as a key trace.
type replayTrace struct {
	b    *keyBatches
	next int
}

func (t *replayTrace) Next() ([]uint64, bool) {
	if t.next >= t.b.steps() {
		return nil, false
	}
	src := t.b.at(t.next)
	t.next++
	out := make([]uint64, len(src))
	for i, k := range src {
		out[i] = uint64(k)
	}
	return out, true
}

func (t *replayTrace) Steps() int64 { return int64(t.b.steps()) }
func (t *replayTrace) Batch() int   { return t.b.batch }

// newReadInputs draws the read arrivals: n Zipf keys (an independent
// stream from the training trace), the top-K share, and a pool of query
// vectors in [-1, 1)^dim.
func newReadInputs(seed int64, rows uint64, dim, n int) *readInputs {
	z := newZipfSampler(seed^0x5eed, int(rows), zipfTheta)
	rng := rand.New(rand.NewSource(seed ^ 0x70f))
	in := &readInputs{keys: make([]uint64, n), isTopK: make([]bool, n), queries: make([][]float32, 256)}
	for i := range in.keys {
		in.keys[i] = z.next()
		in.isTopK[i] = rng.Intn(100) < topKPercent
	}
	for i := range in.queries {
		q := make([]float32, dim)
		for j := range q {
			q[j] = rng.Float32()*2 - 1
		}
		in.queries[i] = q
	}
	return in
}
