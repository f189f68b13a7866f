package main

import "sort"

// oracle is the bounded-staleness floor computed from the benchmark's own
// inputs: for every key, the ascending list of steps whose batch touched
// it. A bounded(k) read that reports watermark wm promises every update
// committed at steps ≤ wm−k, and every touching step adds at least one
// update to the row's version, so
//
//	version ≥ #{steps s ≤ wm−k whose batch touched the key}
//
// must hold. The floor only needs the generated batches — never anything
// the program reports about itself.
type oracle struct {
	off   []int32 // CSR row offsets into steps, len rows+1
	steps []int32 // touching steps per key, ascending, one entry per step
}

// newOracle indexes batches (batch s = the keys of step s; duplicates
// within a batch count once) over a key space of rows keys.
func newOracle(rows int64, nsteps int, batch func(step int) []uint32) *oracle {
	count := make([]int32, rows+1)
	last := make([]int32, rows)
	for i := range last {
		last[i] = -1
	}
	for s := 0; s < nsteps; s++ {
		for _, k := range batch(s) {
			if last[k] != int32(s) {
				last[k] = int32(s)
				count[k+1]++
			}
		}
	}
	for k := int64(1); k <= rows; k++ {
		count[k] += count[k-1]
	}
	o := &oracle{off: count, steps: make([]int32, count[rows])}
	fill := make([]int32, rows)
	copy(fill, count[:rows])
	for i := range last {
		last[i] = -1
	}
	for s := 0; s < nsteps; s++ {
		for _, k := range batch(s) {
			if last[k] != int32(s) {
				last[k] = int32(s)
				o.steps[fill[k]] = int32(s)
				fill[k]++
			}
		}
	}
	return o
}

// floor is the least version a read of key may report under watermark
// wm at bound k.
func (o *oracle) floor(key uint64, wm, k int64) int64 {
	upto := wm - k
	if upto < 0 || key+1 >= uint64(len(o.off)) {
		return 0
	}
	list := o.steps[o.off[key]:o.off[key+1]]
	return int64(sort.Search(len(list), func(i int) bool { return int64(list[i]) > upto }))
}

// violates reports whether a bounded(k) read of key that returned version
// under watermark wm is below the floor.
func (o *oracle) violates(key, version uint64, wm, k int64) bool {
	return int64(version) < o.floor(key, wm, k)
}
