package main

import (
	"math"
	"sort"
)

// samples keeps raw observations so percentiles are exact (nearest-rank
// over the sorted values), never read off histogram buckets.
type samples struct {
	v      []float64
	sorted bool
}

func (s *samples) add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

func (s *samples) merge(o *samples) {
	s.v = append(s.v, o.v...)
	s.sorted = false
}

func (s *samples) n() int { return len(s.v) }

func (s *samples) sort() {
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
}

// pct returns the nearest-rank q-quantile (q in [0, 1]): the smallest
// observation with at least q·n observations at or below it. NaN when
// empty.
func (s *samples) pct(q float64) float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	s.sort()
	i := int(math.Ceil(q*float64(len(s.v)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.v) {
		i = len(s.v) - 1
	}
	return s.v[i]
}

// beyond is how many observations lie strictly above the q-quantile's
// rank — the support behind a tail percentile.
func (s *samples) beyond(q float64) int {
	if len(s.v) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s.v)))) - 1
	if i < 0 {
		i = 0
	}
	return len(s.v) - 1 - i
}

// supported returns the highest percentile from the ladder p50, p90, p99,
// p99.9, p99.99 that has at least ten observations beyond it (0 when
// even p50 does not).
func (s *samples) supported() float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		if s.beyond(q) >= 10 {
			best = q
		}
	}
	return best
}

func (s *samples) mean() float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range s.v {
		t += x
	}
	return t / float64(len(s.v))
}

// median of a small slice (copied; the input is left alone): the middle
// value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowWidth is the target sub-window of windowed statistics.
const windowWidth = 1.0 // seconds

// minWindowSamples is the fewest observations a sub-window percentile
// is taken from; sparser series use fewer, wider windows.
const minWindowSamples = 200

// timed is a series of observations, each stamped with the time (seconds
// into its measured span) it belongs to.
type timed struct {
	at, v []float64
}

func (t *timed) add(at, v float64) {
	t.at = append(t.at, at)
	t.v = append(t.v, v)
}

func (t *timed) merge(o *timed) {
	t.at = append(t.at, o.at...)
	t.v = append(t.v, o.v...)
}

func (t *timed) n() int { return len(t.v) }

// all is the whole series as one sample set.
func (t *timed) all() *samples { return &samples{v: append([]float64(nil), t.v...)} }

// windows is how many equal sub-windows a span of `span` seconds with n
// observations splits into: one per windowWidth, but never so many that
// a window averages fewer than minWindowSamples observations.
func windows(span float64, n int) int {
	k := int(span / windowWidth)
	if m := n / minWindowSamples; m < k {
		k = m
	}
	if k < 1 {
		k = 1
	}
	return k
}

// windowedPct is the median, over the span's sub-windows, of each
// window's q-quantile. A stall inside one window moves that window's
// figure but not the median of the windows. Use it for central
// percentiles; tails are taken over the whole span (see rungResult.p99).
func (t *timed) windowedPct(span, q float64) float64 {
	k := windows(span, len(t.v))
	buckets := make([]samples, k)
	for i, at := range t.at {
		b := int(at / span * float64(k))
		if b < 0 {
			b = 0
		}
		if b >= k {
			b = k - 1
		}
		buckets[b].add(t.v[i])
	}
	var per []float64
	for i := range buckets {
		if buckets[i].n() > 0 {
			per = append(per, buckets[i].pct(q))
		}
	}
	return median(per)
}

// windowedRate is the median over the span's sub-windows of events per
// second, for event times in [0, span).
func windowedRate(times []float64, span float64) float64 {
	k := windows(span, len(times))
	counts := make([]float64, k)
	for _, at := range times {
		b := int(at / span * float64(k))
		if b >= 0 && b < k {
			counts[b]++
		}
	}
	for i := range counts {
		counts[i] /= span / float64(k)
	}
	return median(counts)
}

// ratio is a/b, 0 when b is 0 — for per-layer shares whose base can be
// empty on a workload that does not exercise the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
