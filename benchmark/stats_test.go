package main

import (
	"math"
	"testing"
)

func TestPercentilesNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // unsorted input
		s.add(float64(i))
	}
	for _, c := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
		{0, 1, 99},
	} {
		if got := s.pct(c.q); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := s.beyond(c.q); got != c.wantBeyond {
			t.Errorf("beyond(%v) = %v, want %v", c.q, got, c.wantBeyond)
		}
	}
	if got := s.supported(); got != 0.9 {
		t.Errorf("supported() = %v, want 0.9 (p99 has only 1 sample beyond)", got)
	}
	s.add(0.5) // adding after a sort re-sorts
	if got := s.pct(0); got != 0.5 {
		t.Errorf("pct(0) after add = %v, want 0.5", got)
	}
}

func TestPercentilesEmptyAndSingle(t *testing.T) {
	var s samples
	if !math.IsNaN(s.pct(0.5)) || s.beyond(0.5) != 0 || s.supported() != 0 {
		t.Fatal("empty samples must report NaN, 0 beyond, no supported percentile")
	}
	s.add(7)
	if s.pct(0.99) != 7 || s.pct(0.01) != 7 {
		t.Fatal("a single sample is every percentile")
	}
}

func TestPercentilesAreExactNotBucketed(t *testing.T) {
	// A 1-2-5 bucket histogram reports 5 ms and 50 ms for these tails;
	// raw samples must return the observed values.
	var s samples
	for i := 0; i < 990; i++ {
		s.add(4.1)
	}
	for i := 0; i < 10; i++ {
		s.add(31.7)
	}
	if got := s.pct(0.99); got != 4.1 {
		t.Errorf("p99 = %v, want 4.1", got)
	}
	if got := s.pct(0.995); got != 31.7 {
		t.Errorf("p99.5 = %v, want 31.7", got)
	}
}

func TestMaxRateAtSLOInterpolates(t *testing.T) {
	rung := func(rate float64, p99 float64) rungResult {
		r := rungResult{rate: rate, span: 2, attempted: 1000}
		for i := 0; i < 1000; i++ {
			r.lookup.add(float64(i)/500, p99)
		}
		return r
	}
	pass := &passResult{rungs: []rungResult{rung(1000, 0.2*sloP99), rung(2000, 0.8*sloP99), rung(4000, 3.2*sloP99)}}
	got := pass.maxRateAtSLO()
	// p99 crosses the limit between 2000 (0.8×) and 4000 (3.2×):
	// 2000·2^(ln(1/0.8)/ln(4)) ≈ 2236.
	if got < 2200 || got > 2270 {
		t.Errorf("interpolated rate %v, want ≈2236", got)
	}
	pass.rungs[2] = rung(4000, 0.4*sloP99)
	if got := pass.maxRateAtSLO(); got != 4000 {
		t.Errorf("all rungs meet the SLO: got %v, want the top rung 4000", got)
	}
	pass.rungs[2].fail.dropped = 100 // misses on failures, not on p99
	if got := pass.maxRateAtSLO(); got != 2000 {
		t.Errorf("next rung fails on drops: got %v, want 2000", got)
	}
	none := &passResult{rungs: []rungResult{rung(1000, 2*sloP99)}}
	if got := none.maxRateAtSLO(); got != 500 {
		t.Errorf("no rung meets the SLO: got %v, want 1000/2 = 500", got)
	}
}

func TestWindowedStatsIgnoreOneStall(t *testing.T) {
	// Six one-second windows of 1 ms responses; one window also holds a
	// 40 ms stall tail. The median of window p99s stays at 1 ms, while
	// the whole-span p99 picks the stall up.
	var tm timed
	for w := 0; w < 6; w++ {
		for i := 0; i < 400; i++ {
			v := 1.0
			if w == 3 && i%20 == 0 {
				v = 40
			}
			tm.add(float64(w)+float64(i)/400, v)
		}
	}
	if got := tm.windowedPct(6, 0.99); got != 1 {
		t.Errorf("windowed p99 = %v, want 1", got)
	}
	if got := tm.all().pct(0.995); got != 40 {
		t.Errorf("whole-span p99.5 = %v, want 40", got)
	}
	if k := windows(6, 500); k != 2 {
		t.Errorf("500 samples over 6 s split into %d windows, want 2 (≥%d per window)", k, minWindowSamples)
	}
	times := make([]float64, 0, 600)
	for i := 0; i < 600; i++ {
		times = append(times, float64(i)/100)
	}
	if got := windowedRate(times, 6); got != 100 {
		t.Errorf("windowed rate = %v, want 100/s", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := make([]float64, 100)
	if backlogGrowing(flat, 1e6) {
		t.Error("a flat lag profile is not a growing backlog")
	}
	grow := make([]float64, 100)
	for i := range grow {
		grow[i] = float64(i)
	}
	if !backlogGrowing(grow, 1e6) {
		t.Error("lag rising by ~90 ms across the rung is a growing backlog")
	}
}

func TestZipfSamplerSkew(t *testing.T) {
	const n, draws = 1000, 200_000
	z := newZipfSampler(5, n, zipfTheta)
	counts := make(map[uint64]int)
	for i := 0; i < draws; i++ {
		k := z.next()
		if k >= n {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Rank 0 carries 1/H of the mass, H = Σ 1/(r+1)^0.9 over 1000 ranks.
	h := 0.0
	for r := 0; r < n; r++ {
		h += 1 / math.Pow(float64(r+1), zipfTheta)
	}
	want := draws / h
	if got := float64(counts[uint64(z.perm[0])]); math.Abs(got-want) > 0.05*want {
		t.Errorf("hottest key drawn %v times, want ≈%.0f", got, want)
	}
	if got := float64(counts[uint64(z.perm[n-1])]); got > 3*want/math.Pow(n, zipfTheta) {
		t.Errorf("coldest key drawn %v times, want ≈%.1f", got, want/math.Pow(n, zipfTheta))
	}
}
