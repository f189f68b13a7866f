package main

import "testing"

// handTrace is a hand-built four-step trace over five keys.
var handTrace = [][]uint32{
	{1, 2},    // step 0
	{1},       // step 1
	{2, 1, 1}, // step 2: key 1 twice still counts as one touching step
	{3},       // step 3
}

func handOracle() *oracle {
	return newOracle(5, len(handTrace), func(s int) []uint32 { return handTrace[s] })
}

func TestOracleFloor(t *testing.T) {
	o := handOracle()
	for _, c := range []struct {
		key    uint64
		wm, k  int64
		expect int64
	}{
		{1, 3, 2, 2},  // steps ≤ 1 touching key 1: 0, 1
		{1, 4, 2, 3},  // steps ≤ 2: 0, 1, 2 (duplicates in step 2 count once)
		{1, 1, 2, 0},  // wm−k < 0: nothing is promised yet
		{2, 3, 0, 2},  // bound 0 at wm 3: steps 0 and 2
		{3, 3, 1, 0},  // step 3 is beyond wm−k = 2
		{4, 10, 0, 0}, // never touched
		{9, 10, 0, 0}, // out of range keys have no floor
	} {
		if got := o.floor(c.key, c.wm, c.k); got != c.expect {
			t.Errorf("floor(key %d, wm %d, k %d) = %d, want %d", c.key, c.wm, c.k, got, c.expect)
		}
	}
}

func TestOracleFlagsViolatingRead(t *testing.T) {
	o := handOracle()
	// A bounded(2) read of key 1 at watermark 3 must include steps 0 and
	// 1: version 1 is a violation, version 2 is not.
	if !o.violates(1, 1, 3, 2) {
		t.Error("version 1 at watermark 3, bound 2 must violate (floor 2)")
	}
	if o.violates(1, 2, 3, 2) {
		t.Error("version 2 meets the floor")
	}
	chk := &checker{orc: o, rows: 5, dim: 2}
	if stale, wrong := chk.lookup(1, lookupResult{version: 1, watermark: 3, staleness: 1, values: []float32{0, 0}}); !stale || wrong != "" {
		t.Errorf("checker missed the violating read (stale=%v, wrong=%q)", stale, wrong)
	}
	if stale, _ := chk.lookup(1, lookupResult{version: 9, watermark: 3, staleness: 3, values: []float32{0, 0}}); !stale {
		t.Error("a read reporting staleness above the bound is a violation")
	}
	if _, wrong := chk.lookup(1, lookupResult{version: 9, watermark: 3, values: []float32{0}}); wrong == "" {
		t.Error("a row of the wrong width is a wrong output")
	}
}

func TestCheckerTopK(t *testing.T) {
	chk := &checker{rows: 10}
	good := []candidate{{3, 0.9}, {1, 0.5}, {7, 0.5}}
	if msg := chk.topk(good, 3); msg != "" {
		t.Errorf("valid result rejected: %s", msg)
	}
	for name, bad := range map[string][]candidate{
		"short":        {{3, 0.9}, {1, 0.5}},
		"duplicate":    {{3, 0.9}, {3, 0.5}, {7, 0.4}},
		"out of range": {{3, 0.9}, {10, 0.5}, {7, 0.4}},
		"ascending":    {{3, 0.1}, {1, 0.5}, {7, 0.9}},
	} {
		if msg := chk.topk(bad, 3); msg == "" {
			t.Errorf("%s result accepted", name)
		}
	}
}
