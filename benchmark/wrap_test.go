package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"frugal/internal/runtime"
	"frugal/internal/store"
)

// tinyJob is a small replay workload for pass-through tests. Its batches
// hold distinct keys: when a key repeats within a step, the two trainers'
// partial deltas reach the host in commit order, and float addition in a
// different order can change the last bit, so only distinct-key traces
// are bit-reproducible at this size.
func tinyJob() (*workload, *prepared) {
	w := &workload{maxSteps: 300}
	b := &keyBatches{batch: 64, keys: make([]uint32, 64*w.maxSteps)}
	for s := 0; s < w.maxSteps; s++ {
		for i := 0; i < 64; i++ {
			b.keys[s*64+i] = uint32((s*64 + i*31) % 2000)
		}
	}
	return w, &prepared{seed: 11, rows: 2000, dim: 8, train: b}
}

// TestTracedJobMatchesUntraced: a job trained through the Queue and Slab
// wrappers reproduces the untraced job's losses bit for bit, and the
// wrappers saw the traffic.
func TestTracedJobMatchesUntraced(t *testing.T) {
	w, p := tinyJob()
	train := func(tr *tracer) []float32 {
		job, _, err := localJob(w, p, tr, newStepLog(w, tr))
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Losses
	}
	plain := train(nil)
	tr := newTracer()
	traced := train(tr)
	if len(plain) != w.maxSteps || len(traced) != len(plain) {
		t.Fatalf("steps: untraced %d, traced %d, want %d", len(plain), len(traced), w.maxSteps)
	}
	for i := range plain {
		if math.Float32bits(plain[i]) != math.Float32bits(traced[i]) {
			t.Fatalf("step %d: traced loss %v != untraced %v", i, traced[i], plain[i])
		}
	}
	if tr.hostRead.calls.Load() == 0 || tr.hostWrite.calls.Load() == 0 {
		t.Error("slab wrapper saw no host reads or writes")
	}
	if tr.pqEnqueue.calls.Load() == 0 || tr.pqProcess.calls.Load() == 0 || tr.pqClaimed.Load() == 0 {
		t.Error("queue wrapper saw no enqueues or flushes")
	}
}

func TestTracedSlabPassThrough(t *testing.T) {
	a, err := initHost(16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := initHost(16, 4, 3)
	tr := newTracer()
	var rs runtime.RowStore = &tracedSlab{h: b, t: tr}
	delta := []float32{1, 2, 3, 4}
	a.ApplyDelta(5, delta, 0)
	rs.ApplyDelta(5, delta, 0)
	got, want := make([]float32, 4), make([]float32, 4)
	if rs.ReadRow(5, got) != a.ReadRow(5, want) {
		t.Fatal("versions differ through the wrapper")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row differs through the wrapper: %v vs %v", got, want)
		}
	}
	if tr.hostRead.calls.Load() != 1 || tr.hostWrite.calls.Load() != 1 {
		t.Errorf("counted %d reads, %d writes; want 1, 1", tr.hostRead.calls.Load(), tr.hostWrite.calls.Load())
	}
}

// TestTracedStoresKeepFastPaths: the serve engine discovers the local
// slab and the flush feed by type assertion; the wrapper must not hide
// them. The shard wrapper must return what the wrapped store returns.
func TestTracedStoresKeepFastPaths(t *testing.T) {
	h, _ := initHost(16, 4, 3)
	ls, err := store.NewLocal(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var st store.Store = &tracedLocal{LocalStore: ls, t: tr}
	if hb, ok := st.(interface{ Host() *runtime.Host }); !ok || hb.Host() != h {
		t.Error("tracedLocal hides the Host() fast path")
	}
	if _, ok := st.(store.FlushHooker); !ok {
		t.Error("tracedLocal hides AddFlushHook")
	}
	if _, _, err := st.RowStaleness(3); err != nil || tr.resolve.calls.Load() != 1 {
		t.Errorf("RowStaleness through the wrapper: err %v, %d calls counted", err, tr.resolve.calls.Load())
	}

	sh := &tracedShard{Store: ls, t: tr}
	keys := []uint64{1, 7}
	got, want := make([]float32, 8), make([]float32, 8)
	if err := sh.Gather(keys, got, nil); err != nil {
		t.Fatal(err)
	}
	if err := ls.Gather(keys, want, nil); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("gather differs through the wrapper")
		}
	}
	if tr.rpc["gather"].calls.Load() != 1 || tr.rpcBytes.Load() != 2*4*4 {
		t.Errorf("gather counted %d calls, %d bytes; want 1, 32", tr.rpc["gather"].calls.Load(), tr.rpcBytes.Load())
	}
}

func TestTracedHandlerPassThrough(t *testing.T) {
	tr := newTracer()
	h := &tracedHandler{t: tr, h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Test", "yes")
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("body"))
	})}
	req := httptest.NewRequest(http.MethodGet, "/v1/lookup?key=1", nil)
	req.Header.Set(reqHeader, "32")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTeapot || rec.Header().Get("X-Test") != "yes" || !strings.Contains(rec.Body.String(), "body") {
		t.Fatalf("response altered: %d %q %q", rec.Code, rec.Header().Get("X-Test"), rec.Body.String())
	}
	if tr.handler.calls.Load() != 1 || len(tr.spans) != 1 || tr.spans[0].ID != 32 {
		t.Errorf("handler span not recorded under the request ID: %d calls, spans %+v", tr.handler.calls.Load(), tr.spans)
	}
}

func TestSpanLogJoinsReadPathCalls(t *testing.T) {
	tr := newTracer()
	tr.record(span{ID: 32, Name: "bench.lookup", Start: 100, End: 200, Key: 5})
	tr.record(span{ID: 32, Name: "http.handler", Parent: "bench.request", Start: 110, End: 190, Key: -1})
	tr.record(span{ID: -1, Name: "store.row_staleness", Start: 120, End: 150, Key: 5})
	tr.record(span{ID: -1, Name: "store.row_staleness", Start: 120, End: 150, Key: 6}) // unsampled read
	tr.record(span{ID: 64, Name: "host.read_row", Parent: "runtime.step", Start: 1, End: 2, Key: 9})
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 4 {
		t.Fatalf("wrote %d spans, want 4 (the unsampled read's call dropped): %+v", len(got), got)
	}
	if s := got[2]; s.ID != 32 || s.Parent != "http.handler" {
		t.Errorf("store span joined as ID %d under %q, want 32 under http.handler", s.ID, s.Parent)
	}
}
