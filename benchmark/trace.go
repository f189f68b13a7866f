package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"frugal/internal/pq"
	"frugal/internal/runtime"
	"frugal/internal/store"
)

// The traced run times calls into each layer from outside, at seams the
// program already dispatches through (Config.Queue, Config.Slab, the
// store.Store the serve engine reads, and the HTTP handler). Nothing in
// the program is modified: each wrapper forwards to the real
// implementation and records a count, a duration and — for a sample of
// requests — a span.

// opStat accumulates one layer operation: calls and busy time, plus raw
// per-call latencies when the metric needs percentiles.
type opStat struct {
	calls atomic.Int64
	ns    atomic.Int64
	keep  bool
	mu    sync.Mutex
	lat   samples // µs
}

func (o *opStat) add(d time.Duration) {
	o.calls.Add(1)
	o.ns.Add(int64(d))
	if o.keep {
		o.mu.Lock()
		o.lat.add(float64(d) / 1e3)
		o.mu.Unlock()
	}
}

// span is one timed call at a layer boundary. ID is shared by every span
// of one request (a training step or a served read); Parent names the
// span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    int64  `json:"key"`
}

// spanCap bounds the in-memory span log; later spans are counted, not
// kept.
const spanCap = 1 << 18

// stepSample keeps the spans of one training step in every stepSample
// (step-side layer calls far outnumber what the log can hold).
const stepSample = 64

// readSample keeps the spans of one served read in every readSample.
const readSample = 16

// tracer owns the layer counters and the span log of one traced pass.
type tracer struct {
	t0   time.Time
	step atomic.Int64 // last completed training step, tags step-side spans

	hostRead, hostWrite                     opStat
	pqEnqueue, pqProcess, pqCallback, pqTop opStat
	pqClaimed, pqResidue, pqDeferred        atomic.Int64
	resolve, flushKey, watermark            opStat
	handler                                 opStat
	rpc                                     map[string]*opStat
	rpcBytes                                atomic.Int64
	gather, scatter                         opStat // composed store Gather and Scatter
	gatherSlowest                           atomic.Int64
	fanout                                  opStat // composed Gather minus its slowest shard RPC

	mu      sync.Mutex
	spans   []span
	dropped int64
}

// rpcOps are the shard wire operations the traced sharded run times.
var rpcOps = []string{"gather", "scatter", "read_row", "row_staleness", "watermark", "flush_key", "version", "topk"}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), rpc: map[string]*opStat{}}
	t.step.Store(-1)
	t.handler.keep = true
	for _, op := range rpcOps {
		t.rpc[op] = &opStat{keep: true}
	}
	return t
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// record appends a span if the log has room.
func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < spanCap {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// stepSpan records a step-side layer call when the step in flight is
// sampled.
func (t *tracer) stepSpan(name string, start, end time.Time, key uint64) {
	if s := t.step.Load() + 1; s%stepSample == 0 {
		t.record(span{ID: s, Name: name, Parent: "runtime.step", Start: t.ns(start), End: t.ns(end), Key: int64(key)})
	}
}

// writeSpans dumps the span log as JSONL. Store and shard calls on the
// read path are recorded without a request ID (the engine passes none
// down); here each is joined to the sampled read of the same key whose
// interval contains it and takes that read's ID, under the HTTP handler
// span when the read went over HTTP. Calls of unsampled reads are
// dropped.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	reads := map[int64][]span{}
	viaHTTP := map[int64]bool{}
	for _, s := range t.spans {
		switch s.Name {
		case "bench.lookup", "bench.topk":
			reads[s.Key] = append(reads[s.Key], s)
		case "http.handler":
			viaHTTP[s.ID] = true
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if s.ID == -1 {
			for _, r := range reads[s.Key] {
				if r.Start <= s.Start && s.End <= r.End {
					s.ID = r.ID
					if s.Parent == "" {
						s.Parent = r.Name
						if viaHTTP[r.ID] {
							s.Parent = "http.handler"
						}
					}
					break
				}
			}
			if s.ID == -1 {
				continue
			}
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedQueue wraps the controller's priority queue (Config.Queue).
type tracedQueue struct {
	q pq.Queue
	t *tracer
}

func (w *tracedQueue) Enqueue(g *pq.GEntry, p int64) {
	start := time.Now()
	w.q.Enqueue(g, p)
	end := time.Now()
	w.t.pqEnqueue.add(end.Sub(start))
	w.t.stepSpan("pq.enqueue", start, end, g.Key)
}

func (w *tracedQueue) Dequeue() (*pq.GEntry, int64, bool) { return w.q.Dequeue() }

func (w *tracedQueue) DequeueBatch(dst []*pq.GEntry, max int) []*pq.GEntry {
	return w.q.DequeueBatch(dst, max)
}

func (w *tracedQueue) AdjustPriority(g *pq.GEntry, old, new int64) {
	start := time.Now()
	w.q.AdjustPriority(g, old, new)
	end := time.Now()
	w.t.pqEnqueue.add(end.Sub(start))
	w.t.stepSpan("pq.adjust_priority", start, end, g.Key)
}

func (w *tracedQueue) ProcessBatch(max int, fn func(g *pq.GEntry, slotPriority int64) bool) int {
	start := time.Now()
	n := w.q.ProcessBatch(max, func(g *pq.GEntry, slot int64) bool {
		cs := time.Now()
		ok := fn(g, slot)
		w.t.pqCallback.add(time.Since(cs))
		switch {
		case !ok:
			w.t.pqResidue.Add(1)
		case slot == pq.Inf:
			w.t.pqClaimed.Add(1)
			w.t.pqDeferred.Add(1)
		default:
			w.t.pqClaimed.Add(1)
		}
		return ok
	})
	w.t.pqProcess.add(time.Since(start))
	return n
}

func (w *tracedQueue) Top() int64 {
	start := time.Now()
	p := w.q.Top()
	w.t.pqTop.add(time.Since(start))
	return p
}

func (w *tracedQueue) Len() int { return w.q.Len() }

// RaiseLowerBound forwards the controller's scan-range compression hint
// (an optional method the controller discovers by type assertion).
func (w *tracedQueue) RaiseLowerBound(p int64) {
	if r, ok := w.q.(interface{ RaiseLowerBound(int64) }); ok {
		r.RaiseLowerBound(p)
	}
}

// tracedSlab wraps the job's host slab (Config.Slab).
type tracedSlab struct {
	h *runtime.Host
	t *tracer
}

func (w *tracedSlab) Rows() int64 { return w.h.Rows() }
func (w *tracedSlab) Dim() int    { return w.h.Dim() }

func (w *tracedSlab) ReadRow(key uint64, dst []float32) uint64 {
	start := time.Now()
	v := w.h.ReadRow(key, dst)
	end := time.Now()
	w.t.hostRead.add(end.Sub(start))
	w.t.stepSpan("host.read_row", start, end, key)
	return v
}

func (w *tracedSlab) ReadRowDirect(key uint64, dst []float32) {
	start := time.Now()
	w.h.ReadRowDirect(key, dst)
	end := time.Now()
	w.t.hostRead.add(end.Sub(start))
	w.t.stepSpan("host.read_row_direct", start, end, key)
}

func (w *tracedSlab) ReadRowLocked(key uint64, dst []float32) {
	start := time.Now()
	w.h.ReadRowLocked(key, dst)
	end := time.Now()
	w.t.hostRead.add(end.Sub(start))
	w.t.stepSpan("host.read_row_locked", start, end, key)
}

func (w *tracedSlab) Version(key uint64) uint64   { return w.h.Version(key) }
func (w *tracedSlab) OptState(key uint64) float32 { return w.h.OptState(key) }
func (w *tracedSlab) WriteRetries() int64         { return w.h.WriteRetries() }

func (w *tracedSlab) ApplyDelta(key uint64, delta []float32, stateDelta float32) {
	start := time.Now()
	w.h.ApplyDelta(key, delta, stateDelta)
	end := time.Now()
	w.t.hostWrite.add(end.Sub(start))
	w.t.stepSpan("host.apply_delta", start, end, key)
}

func (w *tracedSlab) ApplyUpdates(key uint64, updates []pq.Update) {
	start := time.Now()
	w.h.ApplyUpdates(key, updates)
	end := time.Now()
	w.t.hostWrite.add(end.Sub(start))
	w.t.stepSpan("host.apply_updates", start, end, key)
}

// tracedLocal wraps the serve engine's local store. Embedding the
// *store.LocalStore keeps its Host() fast path and AddFlushHook visible
// to the engine's type assertions.
type tracedLocal struct {
	*store.LocalStore
	t *tracer
}

func (w *tracedLocal) RowStaleness(key uint64) (int64, int64, error) {
	start := time.Now()
	lag, wm, err := w.LocalStore.RowStaleness(key)
	end := time.Now()
	w.t.resolve.add(end.Sub(start))
	w.t.record(span{ID: -1, Name: "store.row_staleness", Start: w.t.ns(start), End: w.t.ns(end), Key: int64(key)})
	return lag, wm, err
}

func (w *tracedLocal) FlushKey(key uint64) (bool, error) {
	start := time.Now()
	ok, err := w.LocalStore.FlushKey(key)
	end := time.Now()
	w.t.flushKey.add(end.Sub(start))
	w.t.record(span{ID: -1, Name: "store.flush_key", Start: w.t.ns(start), End: w.t.ns(end), Key: int64(key)})
	return ok, err
}

func (w *tracedLocal) Watermark() int64 {
	start := time.Now()
	wm := w.LocalStore.Watermark()
	w.t.watermark.add(time.Since(start))
	return wm
}

// tracedComposed wraps the sharded store the serve engine and the
// benchmark's trainer use, so the serve-side resolve calls and the
// composed Gather are timed alongside the per-shard RPCs beneath them.
type tracedComposed struct {
	*store.ShardedStore
	t *tracer
}

func (w *tracedComposed) Gather(keys []uint64, dst []float32, versions []uint64) error {
	w.t.gatherSlowest.Store(0)
	start := time.Now()
	err := w.ShardedStore.Gather(keys, dst, versions)
	d := time.Since(start)
	w.t.gather.add(d)
	if slow := time.Duration(w.t.gatherSlowest.Load()); slow > 0 && slow <= d {
		w.t.fanout.add(d - slow)
	}
	return err
}

func (w *tracedComposed) Scatter(step int64, updates []store.KeyDelta) error {
	start := time.Now()
	err := w.ShardedStore.Scatter(step, updates)
	w.t.scatter.add(time.Since(start))
	return err
}

func (w *tracedComposed) RowStaleness(key uint64) (int64, int64, error) {
	start := time.Now()
	lag, wm, err := w.ShardedStore.RowStaleness(key)
	end := time.Now()
	w.t.resolve.add(end.Sub(start))
	w.t.record(span{ID: -1, Name: "store.row_staleness", Start: w.t.ns(start), End: w.t.ns(end), Key: int64(key)})
	return lag, wm, err
}

func (w *tracedComposed) FlushKey(key uint64) (bool, error) {
	start := time.Now()
	ok, err := w.ShardedStore.FlushKey(key)
	end := time.Now()
	w.t.flushKey.add(end.Sub(start))
	w.t.record(span{ID: -1, Name: "store.flush_key", Start: w.t.ns(start), End: w.t.ns(end), Key: int64(key)})
	return ok, err
}

func (w *tracedComposed) Watermark() int64 {
	start := time.Now()
	wm := w.ShardedStore.Watermark()
	w.t.watermark.add(time.Since(start))
	return wm
}

// tracedShard wraps one shard's wire client before composition, timing
// every RPC. Payload bytes are computed (keys × dim × 4), not measured on
// the socket.
type tracedShard struct {
	store.Store
	t *tracer
}

func (w *tracedShard) op(name string, start time.Time, key int64) {
	end := time.Now()
	w.t.rpc[name].add(end.Sub(start))
	if name == "gather" {
		d := int64(end.Sub(start))
		for {
			cur := w.t.gatherSlowest.Load()
			if d <= cur || w.t.gatherSlowest.CompareAndSwap(cur, d) {
				break
			}
		}
	}
	if name == "gather" || name == "scatter" {
		w.t.stepSpan("shard."+name, start, end, uint64(key))
	} else {
		w.t.record(span{ID: -1, Name: "shard." + name, Parent: "store", Start: w.t.ns(start), End: w.t.ns(end), Key: key})
	}
}

func (w *tracedShard) ReadRow(key uint64, dst []float32) (uint64, error) {
	start := time.Now()
	v, err := w.Store.ReadRow(key, dst)
	w.op("read_row", start, int64(key))
	return v, err
}

func (w *tracedShard) Gather(keys []uint64, dst []float32, versions []uint64) error {
	start := time.Now()
	err := w.Store.Gather(keys, dst, versions)
	w.t.rpcBytes.Add(int64(len(keys) * w.Dim() * 4))
	w.op("gather", start, -1)
	return err
}

func (w *tracedShard) Scatter(step int64, updates []store.KeyDelta) error {
	start := time.Now()
	err := w.Store.Scatter(step, updates)
	w.t.rpcBytes.Add(int64(len(updates) * w.Dim() * 4))
	w.op("scatter", start, -1)
	return err
}

func (w *tracedShard) Version(key uint64) (uint64, error) {
	start := time.Now()
	v, err := w.Store.Version(key)
	w.op("version", start, int64(key))
	return v, err
}

func (w *tracedShard) Watermark() int64 {
	start := time.Now()
	wm := w.Store.Watermark()
	w.op("watermark", start, -1)
	return wm
}

func (w *tracedShard) RowStaleness(key uint64) (int64, int64, error) {
	start := time.Now()
	lag, wm, err := w.Store.RowStaleness(key)
	w.op("row_staleness", start, int64(key))
	return lag, wm, err
}

func (w *tracedShard) FlushKey(key uint64) (bool, error) {
	start := time.Now()
	ok, err := w.Store.FlushKey(key)
	w.op("flush_key", start, int64(key))
	return ok, err
}

func (w *tracedShard) TopK(ctx context.Context, query []float32, k int) ([]store.ScoredRow, error) {
	start := time.Now()
	rs, err := w.Store.TopK(ctx, query, k)
	w.op("topk", start, -1)
	return rs, err
}

// reqHeader carries the benchmark's request ID to the traced handler so
// client and handler spans of one request share it.
const reqHeader = "X-Bench-Request"

// tracedHandler wraps Server.Handler().
type tracedHandler struct {
	h http.Handler
	t *tracer
}

func (w *tracedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.h.ServeHTTP(rw, r)
	end := time.Now()
	w.t.handler.add(end.Sub(start))
	if id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil && id%readSample == 0 {
		w.t.record(span{ID: id, Name: "http.handler", Parent: "bench.request", Start: w.t.ns(start), End: w.t.ns(end), Key: -1})
	}
}
