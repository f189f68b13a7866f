package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"frugal/internal/data"
	"frugal/internal/pq"
	"frugal/internal/runtime"
	"frugal/internal/serve"
	"frugal/internal/shard"
	"frugal/internal/store"
	"frugal/internal/tensor"
)

// workload is one named input set. Every workload trains a model and
// serves it while it trains, so each end-to-end metric is measured on
// each workload; they differ in which layers dominate.
type workload struct {
	name string
	// rungs is the read-rate ladder in requests/s; rungs[nominal] is the
	// nominal rate the latency metrics are read at.
	rungs   []float64
	nominal int
	// maxSteps is the trace length the job is built for — far more than
	// a run trains, so the measured window never runs out of steps.
	maxSteps int
	// final_loss is the mean loss of the lossWindow steps ending at the
	// fixed step lossStep (one step's loss swings with its batch).
	lossStep, lossWindow int
	// peak_rss_mb is read when training completes rssStep, so it measures
	// a fixed amount of work however fast the run trains.
	rssStep int
	// lossExact: the losses up to lossStep repeat bit-for-bit between runs
	// of one seed, so the traced and untraced passes must report the same
	// final_loss exactly.
	lossExact bool
	// wire: the workload crosses the shard wire, and its traced run also
	// reports the shard and fan-out metrics.
	wire    bool
	prepare func(w *workload, seed int64) (*prepared, error)
	setup   func(w *workload, p *prepared, tr *tracer) (*system, error)
}

// prepared holds a run's generated inputs (not part of set-up time).
type prepared struct {
	seed  int64
	rows  int64
	dim   int
	train *keyBatches // Zipf trace (train-embed-zipf, serve-live, sharded-3)
	rec   data.Spec   // DLRM dataset (train-dlrm-avazu)
	orc   *oracle
	reads *readInputs
}

// system is one set-up workload: a trainer, its step log, and a serving
// surface over the model being trained.
type system struct {
	log            *stepLog
	samplesPerStep int
	trainers       int
	train          func(ctx context.Context) error
	rd             reader
	eng            *serve.Engine
	// after reports job-level results once train has returned.
	after func() trainStats
	close func()
}

// trainStats are the job-level results the runtime reports at the end.
type trainStats struct {
	cacheHit float64
	auc      float64
}

// stepLog records each completed step: completion time, loss, summed
// gate stall and flush backlog.
type stepLog struct {
	t0        time.Time
	done      []int64 // ns since t0
	loss      []float64
	stall     []int64
	backlog   []int32
	completed atomic.Int64
	tr        *tracer
	rssStep   int64
	rss       float64 // peak RSS (MB) read as step rssStep completed
}

func newStepLog(w *workload, tr *tracer) *stepLog {
	n := w.maxSteps
	return &stepLog{done: make([]int64, n), loss: make([]float64, n), stall: make([]int64, n), backlog: make([]int32, n), tr: tr, rssStep: int64(w.rssStep)}
}

func (l *stepLog) record(step int64, loss float64, stall time.Duration, backlog int) {
	if step < 0 || step >= int64(len(l.done)) {
		return
	}
	l.done[step] = int64(time.Since(l.t0))
	l.loss[step] = loss
	l.stall[step] = int64(stall)
	l.backlog[step] = int32(backlog)
	l.completed.Add(1)
	if step == l.rssStep {
		l.rss = peakRSSMB()
	}
	if l.tr != nil {
		l.tr.step.Store(step)
	}
}

func (l *stepLog) onStep(s runtime.StepStats) {
	l.record(s.Step, float64(s.Loss), s.GateStall, s.FlushBacklog)
}

// serveOptions are the engine settings of every workload: the
// frugal-serve defaults (admission at 256 lookup units, 2 s request
// deadline) and, on local stores, the IVF index.
func serveOptions(ivf bool) serve.Options {
	o := serve.Options{MaxInflight: 256, RequestTimeout: 2 * time.Second}
	if ivf {
		o.Index = serve.IndexIVF
	}
	return o
}

var workloads = []*workload{
	{
		name: "train-embed-zipf", rungs: []float64{1000, 2000, 4000, 8000}, nominal: 1,
		maxSteps: 80_000, lossStep: 4_000, lossWindow: 1_000, rssStep: 16_000, lossExact: true,
		prepare: prepareZipf, setup: setupEmbed,
	},
	{
		name: "train-dlrm-avazu", rungs: []float64{1000, 2000, 4000, 8000}, nominal: 1,
		maxSteps: 600, lossStep: 100, lossWindow: 20, rssStep: 120,
		prepare: prepareAvazu, setup: setupEmbed,
	},
	{
		name: "serve-live", rungs: []float64{1000, 2000, 4000, 8000}, nominal: 1,
		maxSteps: 80_000, lossStep: 4_000, lossWindow: 1_000, rssStep: 16_000, lossExact: true,
		prepare: prepareZipf, setup: setupServeLive,
	},
	{
		name: "sharded-3", rungs: []float64{500, 1000, 2000, 4000}, nominal: 1,
		maxSteps: 60_000, lossStep: 2_000, lossWindow: 500, rssStep: 10_000, wire: true,
		prepare: prepareZipf, setup: setupSharded,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// maxReads bounds the generated read arrivals of one run; arrivals past
// it reuse the list cyclically.
const maxReads = 1 << 17

func prepareZipf(w *workload, seed int64) (*prepared, error) {
	b := zipfBatches(seed, embedRows, embedBatch, w.maxSteps)
	reads := newReadInputs(seed, embedRows, embedDim, maxReads)
	return &prepared{
		seed: seed, rows: embedRows, dim: embedDim, train: b, reads: reads,
		orc: newOracle(embedRows, b.steps(), b.at),
	}, nil
}

// avazuScale is the frugal.Recommendation default scale.
const avazuScale = 100_000

func prepareAvazu(w *workload, seed int64) (*prepared, error) {
	spec := data.Avazu.Scaled(avazuScale)
	// A twin of the job's stream (same spec, seed, batch) replays the
	// exact key sets the job trains on, for the staleness floor.
	twin, err := data.NewRECStream(spec, seed, embedBatch, int64(w.maxSteps))
	if err != nil {
		return nil, err
	}
	per := embedBatch * spec.Features
	b := &keyBatches{batch: per, keys: make([]uint32, 0, per*w.maxSteps)}
	for {
		batch, ok := twin.NextBatch()
		if !ok {
			break
		}
		for _, k := range batch.Keys {
			b.keys = append(b.keys, uint32(k))
		}
	}
	rows := int64(spec.KeySpace())
	reads := newReadInputs(seed, uint64(rows), spec.EmbDim, maxReads)
	return &prepared{
		seed: seed, rows: rows, dim: spec.EmbDim, rec: spec, reads: reads,
		orc: newOracle(rows, b.steps(), b.at),
	}, nil
}

// initHost allocates and fills a host slab exactly as a runtime job
// initialises its own (uniform ±1/√dim from the job seed), so a job given
// it through Config.Slab trains bit-identically to one that owns its slab.
func initHost(rows int64, dim int, seed int64) (*runtime.Host, error) {
	h, err := runtime.NewHost(rows, dim)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	bound := float32(1 / math.Sqrt(float64(dim)))
	h.Init(func(_ uint64, row []float32) { tensor.UniformInit(rng, row, bound) })
	return h, nil
}

// localJob builds a runtime job for p (Zipf replay or DLRM) on the
// default EngineFrugal with two trainers and a 5% cache. Traced, the
// job's queue and slab are the tracing wrappers; untraced, the job owns
// both. It returns the job and the host slab it trains.
func localJob(w *workload, p *prepared, tr *tracer, log *stepLog) (*runtime.Job, *runtime.Host, error) {
	cfg := runtime.Config{
		Engine: runtime.EngineFrugal, NumGPUs: 2, CacheRatio: 0.05,
		Rows: p.rows, Dim: p.dim, Seed: p.seed, OnStep: log.onStep,
	}
	var host *runtime.Host
	if tr != nil {
		q, err := pq.NewTwoLevelPQ(pq.TwoLevelOptions{MaxStep: int64(w.maxSteps), TableHint: (1 << 16) / 16})
		if err != nil {
			return nil, nil, err
		}
		cfg.Queue = &tracedQueue{q: q, t: tr}
		host, err = initHost(p.rows, p.dim, p.seed)
		if err != nil {
			return nil, nil, err
		}
		cfg.Slab = &tracedSlab{h: host, t: tr}
	}
	var job *runtime.Job
	var err error
	if p.train != nil {
		job, err = runtime.NewMicro(cfg, &replayTrace{b: p.train}, int64(w.maxSteps))
	} else {
		var stream *data.RECStream
		stream, err = data.NewRECStream(p.rec, p.seed, embedBatch, int64(w.maxSteps))
		if err == nil {
			job, err = runtime.NewREC(cfg, stream, nil, int64(w.maxSteps))
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if host == nil {
		host = job.Host()
	}
	return job, host, nil
}

// localEngine attaches a serve engine to a live job's slab and controller
// (through the tracing store wrapper when traced).
func localEngine(job *runtime.Job, host *runtime.Host, tr *tracer) (*serve.Engine, error) {
	ls, err := store.NewLocal(host, job.Controller())
	if err != nil {
		return nil, err
	}
	var st store.Store = ls
	if tr != nil {
		st = &tracedLocal{LocalStore: ls, t: tr}
	}
	return serve.NewFromStore(st, serveOptions(true))
}

// runJob adapts a runtime job to system.train, keeping its Result.
func runJob(job *runtime.Job, res *runtime.Result) func(ctx context.Context) error {
	return func(ctx context.Context) error {
		r, err := job.RunContext(ctx)
		*res = r
		var canceled *runtime.ErrCanceled
		if errors.As(err, &canceled) {
			return nil
		}
		return err
	}
}

func jobStats(res *runtime.Result) func() trainStats {
	return func() trainStats {
		return trainStats{cacheHit: res.CacheStats.HitRatio(), auc: res.TrainAUC}
	}
}

// setupEmbed is train-embed-zipf and train-dlrm-avazu: a runtime job read
// in-process through Query while it trains.
func setupEmbed(w *workload, p *prepared, tr *tracer) (*system, error) {
	log := newStepLog(w, tr)
	job, host, err := localJob(w, p, tr, log)
	if err != nil {
		return nil, err
	}
	eng, err := localEngine(job, host, tr)
	if err != nil {
		return nil, err
	}
	res := new(runtime.Result)
	return &system{
		log: log, samplesPerStep: embedBatch, trainers: 2,
		train: runJob(job, res), rd: engineReader{eng}, eng: eng,
		after: jobStats(res), close: func() {},
	}, nil
}

// setupServeLive is serve-live: the train-embed-zipf job behind the
// HTTP API on loopback, read over /v1 by the generator.
func setupServeLive(w *workload, p *prepared, tr *tracer) (*system, error) {
	sys, err := setupEmbed(w, p, tr)
	if err != nil {
		return nil, err
	}
	var h http.Handler = sys.eng.Handler()
	if tr != nil {
		h = &tracedHandler{h: h, t: tr}
	}
	srv, err := serve.NewHTTPServer("127.0.0.1:0", h)
	if err != nil {
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve()
	}()
	rd := newHTTPReader(srv.Addr())
	sys.rd = rd
	sys.close = func() {
		rd.close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
		<-served
	}
	return sys, nil
}

// shardCount is the sharded workload's node count.
const shardCount = 3

// shardLR is the sharded trainer's learning rate.
const shardLR = 0.05

// setupSharded is sharded-3: three coordinated shard nodes on loopback
// TCP, dialled and composed as frugal.NewServerFromShards composes them,
// trained by the benchmark's own gather→update→scatter loop and read
// in-process through Query.
func setupSharded(w *workload, p *prepared, tr *tracer) (*system, error) {
	var (
		nodes   []*shard.Node
		servers []*shard.Server
		shards  []store.Store
	)
	closeAll := func() {
		for _, s := range shards {
			s.Close()
		}
		for _, s := range servers {
			s.Close()
		}
		for _, n := range nodes {
			n.Close()
		}
	}
	init := rowInit(p.seed, p.dim)
	for i := 0; i < shardCount; i++ {
		node, err := shard.NewNode(shard.NodeOptions{
			Rows: p.rows, Dim: p.dim, Shard: i, Of: shardCount, Trainers: 1,
			MaxStep: int64(w.maxSteps), Init: init,
		})
		if err != nil {
			closeAll()
			return nil, err
		}
		nodes = append(nodes, node)
		srv, err := shard.NewServer("127.0.0.1:0", node)
		if err != nil {
			closeAll()
			return nil, err
		}
		servers = append(servers, srv)
	}
	for i, srv := range servers {
		rs, err := shard.Dial(srv.Addr())
		if err != nil {
			closeAll()
			return nil, err
		}
		if got, of := rs.Shard(); got != i || of != shardCount {
			rs.Close()
			closeAll()
			return nil, fmt.Errorf("shard at %s reports position %d/%d, want %d/%d", srv.Addr(), got, of, i, shardCount)
		}
		var s store.Store = rs
		if tr != nil {
			s = &tracedShard{Store: rs, t: tr}
		}
		shards = append(shards, s)
	}
	sh, err := store.NewSharded(shards)
	if err != nil {
		closeAll()
		return nil, err
	}
	var st store.Store = sh
	if tr != nil {
		st = &tracedComposed{ShardedStore: sh, t: tr}
	}
	eng, err := serve.NewFromStore(st, serveOptions(false))
	if err != nil {
		closeAll()
		return nil, err
	}
	log := newStepLog(w, tr)
	return &system{
		log: log, samplesPerStep: embedBatch, trainers: 1,
		train: func(ctx context.Context) error { return trainSharded(ctx, st, p.train, log) },
		rd:    engineReader{eng}, eng: eng,
		after: func() trainStats { return trainStats{} },
		close: closeAll,
	}, nil
}

// trainSharded is the sharded workload's trainer: each step gathers the
// batch's distinct keys, pulls every row toward a fixed per-key target
// (loss = ½‖row − target‖² summed over the batch's rows) and scatters
// one delta per distinct key.
func trainSharded(ctx context.Context, st store.Store, b *keyBatches, log *stepLog) error {
	dim := st.Dim()
	seen := make(map[uint64]int, b.batch)
	keys := make([]uint64, 0, b.batch)
	rows := make([]float32, b.batch*dim)
	target := make([]float32, dim)
	for step := 0; step < b.steps(); step++ {
		if ctx.Err() != nil {
			return nil
		}
		clear(seen)
		keys = keys[:0]
		for _, k := range b.at(step) {
			if _, ok := seen[uint64(k)]; !ok {
				seen[uint64(k)] = len(keys)
				keys = append(keys, uint64(k))
			}
		}
		buf := rows[:len(keys)*dim]
		if err := st.Gather(keys, buf, nil); err != nil {
			return fmt.Errorf("gather at step %d: %w", step, err)
		}
		var loss float64
		for _, k := range b.at(step) {
			row := buf[seen[uint64(k)]*dim:][:dim]
			rowTarget(uint64(k), target)
			for j := range row {
				d := float64(row[j] - target[j])
				loss += d * d / 2
			}
		}
		updates := make([]store.KeyDelta, len(keys))
		for i, k := range keys {
			row := buf[i*dim : (i+1)*dim]
			rowTarget(k, target)
			delta := make([]float32, dim)
			for j := range delta {
				delta[j] = shardLR * (target[j] - row[j])
			}
			updates[i] = store.KeyDelta{Key: k, Delta: delta}
		}
		if err := st.Scatter(int64(step), updates); err != nil {
			return fmt.Errorf("scatter at step %d: %w", step, err)
		}
		log.record(int64(step), loss, 0, 0)
	}
	return nil
}

// splitmix is the hash behind the sharded rows' initial values and
// targets.
func splitmix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// rowInit fills a row keyed on (seed, global key), so every shard of one
// table initialises identically: uniform in ±1/√dim.
func rowInit(seed int64, dim int) func(key uint64, row []float32) {
	bound := float32(1 / math.Sqrt(float64(dim)))
	return func(key uint64, row []float32) {
		h := uint64(seed)*0x9e3779b97f4a7c15 + key*0xbf58476d1ce4e5b9
		for j := range row {
			h = splitmix(h + uint64(j))
			row[j] = bound * (float32(h>>40)/float32(1<<23) - 1)
		}
	}
}

// rowTarget is the fixed point the sharded trainer pulls key's row to.
func rowTarget(key uint64, dst []float32) {
	h := key*0x632be59bd9b4e019 + 1
	for j := range dst {
		h = splitmix(h + uint64(j))
		dst[j] = float32(h>>40)/float32(1<<23) - 1
	}
}
