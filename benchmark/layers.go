package main

import (
	"fmt"
	"math"
)

// perLayer assembles the traced run's result: per-layer metrics from the
// traced pass, the read-side and step-tail figures of the untraced pass
// (readMetrics), and the tracing overhead between the two. A layer a
// workload does not exercise (the HTTP front end on in-process reads, the
// runtime job on the sharded trainer) reports 0 and is marked n/a in the
// report; the shard-wire metrics are reported by the wire workload only.
func perLayer(w *workload, seed int64, plain, pass *passResult, tr *tracer) (*result, error) {
	steps := float64(pass.steps)
	trainers := float64(pass.trainers)
	nom := &pass.rungs[w.nominal]
	lookups := float64(pass.serveLook)
	reads := float64(pass.serveLook + pass.serveTopK)

	// Trainer-side timed intervals per step (per trainer): host reads,
	// queue enqueue/adjust and Top scans, and the gate stall.
	stallMs := pass.stallShare * pass.window * 1e3 / math.Max(float64(pass.windowSteps), 1)
	stepMs := pass.trainWall * 1e3 / math.Max(steps, 1)
	hostReadMs := float64(tr.hostRead.ns.Load()) / 1e6 / trainers / math.Max(steps, 1)
	enqMs := float64(tr.pqEnqueue.ns.Load()) / 1e6 / trainers / math.Max(steps, 1)
	topMs := float64(tr.pqTop.ns.Load()) / 1e6 / trainers / math.Max(steps, 1)
	shardMs := float64(tr.gather.ns.Load()+tr.scatter.ns.Load()) / 1e6 / math.Max(steps, 1)
	timedMs := hostReadMs + enqMs + topMs + shardMs + stallMs
	selfMs := stepMs - timedMs

	handlerP50 := tr.handler.lat.pct(0.5) / 1e3
	handlerP99 := tr.handler.lat.pct(0.99) / 1e3
	outsideP99 := 0.0
	if tr.handler.calls.Load() > 0 {
		client := nom.lookup.all()
		client.merge(nom.topk.all())
		outsideP99 = client.pct(0.99) - handlerP99
	}
	rpcCalls := func(ops ...string) float64 {
		var n int64
		for _, op := range ops {
			n += tr.rpc[op].calls.Load()
		}
		return float64(n)
	}
	zeroNaN := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return x
	}
	attempted, failed, correct, why := pass.counts(w)
	if w.lossExact && pass.lossProblem == "" && plain.lossProblem == "" && float32(pass.finalLoss) != float32(plain.finalLoss) {
		correct = false
		why = append(why, fmt.Sprintf("traced final loss %.9g differs from untraced %.9g", pass.finalLoss, plain.finalLoss))
	}
	pa, pf, pc, pwhy := plain.counts(w)
	attempted += pa
	failed += pf
	correct = correct && pc
	why = append(why, pwhy...)

	m := map[string]metric{
		"runtime.gate_stall_share":    {pass.stallShare, "ratio"},
		"runtime.step_self_ms":        {zeroNaN(selfMs), "ms"},
		"p2f.flush_backlog_mean":      {pass.backlog, "entries"},
		"p2f.deferred_ratio":          {ratio(float64(tr.pqDeferred.Load()), float64(tr.pqClaimed.Load())), "ratio"},
		"cache.hit_ratio":             {pass.stats.cacheHit, "ratio"},
		"host.read_calls_per_step":    {ratio(float64(tr.hostRead.calls.Load()), steps), "calls"},
		"host.read_ns_per_step":       {ratio(float64(tr.hostRead.ns.Load()), steps), "ns"},
		"host.write_calls_per_step":   {ratio(float64(tr.hostWrite.calls.Load()), steps), "calls"},
		"host.write_ns_per_step":      {ratio(float64(tr.hostWrite.ns.Load()), steps), "ns"},
		"pq.enqueue_ns_per_step":      {ratio(float64(tr.pqEnqueue.ns.Load()), steps), "ns"},
		"pq.process_self_ns_per_step": {ratio(float64(tr.pqProcess.ns.Load()-tr.pqCallback.ns.Load()), steps), "ns"},
		"pq.top_calls_per_step":       {ratio(float64(tr.pqTop.calls.Load()), steps), "calls"},
		"pq.stale_residue_ratio":      {ratio(float64(tr.pqResidue.Load()), float64(tr.pqResidue.Load()+tr.pqClaimed.Load())), "ratio"},
		"http.handler_p50_ms":         {zeroNaN(handlerP50), "ms"},
		"http.handler_p99_ms":         {zeroNaN(handlerP99), "ms"},
		"http.outside_handler_p99_ms": {zeroNaN(outsideP99), "ms"},
		"serve.resolve_us":            {ratio(float64(tr.resolve.ns.Load()+tr.flushKey.ns.Load())/1e3, lookups), "us"},
		"serve.refresh_ratio":         {ratio(float64(pass.serveRefr), lookups), "ratio"},
		"serve.shed_ratio":            {ratio(float64(pass.serveShed), reads+float64(pass.serveShed)), "ratio"},
		"serve.ivf_repair_backlog":    {zeroNaN(pass.ivfPending.mean()), "entries"},
		"store.watermark_us":          {ratio(float64(tr.watermark.ns.Load())/1e3, float64(tr.watermark.calls.Load())), "us"},
		"bench.generator_lag_p99_ms":  {zeroNaN(nom.lag.pct(0.99)), "ms"},
		"bench.tracing_overhead":      {ratio(pass.tput, plain.tput), "ratio"},
		"bench.layer_sum_share":       {zeroNaN(ratio(timedMs, stepMs)), "ratio"},
		"bench.ops_failed_ratio":      {ratio(float64(failed), float64(attempted)), "ratio"},
		"bench.staleness_violations":  {float64(pass.staleReads() + plain.staleReads()), "count"},
		"model.train_auc":             {pass.stats.auc, "auc"},
	}
	for k, v := range readMetrics(w, plain) {
		m[k] = metric{zeroNaN(v.Value), v.Unit}
	}
	if w.wire {
		m["shard.rpc_calls_per_step"] = metric{ratio(rpcCalls("gather", "scatter"), steps), "calls"}
		m["shard.rpc_calls_per_lookup"] = metric{ratio(rpcCalls("read_row", "row_staleness", "watermark", "flush_key", "version", "topk"), reads), "calls"}
		m["shard.bytes_per_step"] = metric{ratio(float64(tr.rpcBytes.Load()), steps), "bytes"}
		m["store.fanout_overhead_us"] = metric{ratio(float64(tr.fanout.ns.Load())/1e3, float64(tr.fanout.calls.Load())), "us"}
		for _, op := range shardReportOps {
			m["shard.rpc_p50_us."+op] = metric{zeroNaN(tr.rpc[op].lat.pct(0.5)), "us"}
			m["shard.rpc_p99_us."+op] = metric{zeroNaN(tr.rpc[op].lat.pct(0.99)), "us"}
		}
	}

	path, err := writeSpanLog(w, seed, tr)
	if err != nil {
		return nil, err
	}

	fmt.Printf("== %s seed %d: where did the time go (traced pass, %d trainers, %d steps in %.2f s; untraced pass %.0f samples/s, traced %.0f, overhead ×%.3f)\n",
		w.name, seed, pass.trainers, pass.steps, pass.trainWall, plain.tput, pass.tput, ratio(pass.tput, plain.tput))
	row := func(label string, ms float64) {
		if ms == 0 {
			return // a layer this workload does not cross
		}
		fmt.Printf("  %-44s %9.4f ms/step  %6.1f%%\n", label, ms, 100*ratio(ms, stepMs))
	}
	fmt.Println("training step, per trainer (end-to-end = wall time per completed step):")
	row("end-to-end step wall", stepMs)
	row("gate stall (runtime)", stallMs)
	row("host reads: gather misses (host)", hostReadMs)
	row("queue enqueue + adjust (pq)", enqMs)
	row("queue Top scans (pq)", topMs)
	row("store Gather + Scatter across the shards (store/shard)", shardMs)
	row("self: compute, cache, bookkeeping (residual)", selfMs)
	fmt.Printf("  bench.layer_sum_share %.3f\n", ratio(timedMs, stepMs))
	fmt.Printf("background, per step: host writes %.4f ms (%.1f calls), queue ProcessBatch self %.4f ms, flush callbacks %.4f ms; deferred ratio %.3f, stale residue ratio %.3f, cache hit ratio %.3f\n",
		ratio(float64(tr.hostWrite.ns.Load())/1e6, steps), ratio(float64(tr.hostWrite.calls.Load()), steps),
		ratio(float64(tr.pqProcess.ns.Load()-tr.pqCallback.ns.Load())/1e6, steps), ratio(float64(tr.pqCallback.ns.Load())/1e6, steps),
		m["p2f.deferred_ratio"].Value, m["pq.stale_residue_ratio"].Value, pass.stats.cacheHit)
	client := nom.lookup.all()
	fmt.Printf("reads at the nominal %.0f/s: client lookup p50 %.3f ms, p99 %.3f ms (n=%d)\n", nom.rate, client.pct(0.5), client.pct(0.99), client.n())
	if tr.handler.calls.Load() > 0 {
		fmt.Printf("  http handler p50 %.3f ms, p99 %.3f ms (n=%d, all rates); outside the handler (client, wire, generator) p99 %.3f ms\n",
			handlerP50, handlerP99, tr.handler.lat.n(), outsideP99)
	} else {
		fmt.Println("  http: n/a (in-process reads)")
	}
	fmt.Printf("  resolve (RowStaleness + FlushKey) %.3f µs per lookup, refresh ratio %.3f, shed ratio %.4f, IVF repair backlog %.0f\n",
		m["serve.resolve_us"].Value, m["serve.refresh_ratio"].Value, m["serve.shed_ratio"].Value, m["serve.ivf_repair_backlog"].Value)
	fmt.Printf("  store Watermark %.3f µs per call (%d calls, all callers)\n", m["store.watermark_us"].Value, tr.watermark.calls.Load())
	if w.wire {
		fmt.Print("shard wire (payload bytes computed as keys × dim × 4, not measured):\n")
		for _, op := range rpcOps {
			o := tr.rpc[op]
			if o.calls.Load() == 0 {
				continue
			}
			fmt.Printf("  %-14s calls %8d  p50 %8.1f µs  p99 %8.1f µs\n", op, o.calls.Load(), o.lat.pct(0.5), o.lat.pct(0.99))
		}
		fmt.Printf("  rpc calls per step %.2f, per read %.2f, bytes per step %.0f, fan-out overhead %.1f µs per Gather\n",
			m["shard.rpc_calls_per_step"].Value, m["shard.rpc_calls_per_lookup"].Value, m["shard.bytes_per_step"].Value, m["store.fanout_overhead_us"].Value)
	} else {
		fmt.Println("shard wire: n/a (local store)")
	}
	fmt.Printf("generator lag p99 %.3f ms; spans: %d kept, %d over capacity → %s\n", m["bench.generator_lag_p99_ms"].Value, len(tr.spans), tr.dropped, path)
	for _, s := range why {
		fmt.Println("check:", s)
	}
	return &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// shardReportOps are the wire operations with reported percentiles.
var shardReportOps = []string{"gather", "scatter", "read_row", "row_staleness", "watermark"}
