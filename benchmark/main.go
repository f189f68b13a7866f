// Command benchmark is the repository's end-to-end benchmark. It runs one
// named workload from its seed, measures for a fixed number of seconds,
// checks the program's outputs against inputs it generated itself, and
// prints a report followed by one JSON result line:
//
//	bash benchmark/run.sh --workload serve-live --seed 1 --seconds 20 --trace 0
//
// Every workload trains a model and serves it while it trains: an
// open-loop generator (two senders) sends bounded(2) lookups on Zipf keys
// and a 5% share of stale top-16 queries, first at the nominal rate —
// while the training metrics are taken — and then up a capacity ladder.
// The local workloads train a runtime job on the default EngineFrugal
// (two trainers, 5% cache) and answer top-K from the IVF index:
// train-embed-zipf and train-dlrm-avazu (read in-process) and serve-live
// (read over loopback HTTP). sharded-3 runs three shard nodes on loopback
// TCP trained by the benchmark's own loop; BENCHMARK.json does not list
// it, because its bounded reads fall below the staleness floor and it
// fails its output check.
//
// With --trace 0 the result carries the end-to-end metrics (tracing off).
// With --trace 1 the run is split into an untraced and a traced pass; the
// traced pass wraps the priority queue, the host slab, the serve store
// and the HTTP handler, and the result carries its per-layer metrics,
// the tracing overhead between the passes, and a "where did the time go"
// report. The traced pass's spans are written under .bench_build/spans.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		os.Exit(2)
	}
	// A run that outlives its budget is reported with every goroutine's
	// stack rather than left hanging.
	budget := time.Duration((2**seconds + 100) * float64(time.Second))
	time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "benchmark: run exceeded %v; goroutines:\n", budget)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(1)
	})
	out, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	// A metric the run could not measure (a job that stalled before the
	// measured window leaves no step times) fails the run and reads 0:
	// JSON has no NaN.
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Printf("check: %s could not be measured (%v); reported as 0\n", name, m.Value)
			out.Metrics[name] = metric{0, m.Unit}
			out.Correct = false
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	warmUp      = time.Second      // training before the measured window
	setupTimes  = 3                // set-ups per untraced run; setup_s is their median
	stopTimeout = 10 * time.Second // how long a canceled job may take to return
)

// passResult is one measured pass over a set-up system.
type passResult struct {
	setups       []float64 // seconds
	window       float64   // seconds of measured training
	windowSteps  int
	stepWall     timed   // ms between consecutive step completions, at completion
	stallShare   float64 // summed gate stall ÷ (trainers · window)
	backlog      float64 // mean flush backlog at step completion
	firstLoss    float64
	finalLoss    float64
	steps        int64   // steps completed in the pass
	trainWall    float64 // seconds the trainer ran
	tput         float64 // samples/s in the window
	rungs        []rungResult
	ivfPending   samples
	stats        trainStats
	serveLook    int64
	serveTopK    int64
	serveRefr    int64
	serveShed    int64
	trainers     int
	lossProblem  string
	stopProblem  string  // the trainer did not return after cancellation
	stallProblem string  // training stopped completing steps before untilStep
	rss          float64 // peak RSS (MB) when training reached the workload's rssStep
}

// runPass sets the workload up `setups` times (keeping the last), then
// trains for the warm-up plus `seconds`, driving the read ladder over the
// measured window, and on until training has completed step untilStep.
func runPass(w *workload, p *prepared, seconds float64, tr *tracer, setups, untilStep int) (*passResult, error) {
	res := &passResult{}
	var sys *system
	for i := 0; i < setups; i++ {
		start := time.Now()
		s, err := w.setup(w, p, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
		if i < setups-1 {
			s.close()
		} else {
			sys = s
		}
	}
	defer sys.close()
	res.trainers = sys.trainers
	// Collect the discarded set-ups' garbage now, so every run starts
	// training from the same heap and the collector's cycles fall at the
	// same points of the run.
	goruntime.GC()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trainDone := make(chan error, 1)
	sys.log.t0 = time.Now()
	go func() { trainDone <- sys.train(ctx) }()
	finished := false
	var trainErr error
	wait := func(d time.Duration) {
		if finished {
			time.Sleep(d)
			return
		}
		select {
		case trainErr = <-trainDone:
			finished = true
		case <-time.After(d):
		}
	}

	// Warm-up, then the nominal phase: reads at the nominal rate while the
	// training metrics are measured. The capacity ladder (the other rates,
	// ascending) follows, so its overload cannot leak into the nominal
	// figures.
	wait(warmUp)
	chk := &checker{orc: p.orc, rows: p.rows, dim: p.dim}
	res.rungs = make([]rungResult, len(w.rungs))
	order := []int{w.nominal}
	for i := range w.rungs {
		if i != w.nominal {
			order = append(order, i)
		}
	}
	var wStart, wEnd time.Duration
	base := 0
	for _, i := range order {
		if finished && trainErr != nil {
			break
		}
		dur := rungDuration(seconds, len(w.rungs), i == w.nominal)
		if i == w.nominal {
			wStart = time.Since(sys.log.t0)
		}
		res.rungs[i] = runRung(ctx, sys.rd, chk, p.reads, base, w.rungs[i], dur, tr)
		if i == w.nominal {
			wEnd = time.Since(sys.log.t0)
		}
		base += int(w.rungs[i] * dur.Seconds())
		if sys.eng != nil {
			res.ivfPending.add(float64(sys.eng.IndexStats().Pending))
		}
	}
	// Train on to the fixed loss (and memory) step if the run ended short.
	// A job that stops completing steps is reported, not waited on.
	last, lastAt := sys.log.completed.Load(), time.Now()
	for !finished && sys.log.completed.Load() <= int64(untilStep) {
		wait(5 * time.Millisecond)
		if c := sys.log.completed.Load(); c != last {
			last, lastAt = c, time.Now()
		} else if time.Since(lastAt) > stopTimeout {
			res.stallProblem = fmt.Sprintf("training completed no step for %v (stuck after %d steps)", stopTimeout, c)
			fmt.Fprintln(os.Stderr, "benchmark:", res.stallProblem)
			break
		}
	}
	cancel()
	if !finished {
		select {
		case trainErr = <-trainDone:
			finished = true
		case <-time.After(stopTimeout):
			// The trainer never returned: the job hangs on its way out.
			// Count it as a failed operation, keep the stacks for the
			// report, and measure what the step log recorded.
			var stacks strings.Builder
			pprof.Lookup("goroutine").WriteTo(&stacks, 2)
			fmt.Fprintf(os.Stderr, "benchmark: training did not stop within %v of cancellation; goroutines:\n%s", stopTimeout, stacks.String())
			res.stopProblem = fmt.Sprintf("training did not stop within %v of cancellation", stopTimeout)
		}
	}
	res.trainWall = time.Since(sys.log.t0).Seconds()
	if trainErr != nil {
		return nil, fmt.Errorf("training: %w", trainErr)
	}
	if finished {
		res.stats = sys.after()
	}
	if sys.eng != nil {
		m := sys.eng.Metrics()
		res.serveLook, res.serveTopK, res.serveRefr, res.serveShed = m.Lookups, m.TopKs, m.Refreshed, m.Shed
	}
	res.summarizeSteps(sys, w, wStart, wEnd)
	res.rss = sys.log.rss
	return res, nil
}

// nominalShare is the share of the measured seconds spent at the nominal
// rate; the capacity rungs split the rest.
const nominalShare = 0.6

func rungDuration(seconds float64, rungs int, nominal bool) time.Duration {
	if rungs == 1 {
		return time.Duration(seconds * float64(time.Second))
	}
	if nominal {
		return time.Duration(seconds * nominalShare * float64(time.Second))
	}
	return time.Duration(seconds * (1 - nominalShare) / float64(rungs-1) * float64(time.Second))
}

// summarizeSteps derives the training metrics from the step log: steps
// completed inside the nominal phase [wStart, wEnd] give throughput, step
// wall times and the gate-stall share; warm-up steps are excluded.
func (r *passResult) summarizeSteps(sys *system, w *workload, wStart, wEnd time.Duration) {
	l := sys.log
	n := int(l.completed.Load())
	if n > len(l.done) {
		n = len(l.done)
	}
	r.steps = int64(n)
	done := append([]int64(nil), l.done[:n]...)
	var times []float64
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	end := int64(wEnd)
	if n > 0 && done[n-1] < end {
		end = done[n-1] // the trace ran out inside the window
	}
	var stall int64
	var backlog float64
	for i := 0; i < n; i++ {
		if done[i] < int64(wStart) || done[i] > end {
			continue
		}
		r.windowSteps++
		at := float64(done[i]-int64(wStart)) / 1e9
		times = append(times, at)
		if i > 0 {
			r.stepWall.add(at, float64(done[i]-done[i-1])/1e6)
		}
	}
	for i := 0; i < n; i++ {
		if l.done[i] >= int64(wStart) && l.done[i] <= end {
			stall += l.stall[i]
			backlog += float64(l.backlog[i])
		}
	}
	r.window = max(0, float64(end-int64(wStart))/1e9) // 0: no step inside the window
	r.tput = windowedRate(times, r.window) * float64(sys.samplesPerStep)
	r.stallShare = ratio(float64(stall)/1e9, float64(sys.trainers)*r.window)
	r.backlog = ratio(backlog, float64(r.windowSteps))
	if n > 0 {
		r.firstLoss = l.loss[0]
	}
	switch {
	case n <= w.lossStep:
		r.lossProblem = fmt.Sprintf("training stopped at %d steps, before the loss step %d", n, w.lossStep)
	default:
		for _, x := range l.loss[w.lossStep-w.lossWindow+1 : w.lossStep+1] {
			r.finalLoss += x
		}
		r.finalLoss /= float64(w.lossWindow)
		if math.IsNaN(r.finalLoss) || math.IsInf(r.finalLoss, 0) {
			r.lossProblem = fmt.Sprintf("final loss %v is not finite", r.finalLoss)
		} else if !(r.finalLoss < r.firstLoss) {
			r.lossProblem = fmt.Sprintf("final loss %v is not below the first step's %v", r.finalLoss, r.firstLoss)
		}
	}
}

// counts turns a pass into the result's attempted/failed and the
// correctness verdict. Every read arrival and every trained step is an
// attempted operation. Wrong outputs, staleness violations and errors
// fail at every rate; sheds, timeouts and dropped arrivals fail at and
// below the nominal rate — above it they are the capacity probe's
// signal, which the highest rate meeting the SLO reports.
func (r *passResult) counts(w *workload) (attempted, failed int64, correct bool, why []string) {
	attempted = r.steps
	correct = true
	for i, rr := range r.rungs {
		attempted += rr.attempted
		failed += rr.fail.errors + rr.fail.wrong + rr.fail.stale
		if i <= w.nominal {
			failed += rr.fail.shed + rr.fail.timeouts + rr.fail.dropped
		}
		if rr.fail.wrong > 0 {
			correct = false
			why = append(why, fmt.Sprintf("%.0f/s: %d wrong outputs (first: %s)", rr.rate, rr.fail.wrong, rr.firstWrong))
		}
		if rr.fail.stale > 0 {
			correct = false
			why = append(why, fmt.Sprintf("%.0f/s: %d bounded(%d) reads below the staleness floor", rr.rate, rr.fail.stale, readBound))
		}
		if rr.firstErr != nil {
			why = append(why, fmt.Sprintf("%.0f/s: %d errors (first: %v)", rr.rate, rr.fail.errors, rr.firstErr))
		}
	}
	if r.lossProblem != "" {
		correct = false
		why = append(why, r.lossProblem)
	}
	for _, p := range []string{r.stallProblem, r.stopProblem} {
		if p != "" {
			correct = false
			failed++
			why = append(why, p)
		}
	}
	return attempted, failed, correct, why
}

func (r *passResult) staleReads() int64 {
	var n int64
	for _, rr := range r.rungs {
		n += rr.fail.stale
	}
	return n
}

// maxRateAtSLO is the highest read rate meeting the SLO. The ladder's
// rates are coarse (×2 apart), so the rate is interpolated rather than
// read off a rung: above the highest rung that meets every condition, if
// the next rung missed only on p99, the rate where p99 crosses the limit
// is found by log-log interpolation between the two rungs. When no rung
// meets the SLO the lowest rung's rate is scaled down by how far its p99
// overshot. 0 only when no lookup completed.
func (r *passResult) maxRateAtSLO() float64 {
	best := -1
	for i := range r.rungs {
		if r.rungs[i].meetsSLO() {
			best = i
		}
	}
	if best < 0 {
		if len(r.rungs) == 0 || r.rungs[0].lookup.n() == 0 {
			return 0
		}
		lo := &r.rungs[0]
		return lo.rate * math.Min(1, sloP99/lo.p99())
	}
	a := &r.rungs[best]
	if best+1 == len(r.rungs) {
		return a.rate
	}
	b := &r.rungs[best+1]
	pa, pb := a.p99(), b.p99()
	if b.lookup.n() == 0 || pb <= sloP99 || pa <= 0 {
		return a.rate
	}
	t := math.Log(sloP99/pa) / math.Log(pb/pa)
	return a.rate * math.Pow(b.rate/a.rate, math.Max(0, math.Min(1, t)))
}

func run(w *workload, seed int64, seconds float64, traced bool) (*result, error) {
	p, err := w.prepare(w, seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	if !traced {
		pass, err := runPass(w, p, seconds, nil, setupTimes, max(w.lossStep, w.rssStep))
		if err != nil {
			return nil, err
		}
		return endToEnd(w, seed, pass), nil
	}
	plain, err := runPass(w, p, seconds/2, nil, 1, w.lossStep)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	pass, err := runPass(w, p, seconds/2, tr, 1, w.lossStep)
	if err != nil {
		return nil, err
	}
	return perLayer(w, seed, plain, pass, tr)
}

// endToEnd reports the gated end-to-end metrics: the ones whose run-to-run
// spread stays inside the 0.25 bound even when the host steals CPU from
// the VM. Read latencies and the step tail are printed here and reported
// per-layer by traced runs (readMetrics): under 5–15% CPU steal on the
// 2-vCPU reference VM their IQR/median over ten seeds reached 0.3–0.7.
func endToEnd(w *workload, seed int64, pass *passResult) *result {
	m := map[string]metric{
		"setup_s":             {median(pass.setups), "s"},
		"train_samples_per_s": {pass.tput, "samples/s"},
		"step_p50_ms":         {pass.stepWall.windowedPct(pass.window, 0.5), "ms"},
		"final_loss":          {pass.finalLoss, "loss"},
		"peak_rss_mb":         {pass.rss, "MB"},
	}
	attempted, failed, correct, why := pass.counts(w)
	fmt.Printf("== %s seed %d: end-to-end (tracing off), %d trainers\n", w.name, seed, pass.trainers)
	fmt.Printf("set-up %s s (median of %d)\n", joinFloats(pass.setups, 3), len(pass.setups))
	all := pass.stepWall.all()
	fmt.Printf("training: %.0f samples/s (median of %d windows; %d steps over %.2f s after %v warm-up)\n",
		pass.tput, windows(pass.window, pass.windowSteps), pass.windowSteps, pass.window, warmUp)
	fmt.Printf("step wall: p50 %.3f ms (median of %d windows), p95 %.3f ms, p99 %.3f ms (n=%d, %d beyond p99, highest percentile with ≥10 beyond: p%s)\n",
		m["step_p50_ms"].Value, windows(pass.window, pass.stepWall.n()), all.pct(0.95), all.pct(0.99),
		all.n(), all.beyond(0.99), pctName(all.supported()))
	fmt.Printf("loss: first step %.7g, mean of steps %d..%d %.9g; peak RSS %.1f MB at step %d, %.1f MB at the end\n",
		pass.firstLoss, w.lossStep-w.lossWindow+1, w.lossStep, pass.finalLoss, pass.rss, w.rssStep, peakRSSMB())
	printLadder(w, pass)
	for _, s := range why {
		fmt.Println("check:", s)
	}
	fmt.Printf("ops: attempted %d, failed %d (ratio %.5f), staleness violations %d\n",
		attempted, failed, ratio(float64(failed), float64(attempted)), pass.staleReads())
	return &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}
}

func printLadder(w *workload, pass *passResult) {
	fmt.Println("reads (open loop, latency from due time; the nominal rate runs first, then the capacity rungs):")
	fmt.Println("  rate/s    sent   lookup p50 ms  p99 ms (n, beyond p99)   top-K p50 ms  p90 ms (n)   lag p99 ms  failed  backlog  SLO")
	for i := range pass.rungs {
		rr := &pass.rungs[i]
		mark := " "
		if i == w.nominal {
			mark = "*"
		}
		la, ta := rr.lookup.all(), rr.topk.all()
		fmt.Printf(" %s%6.0f %7d   %12.3f %7.3f (%d, %d)   %12.3f %7.3f (%d)   %10.3f  %6d  %-7s  %v\n",
			mark, rr.rate, rr.attempted, rr.lookup.windowedPct(rr.span, 0.5), la.pct(0.99), la.n(), la.beyond(0.99),
			rr.topk.windowedPct(rr.span, 0.5), ta.pct(0.9), ta.n(),
			rr.lag.pct(0.99), rr.fail.total(), map[bool]string{true: "growing", false: "flat"}[rr.growing], rr.meetsSLO())
	}
	fmt.Printf("  (* nominal rate; p50s are medians over 1 s sub-windows. Highest rate meeting the SLO — p99 ≤ %.0f ms, failed ≤ %.3f, backlog flat — %.0f req/s, interpolated between rungs)\n",
		sloP99, sloFailed, pass.maxRateAtSLO())
}

func pctName(q float64) string {
	if q == 0 {
		return "-"
	}
	return strconv.FormatFloat(q*100, 'f', -1, 64)
}

func joinFloats(xs []float64, prec int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(s, " ")
}

// peakRSSMB is the process's peak resident set so far (getrusage
// ru_maxrss, kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// readMetrics are the read side as the client sees it at the nominal
// rate, and the step-time tail: reported per-layer by traced runs (from
// their untraced pass), not gated.
func readMetrics(w *workload, pass *passResult) map[string]metric {
	nom := &pass.rungs[w.nominal]
	return map[string]metric{
		"read.lookup_p50_ms":          {nom.lookup.windowedPct(nom.span, 0.5), "ms"},
		"read.lookup_p99_ms":          {nom.lookup.all().pct(0.99), "ms"},
		"read.topk_p50_ms":            {nom.topk.windowedPct(nom.span, 0.5), "ms"},
		"read.topk_p90_ms":            {nom.topk.all().pct(0.9), "ms"},
		"read.lookup_max_rate_at_slo": {pass.maxRateAtSLO(), "req/s"},
		"train.step_p99_ms":           {pass.stepWall.all().pct(0.99), "ms"},
	}
}

// spanDir is where traced runs leave their span logs, inside the
// checkout's build directory.
const spanDir = ".bench_build/spans"

func writeSpanLog(w *workload, seed int64, tr *tracer) (string, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeSpans(path); err != nil {
		return "", fmt.Errorf("span log %s: %w", path, err)
	}
	return path, nil
}
