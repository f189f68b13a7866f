package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"frugal/internal/serve"
)

// The read side: every workload serves the model it trains. An open-loop
// generator sends a fixed mix — bounded(2) lookups on Zipf keys plus a
// small share of stale-level top-K queries — on an absolute arrival
// schedule, so a stall delays every later request and shows in their
// latency. Top-K runs at the stale level because a bounded(k) IVF query
// must first repair every row flushed up to k steps ago, and under
// full-speed training the flush stream outruns repair: such queries take
// seconds. Stale queries pay only the opportunistic repair budget, and
// the repair backlog is reported as serve.ivf_repair_backlog.

const (
	readBound   = 2  // the bounded(k) level every lookup uses
	topKK       = 16 // top-K result count
	topKPercent = 5  // share of arrivals that are top-K queries
	senders     = 2  // sending goroutines (≤ nproc of the reference machine)
	dropAfter   = time.Second
	opTimeout   = 2 * time.Second
	sloP99      = 50.0  // ms, lookup p99 limit of the rate ladder
	sloFailed   = 0.001 // failed ÷ attempted limit of the rate ladder
)

// lookupResult is what the benchmark checks on a served row.
type lookupResult struct {
	version   uint64
	watermark int64
	staleness int64
	values    []float32
}

// candidate is one top-K result as the client sees it.
type candidate struct {
	key   uint64
	score float32
}

// reader is a serving surface the generator drives: in-process Query or
// HTTP.
type reader interface {
	lookup(ctx context.Context, id int64, key uint64) (lookupResult, error)
	topk(ctx context.Context, id int64, q []float32, k int) ([]candidate, error)
}

// errShed marks an admission refusal; errTimeout a request that ran out
// of time.
var (
	errShed    = errors.New("shed")
	errTimeout = errors.New("timeout")
)

func classify(err error) error {
	var shed *serve.ErrShed
	switch {
	case errors.As(err, &shed):
		return errShed
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return errTimeout
	}
	return err
}

// engineReader queries a serve engine in-process.
type engineReader struct{ eng *serve.Engine }

func (r engineReader) lookup(ctx context.Context, _ int64, key uint64) (lookupResult, error) {
	resp, err := r.eng.Query(ctx, serve.Request{Key: key, Level: serve.Bounded(readBound)})
	if err != nil {
		return lookupResult{}, classify(err)
	}
	m := resp.Meta
	return lookupResult{version: m.Version, watermark: m.Watermark, staleness: m.Staleness, values: resp.Values}, nil
}

func (r engineReader) topk(ctx context.Context, _ int64, q []float32, k int) ([]candidate, error) {
	resp, err := r.eng.Query(ctx, serve.Request{Vector: q, K: k, Level: serve.Stale()})
	if err != nil {
		return nil, classify(err)
	}
	out := make([]candidate, len(resp.Results))
	for i, c := range resp.Results {
		out[i] = candidate{key: c.Key, score: c.Score}
	}
	return out, nil
}

// httpReader queries the /v1 routes over loopback HTTP with at most
// `senders` connections.
type httpReader struct {
	base   string
	client *http.Client
}

func newHTTPReader(addr string) *httpReader {
	tr := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	return &httpReader{base: "http://" + addr, client: &http.Client{Transport: tr}}
}

func (r *httpReader) close() { r.client.CloseIdleConnections() }

func (r *httpReader) do(ctx context.Context, id int64, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return classify(err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return json.NewDecoder(resp.Body).Decode(out)
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return errShed
	}
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	if env.Code == "deadline" {
		return errTimeout
	}
	return fmt.Errorf("http %d: %s (%s)", resp.StatusCode, env.Error, env.Code)
}

func (r *httpReader) lookup(ctx context.Context, id int64, key uint64) (lookupResult, error) {
	var out struct {
		Values    []float32 `json:"values"`
		Version   uint64    `json:"version"`
		Watermark int64     `json:"watermark"`
		Staleness int64     `json:"staleness"`
	}
	url := r.base + "/v1/lookup?key=" + strconv.FormatUint(key, 10) + "&level=bounded(" + strconv.Itoa(readBound) + ")"
	if err := r.do(ctx, id, http.MethodGet, url, nil, &out); err != nil {
		return lookupResult{}, err
	}
	return lookupResult{version: out.Version, watermark: out.Watermark, staleness: out.Staleness, values: out.Values}, nil
}

func (r *httpReader) topk(ctx context.Context, id int64, q []float32, k int) ([]candidate, error) {
	body, err := json.Marshal(map[string]any{"query": q, "k": k, "level": "stale"})
	if err != nil {
		return nil, err
	}
	var out struct {
		Results []struct {
			Key   uint64  `json:"key"`
			Score float32 `json:"score"`
		} `json:"results"`
	}
	if err := r.do(ctx, id, http.MethodPost, r.base+"/v1/topk", body, &out); err != nil {
		return nil, err
	}
	res := make([]candidate, len(out.Results))
	for i, c := range out.Results {
		res[i] = candidate{key: c.Key, score: c.Score}
	}
	return res, nil
}

// readInputs are the generated read arrivals: a Zipf key and an op kind
// per arrival, plus a pool of top-K query vectors.
type readInputs struct {
	keys    []uint64
	isTopK  []bool
	queries [][]float32
}

// failures splits failed operations by cause.
type failures struct {
	errors, shed, timeouts, dropped, wrong, stale int64
}

func (f failures) total() int64 {
	return f.errors + f.shed + f.timeouts + f.dropped + f.wrong + f.stale
}

func (f *failures) add(o failures) {
	f.errors += o.errors
	f.shed += o.shed
	f.timeouts += o.timeouts
	f.dropped += o.dropped
	f.wrong += o.wrong
	f.stale += o.stale
}

// rungResult is one rate of the ladder.
type rungResult struct {
	rate         float64
	span         float64 // seconds of arrivals
	attempted    int64
	fail         failures
	lookup, topk timed   // ms from due time to response, at the due time
	lag          samples // ms the send ran behind its due time
	growing      bool    // the arrival backlog grew over the rung
	firstErr     error
	firstWrong   string
}

func (r *rungResult) failedRatio() float64 {
	return ratio(float64(r.fail.total()), float64(r.attempted))
}

// p99 is the rung's lookup p99 over all its lookups. Tail percentiles
// are taken over the whole rung, not per sub-window: a garbage-collection
// cycle fills a few one-second windows with slow reads, so window p99s
// are bimodal and their median jumps with how many windows a cycle hit.
func (r *rungResult) p99() float64 { return r.lookup.all().pct(0.99) }

// meetsSLO is the ladder's acceptance rule for a rung.
func (r *rungResult) meetsSLO() bool {
	return r.lookup.n() > 0 && r.p99() <= sloP99 && r.failedRatio() <= sloFailed && !r.growing
}

// checker validates served outputs against the benchmark's own inputs.
type checker struct {
	orc  *oracle
	rows int64
	dim  int
}

func (c *checker) lookup(key uint64, r lookupResult) (stale bool, wrong string) {
	if len(r.values) != c.dim {
		return false, fmt.Sprintf("lookup %d: %d values, want %d", key, len(r.values), c.dim)
	}
	for _, v := range r.values {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false, fmt.Sprintf("lookup %d: non-finite value", key)
		}
	}
	if r.staleness > readBound {
		return true, ""
	}
	return c.orc.violates(key, r.version, r.watermark, readBound), ""
}

func (c *checker) topk(res []candidate, k int) string {
	if len(res) != k {
		return fmt.Sprintf("top-K: %d results, want %d", len(res), k)
	}
	seen := make(map[uint64]bool, len(res))
	for i, r := range res {
		if r.key >= uint64(c.rows) {
			return fmt.Sprintf("top-K: key %d out of range", r.key)
		}
		if seen[r.key] {
			return fmt.Sprintf("top-K: duplicate key %d", r.key)
		}
		seen[r.key] = true
		if i > 0 && r.score > res[i-1].score {
			return "top-K: scores not in descending order"
		}
	}
	return ""
}

// runRung drives one rate for dur, starting arrival numbering at base
// (request IDs stay unique across rungs). rec, when set, records a
// client-side span for sampled requests.
func runRung(ctx context.Context, rd reader, chk *checker, in *readInputs, base int, rate float64, dur time.Duration, rec *tracer) rungResult {
	res := rungResult{rate: rate, span: dur.Seconds()}
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	period := time.Duration(float64(time.Second) / rate)
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	lagAt := make([]float64, n)
	start := time.Now()
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local rungResult
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					break
				}
				due := start.Add(time.Duration(i) * period)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				lag := sent.Sub(due)
				lagAt[i] = float64(lag) / 1e6
				local.attempted++
				local.lag.add(float64(lag) / 1e6)
				if lag > dropAfter {
					local.fail.dropped++
					continue
				}
				id := int64(base + i)
				j := (base + i) % len(in.keys)
				octx, cancel := context.WithTimeout(ctx, opTimeout)
				var err error
				var wrong string
				stale := false
				if in.isTopK[j] {
					var out []candidate
					out, err = rd.topk(octx, id, in.queries[j%len(in.queries)], topKK)
					if err == nil {
						local.topk.add(due.Sub(start).Seconds(), float64(time.Since(due))/1e6)
						wrong = chk.topk(out, topKK)
					}
				} else {
					var out lookupResult
					out, err = rd.lookup(octx, id, in.keys[j])
					if err == nil {
						local.lookup.add(due.Sub(start).Seconds(), float64(time.Since(due))/1e6)
						stale, wrong = chk.lookup(in.keys[j], out)
					}
				}
				end := time.Now()
				cancel()
				if rec != nil && id%readSample == 0 {
					name := "bench.lookup"
					if in.isTopK[j] {
						name = "bench.topk"
					}
					rec.record(span{ID: id, Name: name, Start: rec.ns(sent), End: rec.ns(end), Key: int64(in.keys[j])})
				}
				switch {
				case errors.Is(err, errShed):
					local.fail.shed++
				case errors.Is(err, errTimeout):
					local.fail.timeouts++
				case err != nil:
					local.fail.errors++
					if local.firstErr == nil {
						local.firstErr = err
					}
				case wrong != "":
					local.fail.wrong++
					if local.firstWrong == "" {
						local.firstWrong = wrong
					}
				case stale:
					local.fail.stale++
				}
			}
			mu.Lock()
			res.attempted += local.attempted
			res.fail.add(local.fail)
			res.lookup.merge(&local.lookup)
			res.topk.merge(&local.topk)
			res.lag.merge(&local.lag)
			if res.firstErr == nil {
				res.firstErr = local.firstErr
			}
			if res.firstWrong == "" {
				res.firstWrong = local.firstWrong
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.growing = backlogGrowing(lagAt, period)
	return res
}

// backlogGrowing compares how late the first and last tenth of the
// rung's arrivals were sent: a backlog that drains stays flat, one that
// grows leaves the tail later than the head by more than 5 ms and ten
// arrival periods.
func backlogGrowing(lagAt []float64, period time.Duration) bool {
	tenth := len(lagAt) / 10
	if tenth < 1 {
		return false
	}
	head := median(lagAt[:tenth])
	tail := median(lagAt[len(lagAt)-tenth:])
	limit := math.Max(5, 10*float64(period)/1e6)
	return tail-head > limit
}
