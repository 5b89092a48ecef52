package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extract"
	"repro/internal/fabric"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
	"repro/internal/serve"
)

// maxConns is the client's connection budget: the box has two CPUs, and
// the load client runs in the same process as the server.
const maxConns = 2

// env is one running system under test: a serve.Server on a loopback
// listener and, for fabric workloads, a coordinator with two workers that
// reach it over loopback HTTP.
type env struct {
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	hub     *fabric.Hub
	hubTS   *httptest.Server
	cluster *fabric.Cluster
	workers []*montecarlo.Engine
	rpc     *rpcMeter
}

// startEnv brings up the system and primes it: the workload's structures
// are built (on the server's engine, or on each fabric worker's engine) and
// one small probe sweep is served end to end.
func startEnv(w *workload, tr *tracer) (*env, error) {
	e := &env{}
	var hub *fabric.Hub
	if w.Fabric {
		hub = fabric.NewHub(fabric.Options{})
		e.hub = hub
		e.hubTS = httptest.NewServer(hub.Handler())
		e.rpc = &rpcMeter{base: &http.Transport{MaxIdleConnsPerHost: 4}, tr: tr}
		e.workers = []*montecarlo.Engine{montecarlo.NewEngine(), montecarlo.NewEngine()}
		// Each worker builds its own structures, in parallel like separate
		// worker processes would.
		var wg sync.WaitGroup
		errs := make([]error, len(e.workers))
		for i, en := range e.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = primeEngine(en, w.Prime)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			e.close()
			return nil, err
		}
		e.cluster = fabric.StartCluster(len(e.workers),
			func(int) fabric.Transport {
				return &fabric.HTTPTransport{Base: e.hubTS.URL, Client: &http.Client{Transport: e.rpc}}
			},
			func(i int) fabric.WorkerOptions {
				return fabric.WorkerOptions{Name: fmt.Sprintf("w%d", i), Engine: e.workers[i]}
			})
	}
	e.srv = serve.NewServer(serve.Config{Fabric: hub})
	e.ts = httptest.NewServer(e.srv)
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true,
	}}

	// The probe also primes the server's engine; cold-grid's probe is d=3,
	// a structure its plan never uses.
	probe := serve.SweepRequest{Distances: w.Prime, Rates: []float64{1e-3}, Trials: 64}
	if len(w.Prime) == 0 {
		probe.Distances = []int{3}
	}
	if w.Fabric {
		probe.Mode = "fabric"
	}
	res := e.do(context.Background(), request{ID: -1, Body: probe}, 0, time.Now(), tr)
	if res.Err != nil || len(res.Cells) != len(probe.Distances) {
		e.close()
		return nil, fmt.Errorf("probe sweep failed: %v (%d cells)", res.Err, len(res.Cells))
	}
	return e, nil
}

// primeConfig is a 64-trial compact-interleaved cell at distance d.
func primeConfig(d int) montecarlo.Config {
	return montecarlo.ThresholdCellConfig(extract.CompactInterleaved, d, 1e-3, hardware.Default(), 64, 0,
		montecarlo.UF, montecarlo.SweepOptions{})
}

// primeEngine builds the distances' structures on en with a tiny run each.
func primeEngine(en *montecarlo.Engine, distances []int) error {
	var st montecarlo.WorkerState
	for _, d := range distances {
		if _, err := en.RunOn(primeConfig(d), &st); err != nil {
			return fmt.Errorf("prime d=%d: %w", d, err)
		}
	}
	return nil
}

// close stops everything startEnv started and waits for it to exit.
func (e *env) close() {
	if e.ts != nil {
		e.ts.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.cluster != nil {
		e.cluster.Stop()
	}
	if e.hub != nil {
		e.hub.Close()
	}
	if e.hubTS != nil {
		e.hubTS.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.rpc != nil {
		e.rpc.base.CloseIdleConnections()
	}
}

// stats fetches GET /v1/stats.
func (e *env) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := e.client.Get(e.ts.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// cellObs is one streamed cell and when it arrived.
type cellObs struct {
	At  time.Duration // offset from the phase start
	Rec serve.CellRecord
}

// result is what the client saw of one request. Times are offsets from
// the start of the timed phase; Start is when the request was due (open
// loop) or sent (closed loop), the origin of its latencies.
type result struct {
	Req     request
	Start   time.Duration
	Header  time.Duration
	Done    time.Duration
	Status  int
	Cells   []cellObs
	Bytes   int64
	State   string // the trailing JobStatus's state
	Err     error
	Refused bool // 429
}

// streamLine decodes one NDJSON line: a CellRecord, or the trailing
// JobStatus, which alone carries an id and a state.
type streamLine struct {
	serve.CellRecord
	ID    string `json:"id"`
	State string `json:"state"`
}

// do submits one sweep and reads its stream to the end. origin is the
// phase start; due is the request's latency origin relative to it.
func (e *env) do(ctx context.Context, rq request, due time.Duration, origin time.Time, tr *tracer) result {
	res := result{Req: rq, Start: due}
	reqName := fmt.Sprintf("r%d", rq.ID)
	span := tr.begin("serve.request", -1, reqName)
	defer func() { tr.end(span) }()
	body, err := json.Marshal(rq.Body)
	if err != nil {
		res.Err = err
		return res
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, e.ts.URL+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		res.Err = err
		return res
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(hreq)
	if err != nil {
		res.Err = err
		return res
	}
	defer resp.Body.Close()
	res.Header = time.Since(origin)
	res.Status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		res.Refused = resp.StatusCode == http.StatusTooManyRequests
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		res.Err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
		res.Done = time.Since(origin)
		return res
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		res.Bytes += int64(len(line))
		if len(bytes.TrimSpace(line)) > 0 {
			at := time.Since(origin)
			var sl streamLine
			if jerr := json.Unmarshal(line, &sl); jerr != nil {
				res.Err = fmt.Errorf("decode stream line: %w", jerr)
				break
			}
			if sl.ID != "" {
				res.State = sl.State
			} else {
				res.Cells = append(res.Cells, cellObs{At: at, Rec: sl.CellRecord})
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				res.Err = err
			}
			break
		}
	}
	res.Done = time.Since(origin)
	if res.Err == nil && res.State != "done" {
		res.Err = fmt.Errorf("sweep ended in state %q", res.State)
	}
	return res
}

// runClosed sends reqs one after another on one client. Each request's
// latency origin is its send time.
func runClosed(e *env, reqs []request, origin time.Time, tr *tracer) []result {
	out := make([]result, 0, len(reqs))
	for _, rq := range reqs {
		out = append(out, e.do(context.Background(), rq, time.Since(origin), origin, tr))
	}
	return out
}

// runOpen sends reqs on their Due schedule over conns concurrent senders.
// A request due while every sender is busy waits for the next free one;
// its latency still counts from its due time, so a stall shows in every
// request queued behind it. send performs one request given its due
// offset; the returned lag is how late the latest request was sent.
func runOpen(reqs []request, conns int, origin time.Time, send func(rq request, due time.Duration) result) (out []result, maxLag time.Duration) {
	out = make([]result, len(reqs))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := reqs[i].Due
				if wait := due - time.Since(origin); wait > 0 {
					time.Sleep(wait)
				}
				lag := time.Since(origin) - due
				out[i] = send(reqs[i], due)
				mu.Lock()
				maxLag = max(maxLag, lag)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, maxLag
}

// heapPeak samples the Go heap's live bytes (as marked by the latest GC
// cycle) every few milliseconds until stopped and reports the maximum
// seen: the peak working set, independent of when garbage is collected.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak in MiB; it
// may be called more than once.
func (h *heapPeak) finish() float64 {
	h.once.Do(func() {
		close(h.stop)
		<-h.done
	})
	return float64(h.peak) / (1 << 20)
}

// retainedHeapMB forces a collection and returns the live heap in MiB.
func retainedHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// rpcMeter is the http.RoundTripper the benchmark wraps around the fabric
// workers' transport: it counts calls and wire bytes and times every round
// trip, with a span per call named by the protocol path.
type rpcMeter struct {
	base *http.Transport
	tr   *tracer

	mu       sync.Mutex
	calls    int64
	bytes    int64
	latency  []float64
	counting bool
}

func (m *rpcMeter) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := m.base.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if rerr != nil {
		return nil, rerr
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	m.mu.Lock()
	if m.counting {
		m.calls++
		m.bytes += r.ContentLength + int64(len(body))
		m.latency = append(m.latency, end.Sub(start).Seconds())
	}
	counting := m.counting
	m.mu.Unlock()
	if counting {
		m.tr.add("fabric.rpc", -1, r.URL.Path, start, end)
	}
	return resp, nil
}

// setCounting turns accounting on for the timed phase only.
func (m *rpcMeter) setCounting(on bool) {
	m.mu.Lock()
	m.counting = on
	m.mu.Unlock()
}
