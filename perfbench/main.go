// Command perfbench is the repository's benchmark: it drives an in-process
// serve.Server (and, for fabric-grid, a fabric.Hub with two workers over
// loopback HTTP) with one of four generated sweep workloads, checks every
// streamed cell against a reference run, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1). The
// last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from source:
//
//	bash perfbench/run.sh --workload warm-grid --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads, metrics and predictions.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/montecarlo"
	"repro/internal/serve"
)

// setupReps is how many times each run sets the system up; setup_s is the
// median.
const setupReps = 3

// outDir holds result records and traces, inside the checkout.
const outDir = ".bench_build/perfbench"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Reportable is false for a percentile with fewer than minBeyond
	// samples beyond it.
	Reportable bool `json:"reportable"`
}

type metricSet struct {
	names []string
	m     map[string]metric
	notes []string // free-form findings printed under the table
}

func (ms *metricSet) put(name, unit string, v float64, samples int, ok bool) {
	if ms.m == nil {
		ms.m = make(map[string]metric)
	}
	if _, dup := ms.m[name]; !dup {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit, Samples: samples, Reportable: ok}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wname := fl.String("workload", "", "workload: cold-grid, warm-grid, repeat-mix or fabric-grid")
	seed := fl.Uint64("seed", 1, "workload seed; the same seed generates the same requests")
	holdout := fl.Int64("holdout-seed", -1, "if >= 0, generate from this held-out seed instead of --seed (for claim checks on inputs not used during development)")
	seconds := fl.Int("seconds", 10, "nominal length of the timed phase")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	if err := fl.Parse(args); err != nil {
		return err
	}
	w := workloadByName(*wname)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *wname)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	seedKind, seedVal, wseed := "seed", *seed, *seed
	if *holdout >= 0 {
		// Domain-separated so no --seed value reproduces a held-out plan.
		seedKind, seedVal = "holdout-seed", uint64(*holdout)
		wseed = seedVal ^ 0x9e3779b97f4a7c15
	}
	plan := w.plan(newGen(w.Name, wseed), *seconds)

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	t0 := time.Now()
	ph, err := runPhase(w, plan, tr)
	if err != nil {
		return err
	}
	t1 := time.Now()
	gate, err := runGate(ph.results)
	if err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	t2 := time.Now()

	var ms metricSet
	if tr == nil {
		endToEnd(&ms, ph)
	} else {
		if err := perLayer(&ms, w, plan, ph, tr); err != nil {
			return err
		}
	}

	rec := record{
		Workload: w.Name, SeedKind: seedKind, Seed: seedVal, Trace: *trace, Seconds: *seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Go: runtime.Version(),
		Commit: vcsRevision(), SourceSHA256: sourceDigest(), Requests: len(plan),
		FailedFrac: frac(float64(gate.Failed), float64(gate.Attempted)), Gate: gate, Metrics: ms.m,
	}
	fmt.Fprintf(stdout, "perfbench workload=%s %s=%d trace=%d gomaxprocs=%d nproc=%d go=%s commit=%s source=%.12s\n",
		rec.Workload, rec.SeedKind, rec.Seed, rec.Trace, rec.GOMAXPROCS, rec.NProc, rec.Go, rec.Commit, rec.SourceSHA256)
	fmt.Fprintf(stdout, "wall: set-up+timed %.1fs (timed %.1fs), gate %.1fs, trace analysis %.1fs\n",
		t1.Sub(t0).Seconds(), ph.elapsed.Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds())
	fmt.Fprintf(stdout, "gate: attempted=%d failed=%d (failed_frac=%.4g) refused=%d missing=%d duplicates=%d errors=%d mismatches=%d\n",
		gate.Attempted, gate.Failed, rec.FailedFrac, gate.Refused, gate.Missing, gate.Duplicates, gate.Errors, gate.Mismatches)
	fmt.Fprintf(stdout, "%-34s %14s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, name := range ms.names {
		m := ms.m[name]
		note := ""
		if !m.Reportable {
			note = "  (not reportable: fewer than 10 samples beyond the percentile)"
		}
		fmt.Fprintf(stdout, "%-34s %14.6g %-6s %8d%s\n", name, m.Value, m.Unit, m.Samples, note)
	}
	for _, n := range ms.notes {
		fmt.Fprintln(stdout, n)
	}

	base := filepath.Join(outDir, fmt.Sprintf("%s-%s%d-trace%d", w.Name, seedKind, seedVal, *trace))
	recJSON, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", recJSON, 0o644); err != nil {
		return err
	}
	if tr != nil {
		if err := tr.write(base + ".spans.jsonl"); err != nil {
			return err
		}
	}

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: gate.correct(), Attempted: gate.Attempted, Failed: gate.Failed, Metrics: map[string]map[string]any{}}
	names := endToEndNames
	if tr != nil {
		names = ms.names // every per-layer metric
	}
	for _, name := range names {
		if m, ok := ms.m[name]; ok && m.Reportable {
			out.Metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// record is the result file of one run: the environment it ran in, its
// inputs, the gate's counts, and every metric with its sample count.
type record struct {
	Workload     string            `json:"workload"`
	SeedKind     string            `json:"seed_kind"`
	Seed         uint64            `json:"seed"`
	Trace        int               `json:"trace"`
	Seconds      int               `json:"seconds"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	NProc        int               `json:"nproc"`
	Go           string            `json:"go"`
	Commit       string            `json:"commit"`
	SourceSHA256 string            `json:"source_sha256"`
	Requests     int               `json:"requests"`
	FailedFrac   float64           `json:"failed_frac"`
	Gate         gateReport        `json:"gate"`
	Metrics      map[string]metric `json:"metrics"`
}

// phase is the outcome of one run's set-up and timed phase.
type phase struct {
	setup   []float64 // seconds per set-up
	results []result
	elapsed time.Duration // timed-phase wall time
	heapMB  float64
	// retainedMB is the live heap after a forced collection at the end of
	// the timed phase, with the system still up: caches, ledger, and the
	// client's own records of the run.
	retainedMB float64
	maxLag     time.Duration
	before     serve.StatsResponse
	after      serve.StatsResponse
	// worker engine cache counters around the timed phase (fabric only).
	workerBefore, workerAfter montecarlo.CacheStats
	rpc                       *rpcMeter
}

// runPhase sets the system up setupReps times, keeping the last, then
// runs the plan against it.
func runPhase(w *workload, plan []request, tr *tracer) (*phase, error) {
	ph := &phase{}
	var e *env
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	for range setupReps {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		tr.setSetup(true)
		t0 := time.Now()
		sp := tr.begin("setup", -1, "setup")
		var err error
		e, err = startEnv(w, tr)
		tr.end(sp)
		tr.setSetup(false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ph.setup = append(ph.setup, time.Since(t0).Seconds())
	}
	hp := startHeapPeak()
	defer hp.finish()
	if err := ph.run(w, e, plan, tr); err != nil {
		return nil, err
	}
	ph.heapMB = hp.finish()
	ph.retainedMB = retainedHeapMB()
	return ph, nil
}

// run sends reqs to e and records the results, the elapsed time and the
// counters around them.
func (ph *phase) run(w *workload, e *env, reqs []request, tr *tracer) error {
	before, err := e.stats()
	if err != nil {
		return err
	}
	if e.rpc != nil {
		ph.rpc = e.rpc
		ph.workerBefore = sumCache(e.workers)
		e.rpc.setCounting(true)
	}
	origin := time.Now()
	var res []result
	if w.Open {
		var lag time.Duration
		res, lag = runOpen(reqs, maxConns, origin, func(rq request, due time.Duration) result {
			return e.do(context.Background(), rq, due, origin, tr)
		})
		ph.maxLag = max(ph.maxLag, lag)
	} else {
		res = runClosed(e, reqs, origin, tr)
	}
	// The phase ends when its last response has been read.
	for i := range res {
		ph.elapsed = max(ph.elapsed, res[i].Done)
	}
	ph.results = res
	if e.rpc != nil {
		e.rpc.setCounting(false)
		ph.workerAfter = sumCache(e.workers)
	}
	after, err := e.stats()
	if err != nil {
		return err
	}
	ph.before, ph.after = before, after
	return nil
}

func sumCache(engines []*montecarlo.Engine) montecarlo.CacheStats {
	var s montecarlo.CacheStats
	for _, en := range engines {
		c := en.CacheStats()
		s.Builds += c.Builds
		s.Hits += c.Hits
	}
	return s
}

// vcsRevision is the git commit the binary was built from, when the build
// ran inside a git work tree.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod files, naming the
// code under test where no git commit is available.
func sourceDigest() string {
	h := sha256.New()
	root := os.DirFS(".")
	err := fs.WalkDir(root, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return fs.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			b, err := fs.ReadFile(root, path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
