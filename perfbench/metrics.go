package main

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/montecarlo"
	"repro/internal/sched"
)

// endToEndNames are the end-to-end metrics of the result line, as listed in
// BENCHMARK.json. Two are printed in the table only: cell_p90_s, because a
// cold-grid run has too few cells for it to be reportable, and
// peak_heap_mb, because the peak of a heap this small depends on when the
// collector happens to run (20-30% across seeds on a 2-CPU x86-64 box);
// the retained heap stands in for memory in the result line.
var endToEndNames = []string{"setup_s", "sweep_p50_s", "first_cell_p50_s", "cell_p50_s",
	"cells_per_s", "shots_per_s", "heap_retained_mb"}

// endToEnd fills the metrics a user of the service sees, from the
// untraced timed phase.
func endToEnd(ms *metricSet, ph *phase) {
	ms.put("setup_s", "s", median(ph.setup), len(ph.setup), true)
	var sweeps, firsts, cells []float64
	for _, r := range ph.results {
		if r.Err != nil {
			continue
		}
		sweeps = append(sweeps, (r.Done - r.Start).Seconds())
		if len(r.Cells) > 0 {
			firsts = append(firsts, (r.Cells[0].At - r.Start).Seconds())
		}
		for _, c := range r.Cells {
			cells = append(cells, (c.At - r.Start).Seconds())
		}
	}
	putPct := func(name string, xs []float64, p float64) {
		v, ok := percentile(xs, p)
		ms.put(name, "s", v, len(xs), ok)
	}
	putPct("sweep_p50_s", sweeps, 0.5)
	putPct("first_cell_p50_s", firsts, 0.5)
	putPct("cell_p50_s", cells, 0.5)
	putPct("cell_p90_s", cells, 0.9)
	el := ph.elapsed.Seconds()
	ms.put("cells_per_s", "1/s", frac(float64(len(cells)), el), len(cells), true)
	shots := ph.after.Decode.Shots - ph.before.Decode.Shots
	ms.put("shots_per_s", "1/s", frac(float64(shots), el), len(ph.results), true)
	ms.put("heap_retained_mb", "MB", ph.retainedMB, 1, true)
	ms.put("peak_heap_mb", "MB", ph.heapMB, 1, true)
}

// perLayer fills the traced run's per-layer metrics: counters from the
// traced serve pass, then the layer decomposition of the workload's leading
// requests (see replica), its untraced RunOn counterpart, a sched.Scheduler
// run and a shard merge of the same cells.
func perLayer(ms *metricSet, w *workload, plan []request, ph *phase, tr *tracer) error {
	servePass(ms, ph)

	n := min(w.ReplicaReqs, len(plan))
	cells, byReq, err := replicaPlan(plan[:n])
	if err != nil {
		return err
	}
	rep := newReplica(tr, 1024)
	en := montecarlo.NewEngine()      // the untraced RunOn counterpart and the merges
	schedEn := montecarlo.NewEngine() // the scheduler's, primed like the server's
	var st montecarlo.WorkerState
	tr.setSetup(true)
	root := tr.begin("setup", -1, "replica")
	for _, d := range w.Prime {
		if _, err = rep.structure(primeConfig(d), root, "replica"); err != nil {
			break
		}
	}
	if err == nil {
		err = errors.Join(primeEngine(en, w.Prime), primeEngine(schedEn, w.Prime))
	}
	tr.end(root)
	tr.setSetup(false)
	if err != nil {
		return err
	}
	runtime.GC()

	// Each cell runs traced through the decomposition, then untraced
	// through Engine.RunOn (one span around the call, nothing inside),
	// alternating so that drift in machine speed hits both alike. Both
	// caches start in the same state, so both build in the same cells.
	mismatches := 0
	runOn := make([]float64, len(cells))
	runOnRes := make([]montecarlo.Result, len(cells))
	var warm []float64
	for i, c := range cells {
		t, err := rep.runCell(c.job.Cfg, c.req)
		if err != nil {
			return err
		}
		b0 := en.CacheStats().Builds
		sp := tr.begin("montecarlo.run_on", -1, c.req)
		t0 := time.Now()
		res, err := en.RunOn(c.job.Cfg, &st)
		runOn[i] = time.Since(t0).Seconds()
		tr.end(sp)
		if err != nil {
			return err
		}
		if en.CacheStats().Builds == b0 {
			warm = append(warm, runOn[i])
		}
		runOnRes[i] = res
		if res.Trials != t.trials || res.Failures != t.failures || res.Skipped != t.skipped || res.DedupHits != t.dedup {
			mismatches++
		}
	}
	dc, err := rep.compareDecoders()
	if err != nil {
		return err
	}
	mismatches += dc.mismatches

	// The scheduler over each leading request's jobs at the server's pool
	// width, on an engine in the server's cache state, then the shard merge
	// of every sharded cell.
	width := runtime.GOMAXPROCS(0)
	var makespans []float64
	var work float64
	var mergeTotal time.Duration
	merged := 0
	k := 0
	for ri, mine := range byReq {
		if len(mine) == 0 {
			continue
		}
		jobs := make([]sched.Job, len(mine))
		for i, c := range mine {
			jobs[i] = c.job
		}
		sp := tr.begin("sched.run", -1, mine[0].req)
		t0 := time.Now()
		out, err := sched.New(schedEn, sched.Options{Jobs: width, ShardShots: plan[ri].Body.ShardShots}).Run(jobs)
		makespans = append(makespans, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return err
		}
		for i, c := range mine {
			work += runOn[k+i]
			want := runOnRes[k+i]
			if c.plan.Shards > 1 {
				parts := make([]montecarlo.ShardResult, c.plan.Shards)
				for s := range parts {
					if parts[s], err = en.RunShardOn(c.job.Cfg, c.plan, s, nil, &st); err != nil {
						return err
					}
				}
				sp := tr.begin("montecarlo.merge", -1, c.req)
				t0 := time.Now()
				want, err = montecarlo.MergeShards(c.job.Cfg, parts)
				mergeTotal += time.Since(t0)
				tr.end(sp)
				if err != nil {
					return err
				}
				merged++
			}
			if got := out[i].Result; got.Trials != want.Trials || got.Failures != want.Failures ||
				got.Skipped != want.Skipped || got.DedupHits != want.DedupHits || got.Stats != want.Stats {
				mismatches++
			}
		}
		k += len(mine)
	}

	// Layer totals from the decomposition's spans, timed phase only.
	spans := tr.snapshot()
	self := selfTimes(spans)
	sum := make(map[string]time.Duration)
	var cellDur, cellSelf time.Duration
	var builtMechs []int
	for i, s := range spans {
		if s.Setup || s.End < s.Start {
			continue
		}
		sum[s.Name] += self[i]
		if s.Name == "montecarlo.cell" {
			cellDur += s.Dur()
			cellSelf += self[i]
		}
	}
	for _, e := range rep.cache {
		builtMechs = append(builtMechs, e.st.NumMechanisms())
	}
	var runOnTotal float64
	for _, d := range runOn {
		runOnTotal += d
	}
	nc := float64(len(cells))
	shots := float64(rep.shots)
	sec := func(name string) float64 { return sum[name].Seconds() }

	ms.put("extract.build_s", "s", sec("extract.build"), len(cells), true)
	ms.put("dem.structure_s", "s", sec("dem.structure"), len(cells), true)
	ms.put("dem.graph_s", "s", sec("dem.graph"), len(cells), true)
	ms.put("dem.mechanisms", "count", meanInts(builtMechs), len(builtMechs), true)
	ms.put("dem.reweight_s", "s", frac(sec("dem.reweight"), nc), len(cells), true)
	ms.put("dem.sample_ns_per_shot", "ns", frac(sec("dem.sample")*1e9, shots), int(rep.shots), true)
	ms.put("dem.nonzero_frac", "frac", frac(float64(rep.nonzero), shots), int(rep.shots), true)
	ms.put("decoder.decode_s", "s", sec("decoder.decode"), len(cells), true)
	ms.put("montecarlo.cell_self_s", "s", cellSelf.Seconds(), len(cells), true)
	ms.put("montecarlo.cell_warm_s", "s", median(warm), len(warm), true)

	cs := float64(dc.shots)
	ms.put("decoder.uf_ns_per_shot", "ns", frac(float64(dc.ufBare.Nanoseconds()), cs), int(dc.shots), true)
	ms.put("decoder.blossom_ns_per_shot", "ns", frac(float64(dc.blBare.Nanoseconds()), cs), int(dc.shots), true)
	ms.put("decoder.pipeline_ns_per_shot", "ns", frac(float64((dc.ufPipe+dc.blPipe).Nanoseconds()), 2*cs), int(dc.shots), true)
	ms.put("decoder.pipeline_speedup", "x", frac(float64(dc.ufBare+dc.blBare), float64(dc.ufPipe+dc.blPipe)), int(dc.shots), true)
	ms.put("decoder.uf_edge_scans_per_shot", "count", frac(float64(dc.ufEdgeScans), cs), int(dc.shots), true)
	ms.put("decoder.blossom_rounds_per_shot", "count", frac(float64(dc.blRounds), cs), int(dc.shots), true)

	ms.put("montecarlo.merge_s", "s", frac(mergeTotal.Seconds(), float64(merged)), merged, true)
	ms.put("sched.makespan_s", "s", median(makespans), len(makespans), true)
	var totalMakespan float64
	for _, m := range makespans {
		totalMakespan += m
	}
	ms.put("sched.efficiency", "frac", frac(work, float64(width)*totalMakespan), len(makespans), true)

	ms.put("trace.coverage_frac", "frac", frac((cellDur-cellSelf).Seconds(), cellDur.Seconds()), len(cells), true)
	ms.put("trace.overhead_frac", "frac", frac(cellDur.Seconds(), runOnTotal)-1, len(cells), true)
	ms.put("trace.replica_mismatches", "count", float64(mismatches), len(cells), true)

	// The decomposition's largest self time, for the record.
	layers := []string{"extract.build", "dem.structure", "dem.graph", "dem.reweight", "dem.sample",
		"decoder.new", "decoder.rebind", "decoder.decode", "montecarlo.cell"}
	slices.SortStableFunc(layers, func(a, b string) int { return cmp.Compare(sum[b], sum[a]) })
	ms.notes = append(ms.notes, fmt.Sprintf("largest self time in the cell decomposition: %s %.4gs (then %s %.4gs)",
		layers[0], sum[layers[0]].Seconds(), layers[1], sum[layers[1]].Seconds()))
	return nil
}

// servePass derives the serve, fabric, cache and decode counters from the
// traced timed phase.
func servePass(ms *metricSet, ph *phase) {
	b, a := ph.before, ph.after
	builds := a.Engine.Builds - b.Engine.Builds
	hits := a.Engine.Hits - b.Engine.Hits
	shots := a.Decode.Shots - b.Decode.Shots
	skipped := a.Decode.Skipped - b.Decode.Skipped
	dedup := a.Decode.DedupHits - b.Decode.DedupHits
	ledgerHits := a.Ledger.Hits - b.Ledger.Hits
	coalesce := a.Ledger.CoalesceHits - b.Ledger.CoalesceHits
	wBuilds := ph.workerAfter.Builds - ph.workerBefore.Builds
	wHits := ph.workerAfter.Hits - ph.workerBefore.Hits
	builds += wBuilds
	hits += wHits

	var cells, refused int
	var bytes int64
	var firstByte []float64
	for _, r := range ph.results {
		cells += len(r.Cells)
		bytes += r.Bytes
		if r.Refused {
			refused++
		}
		if r.Header > 0 {
			firstByte = append(firstByte, (r.Header - r.Start).Seconds())
		}
	}
	nr := len(ph.results)
	ms.put("montecarlo.cache_builds", "count", float64(builds), nr, true)
	ms.put("montecarlo.cache_hit_frac", "frac", frac(float64(hits), float64(hits+builds)), int(hits+builds), true)
	ms.put("decoder.skip_frac", "frac", frac(float64(skipped), float64(shots)), int(shots), true)
	ms.put("decoder.dedup_frac", "frac", frac(float64(dedup), float64(shots)), int(shots), true)
	ms.put("serve.ledger_hit_frac", "frac", frac(float64(ledgerHits), float64(cells)), cells, true)
	ms.put("serve.coalesce_hit_frac", "frac", frac(float64(coalesce), float64(cells)), cells, true)
	ms.put("serve.rejected_frac", "frac", frac(float64(refused), float64(nr)), nr, true)
	ms.put("serve.bytes_per_cell", "B", frac(float64(bytes), float64(cells)), cells, true)
	ms.put("serve.first_byte_s", "s", median(firstByte), len(firstByte), true)

	var rpcCalls, rpcBytes int64
	var rpcP50 float64
	var rpcN int
	if m := ph.rpc; m != nil {
		m.mu.Lock()
		rpcCalls, rpcBytes = m.calls, m.bytes
		rpcP50 = median(m.latency)
		rpcN = len(m.latency)
		m.mu.Unlock()
	}
	var leases, expired, dup int64
	if b, a := b.Fabric, a.Fabric; b != nil && a != nil {
		leases = a.LeasesGranted - b.LeasesGranted
		expired = a.LeasesExpired - b.LeasesExpired
		dup = a.ResultsDuplicate - b.ResultsDuplicate
	}
	ms.put("fabric.rpc_calls_per_lease", "count", frac(float64(rpcCalls), float64(leases)), int(leases), true)
	ms.put("fabric.rpc_p50_s", "s", rpcP50, rpcN, true)
	ms.put("fabric.wire_bytes_per_lease", "B", frac(float64(rpcBytes), float64(leases)), int(leases), true)
	ms.put("fabric.leases_expired", "count", float64(expired), int(leases), true)
	ms.put("fabric.results_duplicate", "count", float64(dup), int(leases), true)
	ms.put("fabric.worker_builds", "count", float64(wBuilds), int(leases), true)
	ms.put("load.gen_lag_max_s", "s", ph.maxLag.Seconds(), nr, true)
}

func meanInts(xs []int) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return frac(s, float64(len(xs)))
}
