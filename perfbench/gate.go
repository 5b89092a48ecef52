package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"repro/internal/montecarlo"
	"repro/internal/sched"
	"repro/internal/serve"
)

// gateReport is the correctness gate's verdict over every attempted cell.
// A cell fails if its request was refused or errored, or if it is missing,
// duplicated, out of range, carries an error, or differs from the
// reference run. Nothing is retried or filtered.
type gateReport struct {
	Attempted  int
	Failed     int
	Refused    int // cells of 429-refused requests
	Missing    int
	Duplicates int
	Errors     int
	Mismatches int
}

func (g gateReport) correct() bool {
	return g.Missing == 0 && g.Duplicates == 0 && g.Errors == 0 && g.Mismatches == 0
}

// gateCell identifies one reference computation: a job and the shard plan
// the server ran it under.
type gateCell struct {
	job  sched.Job
	plan montecarlo.ShardPlan
}

// runGate re-runs every streamed cell on a separate engine, matched to the
// request's job list by index, and compares the full record (trials,
// failures, skipped, dedup hits, decoder stats, rates) byte for byte.
// Sharded cells are re-run shard by shard through RunShardOn and
// MergeShards under the same plan — the engine's equivalent of RunOn for a
// sharded cell. Fabric cells are compared to this same local reference.
// Identical cells (same key and plan) are computed once; every streamed
// copy is still compared.
func runGate(results []result) (gateReport, error) {
	var rep gateReport
	type pending struct {
		res  *result
		jobs []sched.Job
		q    sched.UnitQueue
	}
	var reqs []pending
	want := make(map[string]gateCell)
	for i := range results {
		r := &results[i]
		jobs, err := serve.BuildCells(r.Req.Body)
		if err != nil {
			return rep, fmt.Errorf("expand request %d: %w", r.Req.ID, err)
		}
		q := sched.BuildUnitQueue(jobs, r.Req.Body.ShardShots, sched.OrderCost)
		reqs = append(reqs, pending{r, jobs, q})
		for j, job := range jobs {
			want[gateKey(job, q.Plans[j])] = gateCell{job, q.Plans[j]}
		}
	}
	ref, err := referenceRecords(want)
	if err != nil {
		return rep, err
	}
	for _, p := range reqs {
		n := len(p.jobs)
		rep.Attempted += n
		if p.res.Status != 200 {
			rep.Failed += n
			if p.res.Refused {
				rep.Refused += n
			} else {
				rep.Errors += n
			}
			continue
		}
		seen := make([]bool, n)
		for _, c := range p.res.Cells {
			idx := c.Rec.Index
			switch {
			case idx < 0 || idx >= n:
				rep.Mismatches++
				rep.Failed++
				continue
			case seen[idx]:
				rep.Duplicates++
				rep.Failed++
				continue
			}
			seen[idx] = true
			if c.Rec.Error != "" {
				rep.Errors++
				rep.Failed++
				continue
			}
			exp := serve.ToCellRecord(sched.CellResult{Index: idx, Job: p.jobs[idx],
				Result: ref[gateKey(p.jobs[idx], p.q.Plans[idx])]})
			got := c.Rec
			got.Source = ""
			if !sameRecord(exp, got) {
				rep.Mismatches++
				rep.Failed++
			}
		}
		for _, ok := range seen {
			if !ok {
				rep.Missing++
				rep.Failed++
			}
		}
	}
	return rep, nil
}

func gateKey(job sched.Job, plan montecarlo.ShardPlan) string {
	return fmt.Sprintf("%#v|%s|%d", job.Tag, job.Cfg.CellKey(), plan.Shards)
}

func sameRecord(a, b serve.CellRecord) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// referenceRecords computes every wanted cell on one fresh engine with
// maxConns goroutines, each with its own WorkerState.
func referenceRecords(want map[string]gateCell) (map[string]montecarlo.Result, error) {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	// Key order groups cells of one structure, so each worker's decoders
	// rebind in place instead of being rebuilt per cell.
	slices.Sort(keys)
	en := montecarlo.NewEngine()
	out := make(map[string]montecarlo.Result, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	work := make(chan string)
	for range maxConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st montecarlo.WorkerState
			for k := range work {
				res, err := referenceRun(en, want[k], &st)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[k] = res
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	return out, firstErr
}

// referenceRun executes one cell the way the local scheduler does: RunOn
// for a one-shard plan, RunShardOn per shard plus MergeShards otherwise.
func referenceRun(en *montecarlo.Engine, c gateCell, st *montecarlo.WorkerState) (montecarlo.Result, error) {
	if c.plan.Shards <= 1 {
		return en.RunOn(c.job.Cfg, st)
	}
	parts := make([]montecarlo.ShardResult, c.plan.Shards)
	for i := range parts {
		var err error
		if parts[i], err = en.RunShardOn(c.job.Cfg, c.plan, i, nil, st); err != nil {
			return montecarlo.Result{}, err
		}
	}
	return montecarlo.MergeShards(c.job.Cfg, parts)
}
