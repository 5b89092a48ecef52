package sched

import (
	"slices"

	"repro/internal/montecarlo"
)

// Unit is one schedulable quantum of work: shard Shard of cell Cell, where
// Cell indexes the submitted job slice. An unsharded cell is a single unit
// with Shard 0.
type Unit struct {
	Cell  int
	Shard int
}

// UnitQueue is the fixed execution plan of one sweep: per-cell shard plans
// and the flat, ordered queue of units workers drain. It is what the
// fabric coordinator leases over the wire and what the local pool's
// work-stealing loop consumes — the same plan, so a cluster run and a
// local run execute identical unit sets.
type UnitQueue struct {
	// Plans holds each cell's shard plan, indexed like the job slice.
	Plans []montecarlo.ShardPlan
	// Units is the drain order: cells ordered per QueueOrder, a sharded
	// cell's units adjacent so its shards fan out immediately.
	Units []Unit
}

// BuildUnitQueue fixes the execution plan for a sweep. The plan is a pure
// function of the job specs, shardShots, and order — never of pool width,
// worker count, or any runtime state — which is what makes results
// reproducible across any execution of the queue, local or remote: same
// jobs + same shardShots => same plans => same per-shard ChaCha8 streams.
// A cell with Cfg.Workers > 1 plans as Engine.Run splits it — one shard per
// worker, whatever shardShots says — so the pool's workers execute its
// intra-cell parallelism and the merge is bit-identical to Engine.Run.
func BuildUnitQueue(jobs []Job, shardShots int, order QueueOrder) UnitQueue {
	q := UnitQueue{Plans: make([]montecarlo.ShardPlan, len(jobs))}
	nunits := 0
	for i, job := range jobs {
		plan := montecarlo.PlanShards(job.Cfg.Trials, shardShots)
		if w := job.Cfg.Workers; w > 1 {
			plan.Shards = max(min(w, job.Cfg.Trials), 1)
		}
		q.Plans[i] = plan
		nunits += plan.Shards
	}
	cellOrder := make([]int, len(jobs))
	for i := range cellOrder {
		cellOrder[i] = i
	}
	if order == OrderCost {
		slices.SortStableFunc(cellOrder, func(a, b int) int {
			ca, cb := CellCost(jobs[a].Cfg), CellCost(jobs[b].Cfg)
			switch {
			case ca > cb:
				return -1
			case ca < cb:
				return 1
			}
			return a - b
		})
	}
	q.Units = make([]Unit, 0, nunits)
	for _, ci := range cellOrder {
		for sh := 0; sh < q.Plans[ci].Shards; sh++ {
			q.Units = append(q.Units, Unit{Cell: ci, Shard: sh})
		}
	}
	return q
}
