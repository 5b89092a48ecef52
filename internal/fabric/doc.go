// Package fabric distributes sweep execution across worker processes
// without giving up the repo's determinism contract: a cluster run merges
// to bit-identical CellResults with a local run of the same sweep, at any
// worker count, under any fault schedule.
//
// The design splits the local scheduler at its natural seam. Planning —
// sched.BuildUnitQueue over the job specs — is a pure function, so the
// coordinator (Hub) and a local pool produce the identical ordered set of
// (cell, shard) units with identical shard plans. Execution is leased:
// workers pull units, run them through montecarlo.Engine.RunShardOn (shard
// index = ChaCha8 stream index, so the bytes never depend on which worker
// runs the shard), and submit ShardResults. Merging is exactly-once: each
// unit files into its cell's montecarlo.ShardAcc — the accumulator the
// local pool uses too — whose slots are written at most once, keyed by
// unit identity rather than delivery, so retries, expired-lease races, and
// resurrected workers cannot double-merge. montecarlo.MergeShards is
// order-independent, which closes the loop: any assignment of units to
// workers, in any completion order, with any amount of lease churn, merges
// to the same bytes. The Hub adds only what leasing needs: unit states,
// leases and their expiry, and the partial-tally guard below.
//
// Merged cells reach RunOptions.OnResult outside the hub lock; Run.Wait
// and Run.Done return only after the run's final OnResult has returned.
//
// Fault tolerance is lease-based: a granted lease carries a TTL, workers
// heartbeat to extend it, and the Hub's janitor (plus lazy expiry in
// Lease) requeues units whose leases lapse. Heartbeats also carry
// cancellations: ReasonExpired (abort, never submit — a partial tally must
// not race the reassigned run), ReasonSettled (siblings' recorded shards
// met the cell's early-stop target, ShardAcc.TargetMet; abort and submit
// the partial, as a local early-stopped shard would), and ReasonCancelled
// (run cancelled; abort).
// A coordinator-side guard additionally rejects short tallies for
// fixed-trials units, so even a worker that misses its cancellation cannot
// corrupt a merge.
//
// Transports: Local for in-process workers (fabric-mode serving, tests),
// HTTPTransport + Hub.Handler for real clusters (cmd/vlqfabric,
// cmd/vlqworker). The faulttest subpackage wraps any Transport to inject
// worker kills, dropped responses, stalled heartbeats, and duplicate
// deliveries on deterministic schedules.
package fabric
