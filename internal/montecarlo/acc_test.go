package montecarlo

import (
	"context"
	"errors"
	"testing"
)

// TestShardAcc pins the accumulator contract every executor relies on:
// merges independent of arrival order, write-once slots, error precedence
// by shard index with genuine errors over cancellation, and a target
// predicate that holds exactly when the recorded tallies reach the target.
func TestShardAcc(t *testing.T) {
	errA, errB := errors.New("shard A failed"), errors.New("shard B failed")
	part := func(shard, trials, failures int) ShardResult {
		return ShardResult{Shard: shard, Trials: trials, Failures: failures, Skipped: trials / 2,
			Mechanisms: 40, DetectorCount: 12}
	}
	// One weighted shard: 4 unit-weight shots, one failing. Pooling k of
	// them gives relative errors 1, 0.65, 0.52, 0.45 for k = 1..4.
	var quarter WeightedResult
	for s := range 4 {
		quarter.addShot(1, s == 0)
	}
	weighted := func(shard int) ShardResult {
		sr := part(shard, 4, 1)
		sr.Weighted = quarter
		return sr
	}
	rare := shardTestConfig(20)
	rare.RareEvent, rare.Boost, rare.TargetRelErr = true, 2, 0.5
	failing := shardTestConfig(30)
	failing.TargetFailures = 5

	type op struct {
		shard int
		sr    ShardResult
		err   error // genuine shard error (Record)
		skip  error // cancellation cause (Skip)
		last  bool  // want: this call filled the last slot
		met   bool  // want: TargetMet after the call
	}
	cases := []struct {
		name    string
		cfg     Config
		shards  int
		ops     []op
		want    []ShardResult // merge reference when the cell succeeds
		wantErr error
		skipped bool
	}{
		{
			name: "in order", cfg: shardTestConfig(30), shards: 3,
			ops:  []op{{shard: 0, sr: part(0, 10, 1)}, {shard: 1, sr: part(1, 10, 2)}, {shard: 2, sr: part(2, 10, 3), last: true}},
			want: []ShardResult{part(0, 10, 1), part(1, 10, 2), part(2, 10, 3)},
		},
		{
			name: "out of order", cfg: shardTestConfig(30), shards: 3,
			ops:  []op{{shard: 2, sr: part(2, 10, 3)}, {shard: 0, sr: part(0, 10, 1)}, {shard: 1, sr: part(1, 10, 2), last: true}},
			want: []ShardResult{part(0, 10, 1), part(1, 10, 2), part(2, 10, 3)},
		},
		{
			name: "duplicate ignored", cfg: shardTestConfig(20), shards: 2,
			ops: []op{
				{shard: 0, sr: part(0, 10, 1)},
				{shard: 0, sr: part(0, 10, 99)},
				{shard: 0, err: errA},
				{shard: 1, sr: part(1, 10, 2), last: true},
				{shard: 1, sr: part(1, 10, 99)},
				{shard: 2, sr: part(2, 10, 99)}, // outside the plan
			},
			want: []ShardResult{part(0, 10, 1), part(1, 10, 2)},
		},
		{
			name: "genuine error beats skip", cfg: shardTestConfig(30), shards: 3,
			ops:     []op{{shard: 0, skip: context.Canceled}, {shard: 2, err: errA}, {shard: 1, sr: part(1, 10, 2), last: true}},
			wantErr: errA, skipped: true,
		},
		{
			name: "skip alone", cfg: shardTestConfig(20), shards: 2,
			ops:     []op{{shard: 1, sr: part(1, 10, 2)}, {shard: 0, skip: context.Canceled, last: true}},
			wantErr: context.Canceled, skipped: true,
		},
		{
			name: "first error by shard index", cfg: shardTestConfig(30), shards: 3,
			ops:     []op{{shard: 2, err: errB}, {shard: 0, sr: part(0, 10, 1)}, {shard: 1, err: errA, last: true}},
			wantErr: errA,
		},
		{
			name: "target failures", cfg: failing, shards: 4,
			ops: []op{
				{shard: 1, sr: part(1, 5, 3)},
				{shard: 3, sr: part(3, 5, 9), err: errA}, // a failed shard banks nothing
				{shard: 0, sr: part(0, 5, 1)},
				{shard: 2, sr: part(2, 5, 1), last: true, met: true},
			},
			wantErr: errA,
		},
		{
			name: "target failures met before the last slot", cfg: failing, shards: 3,
			ops: []op{
				{shard: 0, sr: part(0, 5, 4)},
				{shard: 2, sr: part(2, 5, 1), met: true},
				{shard: 1, sr: ShardResult{}, last: true, met: true},
			},
			want: []ShardResult{part(0, 5, 4), {Shard: 1}, part(2, 5, 1)},
		},
		{
			name: "target rel err", cfg: rare, shards: 5,
			ops: []op{
				{shard: 4, sr: weighted(4)},
				{shard: 0, skip: context.Canceled},
				{shard: 2, sr: weighted(2)},
				{shard: 1, sr: weighted(1)},
				{shard: 3, sr: weighted(3), last: true, met: true},
			},
			wantErr: context.Canceled, skipped: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			acc := NewShardAcc(tc.cfg, ShardPlan{Shards: tc.shards, Trials: tc.cfg.Trials})
			if acc.TargetMet() {
				t.Fatal("empty accumulator meets its target")
			}
			for i, o := range tc.ops {
				var last bool
				if o.skip != nil {
					last = acc.Skip(o.shard, o.skip)
				} else {
					last = acc.Record(o.shard, o.sr, o.err)
				}
				if last != o.last {
					t.Errorf("op %d (shard %d): filled last slot = %v, want %v", i, o.shard, last, o.last)
				}
				if met := acc.TargetMet(); met != o.met {
					t.Errorf("op %d (shard %d): TargetMet = %v, want %v", i, o.shard, met, o.met)
				}
			}
			if acc.Skipped() != tc.skipped {
				t.Errorf("Skipped = %v, want %v", acc.Skipped(), tc.skipped)
			}
			got, err := acc.Result()
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Result error %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := MergeShards(tc.cfg, tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("merged\n %+v\nwant\n %+v", got, want)
			}
		})
	}
}

// An accumulator with open slots refuses to merge rather than deliver a
// partial cell.
func TestShardAccResultBeforeLastSlot(t *testing.T) {
	cfg := shardTestConfig(20)
	acc := NewShardAcc(cfg, ShardPlan{Shards: 2, Trials: cfg.Trials})
	acc.Record(0, ShardResult{Trials: 10}, nil)
	if _, err := acc.Result(); err == nil {
		t.Fatal("Result merged a cell with an open slot")
	}
}
