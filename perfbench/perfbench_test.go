package main

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/montecarlo"
	"repro/internal/sched"
	"repro/internal/serve"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false}, // rank 10, 9 beyond
		{20, 0.5, 10, true},  // rank 10, 10 beyond
		{99, 0.9, 90, false}, // rank 90, 9 beyond
		{100, 0.9, 90, true}, // rank 90, 10 beyond
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 0, Parent: -1, Name: "cell", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 35 * ms, End: 50 * ms},  // inside a∪b
		{ID: 4, Parent: 0, Name: "d", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 1, Name: "a1", Start: 15 * ms, End: 20 * ms},
		{ID: 6, Parent: 0, Name: "open", Start: 70 * ms, End: -1}, // never closed
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [90,100] of the parent: 60ms of 100.
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 15 * ms, 30 * ms, 5 * ms, 0}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
}

func TestPlansAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, _ := json.Marshal(w.plan(newGen(w.Name, 7), 10))
		b, _ := json.Marshal(w.plan(newGen(w.Name, 7), 10))
		c, _ := json.Marshal(w.plan(newGen(w.Name, 8), 10))
		if string(a) != string(b) {
			t.Errorf("%s: same seed gave different plans", w.Name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", w.Name)
		}
	}
}

func TestRepeatMixScheduleSpansRunAndKeepsCellMultiset(t *testing.T) {
	const seconds = 5
	cells := func(seed uint64) (map[int]int, time.Duration) {
		plan := planRepeatMix(newGen("repeat-mix", seed), seconds)
		if len(plan) != repeatMixRate*seconds {
			t.Fatalf("plan has %d requests, want %d", len(plan), repeatMixRate*seconds)
		}
		byD := make(map[int]int)
		var last time.Duration
		for i, rq := range plan {
			if rq.Due < last {
				t.Fatalf("request %d due before its predecessor", i)
			}
			last = rq.Due
			for _, d := range rq.Body.Distances {
				byD[d] += len(rq.Body.Rates)
			}
		}
		return byD, last
	}
	a, lastA := cells(1)
	b, _ := cells(2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("cells per distance differ across seeds: %v vs %v", a, b)
	}
	if lastA >= seconds*time.Second || lastA < seconds*time.Second*9/10 {
		t.Errorf("last request due at %v, want just under %ds", lastA, seconds)
	}
}

func TestOpenLoopCountsLatencyFromDueTime(t *testing.T) {
	// One sender, a request due every 10ms, each taking 30ms: every request
	// waits for the one before, so request i is sent ~20ms*i late and its
	// latency is that lag plus its service time.
	const n, gap, service = 6, 10 * time.Millisecond, 30 * time.Millisecond
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{ID: i, Due: time.Duration(i) * gap}
	}
	origin := time.Now()
	out, maxLag := runOpen(reqs, 1, origin, func(rq request, due time.Duration) result {
		time.Sleep(service)
		return result{Req: rq, Start: due, Done: time.Since(origin)}
	})
	wantLag := time.Duration(n-1) * (service - gap)
	if maxLag < wantLag || maxLag > wantLag+50*time.Millisecond {
		t.Errorf("max lag %v, want about %v", maxLag, wantLag)
	}
	for i, r := range out {
		if r.Start != reqs[i].Due {
			t.Errorf("request %d: latency origin %v, want its due time %v", i, r.Start, reqs[i].Due)
		}
		lat := r.Done - r.Start
		want := time.Duration(i)*(service-gap) + service
		if lat < want || lat > want+50*time.Millisecond {
			t.Errorf("request %d: latency %v, want about %v", i, lat, want)
		}
	}

	// Two senders keep up with the same schedule: nobody is late.
	_, maxLag = runOpen(reqs[:2], 2, time.Now(), func(rq request, due time.Duration) result {
		time.Sleep(service)
		return result{Req: rq, Start: due}
	})
	if maxLag > 15*time.Millisecond {
		t.Errorf("two senders: max lag %v, want ~0", maxLag)
	}
}

func TestZipfCountsSumAndCoverEveryRank(t *testing.T) {
	for _, n := range []int{8, 37, 150} {
		counts := zipfCounts(n, 8)
		sum := 0
		for r, c := range counts {
			if c < 1 {
				t.Errorf("n=%d: rank %d drawn %d times", n, r, c)
			}
			if r > 0 && c > counts[0] {
				t.Errorf("n=%d: rank %d (%d) above rank 0 (%d)", n, r, c, counts[0])
			}
			sum += c
		}
		if sum != n {
			t.Errorf("n=%d: counts sum to %d", n, sum)
		}
	}
}

func TestGateCountsEveryFailureAgainstAttempted(t *testing.T) {
	body := serve.SweepRequest{Distances: []int{3}, Rates: []float64{1e-3, 2e-3, 4e-3}, Trials: 128, Seed: 5}
	jobs, err := serve.BuildCells(body)
	if err != nil {
		t.Fatal(err)
	}
	en := montecarlo.NewEngine()
	good := make([]cellObs, len(jobs))
	for i, job := range jobs {
		res, err := en.RunOn(job.Cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		good[i] = cellObs{Rec: serve.ToCellRecord(sched.CellResult{Index: i, Job: job, Result: res})}
	}
	ok := func(cells ...cellObs) result {
		return result{Req: request{Body: body}, Status: 200, Cells: cells}
	}
	wrong := good[2]
	wrong.Rec.Failures++
	ledger := good[0]
	ledger.Rec.Source = "ledger" // provenance only: not a mismatch
	results := []result{
		ok(good[2], good[0], good[1]), // complete, any order
		ok(ledger, good[1], good[1]),  // duplicate 1, missing 2
		ok(good[0], good[1], wrong),   // mismatch
		{Req: request{Body: body}, Status: 429, Refused: true},
	}
	rep, err := runGate(results)
	if err != nil {
		t.Fatal(err)
	}
	want := gateReport{Attempted: 12, Failed: 6, Refused: 3, Missing: 1, Duplicates: 1, Mismatches: 1}
	if rep != want {
		t.Fatalf("gate = %+v, want %+v", rep, want)
	}
	if rep.correct() {
		t.Error("gate with mismatches reported correct")
	}
}
