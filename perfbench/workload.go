package main

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/montecarlo"
	"repro/internal/serve"
)

// request is one generated submission. Due is its send time as an offset
// from the start of the timed phase (open loop only).
type request struct {
	ID   int
	Body serve.SweepRequest
	Due  time.Duration
}

// workload is one traffic mix. Every closed-loop workload sends its plan
// from one client, one request at a time; the open-loop workload sends on
// the plan's Due schedule over at most two connections.
type workload struct {
	Name string
	Open bool
	// Fabric runs the sweeps on an in-process coordinator with two workers
	// over loopback HTTP instead of the server's local pool.
	Fabric bool
	// Prime lists the compact-interleaved distances whose structures set-up
	// builds before the timed phase (every request defaults to that scheme).
	Prime []int
	// ReplicaReqs is how many leading plan requests the traced run
	// decomposes into layer calls.
	ReplicaReqs int
	plan        func(g *gen, seconds int) []request
}

// workloads are the four traffic mixes; BENCHMARK.json records why each
// was chosen.
var workloads = []*workload{
	{
		// New structures on an empty cache: circuit and DEM build dominate.
		Name:        "cold-grid",
		ReplicaReqs: 5,
		plan:        planColdGrid,
	},
	{
		// Primed structures, every cell a ledger miss: sampling and
		// decoding do the work.
		Name:        "warm-grid",
		Prime:       []int{5, 7, 9},
		ReplicaReqs: 3,
		plan:        planWarmGrid,
	},
	{
		// Mostly ledger hits or coalesced cells, beside misses that write
		// the ledger: the serve path, with little engine work.
		Name:        "repeat-mix",
		Open:        true,
		Prime:       []int{3, 5, 7},
		ReplicaReqs: 12,
		plan:        planRepeatMix,
	},
	{
		// Warm-grid's shape leased in small shards: the only path through
		// lease, wire encode and fabric merge.
		Name:        "fabric-grid",
		Fabric:      true,
		Prime:       []int{5, 7},
		ReplicaReqs: 3,
		plan:        planFabricGrid,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// gen is the seeded input generator: the same workload and seed give the
// same plan, byte for byte. Request seeds are distinct within a plan, so a
// request only hits the ledger where the workload means it to.
type gen struct {
	rng   *rand.Rand
	seeds map[int64]bool
}

func newGen(workload string, seed uint64) *gen {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &gen{rng: rand.New(rand.NewPCG(seed, h.Sum64())), seeds: make(map[int64]bool)}
}

// seed draws a fresh request seed, never 0 (which set-up priming uses).
func (g *gen) seed() int64 {
	for {
		s := g.rng.Int64N(1<<40) + 1
		if !g.seeds[s] {
			g.seeds[s] = true
			return s
		}
	}
}

// rateGrid is the physical-rate grid requests draw from: the Fig. 11
// operating region below the ~5e-3 threshold.
var rateGrid = []float64{5e-4, 1e-3, 2e-3, 4e-3}

// rates draws n distinct rates from rateGrid in ascending order.
func (g *gen) rates(n int) []float64 {
	idx := g.rng.Perm(len(rateGrid))[:n]
	out := make([]float64, 0, n)
	for i := range rateGrid {
		for _, j := range idx {
			if i == j {
				out = append(out, rateGrid[i])
			}
		}
	}
	return out
}

// planColdGrid: Fig. 12 load-store-duration sweeps at compact-interleaved
// d=7, each of two durations never seen before (log-uniform in 100-300 ns,
// around the 150 ns operating point) x 2000 trials. The duration is part of
// the structure key, so every cell misses the structure cache and the two
// pool workers build the request's two structures side by side. Every
// request costs the same, so the request medians are medians of like
// samples. Two requests per second of run time (~0.5 s each on the
// reference box, where the two parallel builds contend for memory) and at
// least 20.
func planColdGrid(g *gen, seconds int) []request {
	out := make([]request, max(20, 2*seconds))
	seen := make(map[float64]bool)
	for i := range out {
		var durs []float64
		for len(durs) < 2 {
			d := 100e-9 * math.Exp(g.rng.Float64()*math.Log(3))
			if !seen[d] {
				seen[d] = true
				durs = append(durs, d)
			}
		}
		out[i] = request{ID: i, Body: serve.SweepRequest{
			Type: "sensitivity", Panel: string(montecarlo.PanelLoadStoreDuration),
			Distances: []int{7}, Values: durs, Trials: 2000, Seed: g.seed(),
		}}
	}
	return out
}

// gridPlan is the warm-grid request shape, each cell a distinct seed. Two
// of every three requests decode with uf and the third with blossom: the
// unequal split keeps the request medians inside the uf group, away from
// the edge between the two decoders' latency groups. n is rounded up to a
// whole number of triples.
func gridPlan(g *gen, n int, distances []int, shardShots int, mode string) []request {
	out := make([]request, (n+2)/3*3)
	for i := range out {
		dec := "uf"
		if i%3 == 2 {
			dec = "blossom"
		}
		out[i] = request{ID: i, Body: serve.SweepRequest{
			Mode: mode, Distances: distances, Rates: rateGrid, Trials: 6144,
			ShardShots: shardShots, Decoder: dec, Seed: g.seed(),
		}}
	}
	return out
}

// planWarmGrid: compact-interleaved d in {5,7,9} x 4 rates x 6144 trials,
// shard_shots 2048 (3 shards a cell); two requests per second of run time
// (~0.5 s each on the reference box) and at least 20.
func planWarmGrid(g *gen, seconds int) []request {
	return gridPlan(g, max(20, 2*seconds), []int{5, 7, 9}, 2048, "")
}

// planFabricGrid: warm-grid's shape at d in {5,7} in fabric mode with
// shard_shots 1024, so every cell is 6 leases; four requests per second of
// run time (~0.2 s each on the reference box).
func planFabricGrid(g *gen, seconds int) []request {
	return gridPlan(g, max(20, 4*seconds), []int{5, 7}, 1024, "fabric")
}

// repeatMixRate is the open-loop arrival rate in requests per second, well
// below the saturation rate of the serve path on the reference box.
const repeatMixRate = 20

// repeatMixShapes are the pool specs' distance lists, by popularity rank;
// fixed so every seed's plan has the same cell multiset.
var repeatMixShapes = [][]int{{3}, {5}, {3, 5}, {7}, {3, 5, 7}, {5, 7}, {3}, {5}}

// planRepeatMix: Poisson arrivals at repeatMixRate, scaled so the schedule
// spans exactly the run time. Every fourth request is a fresh spec (a
// ledger miss), alternately d=3 and d=5; the rest draw from the pool with Zipf (1/rank)
// counts in seeded order, so after a spec's first execution its cells are
// ledger hits, or coalesced when two copies overlap.
func planRepeatMix(g *gen, seconds int) []request {
	n := repeatMixRate * seconds
	pool := make([]serve.SweepRequest, len(repeatMixShapes))
	for k, ds := range repeatMixShapes {
		pool[k] = serve.SweepRequest{Distances: ds, Rates: g.rates(2 + k%2), Trials: 2000, Seed: g.seed()}
	}
	nfresh := n / 4
	counts := zipfCounts(n-nfresh, len(pool))
	var draws []int
	for k, c := range counts {
		for range c {
			draws = append(draws, k)
		}
	}
	g.rng.Shuffle(len(draws), func(i, j int) { draws[i], draws[j] = draws[j], draws[i] })

	gaps := make([]float64, n)
	var total float64
	for i := range gaps {
		gaps[i] = g.rng.ExpFloat64()
		total += gaps[i]
	}
	span := float64(seconds) * float64(time.Second)
	out := make([]request, n)
	var due float64
	for i := range out {
		var body serve.SweepRequest
		if i%4 == 3 {
			d := 3 + 2*(i/4%2) // alternate, so every seed has the same cells
			body = serve.SweepRequest{Distances: []int{d}, Rates: g.rates(2), Trials: 1000, Seed: g.seed()}
		} else {
			body = pool[draws[0]]
			draws = draws[1:]
		}
		out[i] = request{ID: i, Body: body, Due: time.Duration(due)}
		due += gaps[i] / total * span
	}
	return out
}

// zipfCounts splits n >= k draws over k ranks: one each, the rest in
// proportion to 1/(rank+1), leftovers to the top ranks.
func zipfCounts(n, k int) []int {
	var h float64
	for r := 0; r < k; r++ {
		h += 1 / float64(r+1)
	}
	counts := make([]int, k)
	left := n
	for r := range counts {
		counts[r] = 1 + int(float64(n-k)/float64(r+1)/h)
		left -= counts[r]
	}
	for r := 0; left > 0; r = (r + 1) % k {
		counts[r]++
		left--
	}
	return counts
}
