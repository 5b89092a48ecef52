package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"time"

	"repro/internal/decoder"
	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/montecarlo"
	"repro/internal/sched"
	"repro/internal/serve"
)

// replica executes cells by calling each layer's public entry points in
// the order montecarlo.Engine.RunOn calls them internally, with a span
// around every call: extract.Build, dem.BuildStructure and Structure.Graph
// on a structure-cache miss; Experiment.NoiseProbs + Structure.ReweightInto
// + GraphStructure.Weight per cell; BatchSampler.SampleN + Extract and the
// pipelined DecodeBatch per 64-shot batch. Its structure cache mirrors the
// engine's, so builds happen exactly where the server's would.
type replica struct {
	tr    *tracer
	cache map[extract.StructuralKey]*repEntry

	probs []float64
	model *dem.Model
	bs    *dem.BatchSampler
	decs  map[decoder.Kind]decoder.BatchDecoder
	pipe  *decoder.Pipeline
	batch decoder.Batch
	ss    dem.ShotSet

	// storeShots bounds how many shots per cell are kept for the bare
	// decoder comparison.
	storeShots int
	stored     []storedCell

	shots, nonzero int64
}

type repEntry struct {
	exp *extract.Experiment
	st  *dem.Structure
	gs  *dem.GraphStructure
}

// storedCell keeps a cell's first batches (every shot, zero-defect ones as
// empty syndromes) and its graph for the bare-vs-pipeline comparison.
type storedCell struct {
	graph   *dem.Graph
	batches []*decoder.Batch
	shots   int
}

// tally is a replica cell's outcome, compared against RunOn's.
type tally struct {
	trials, failures, skipped, dedup int
}

func newReplica(tr *tracer, storeShots int) *replica {
	return &replica{tr: tr, cache: make(map[extract.StructuralKey]*repEntry),
		decs: make(map[decoder.Kind]decoder.BatchDecoder), storeShots: storeShots}
}

func extractConfig(cfg montecarlo.Config) extract.Config {
	return extract.Config{Scheme: cfg.Scheme, Distance: cfg.Distance, Rounds: cfg.Rounds,
		Basis: cfg.Basis, Params: cfg.Params, ChargeGapIdle: cfg.ChargeGapIdle}
}

// workerSeed is the engine's per-worker ChaCha8 seed derivation, so the
// replica samples the same shots as RunOn (worker 0).
func workerSeed(seed int64, w int) [32]byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(w))
	return sha256.Sum256(buf[:])
}

// structure returns the cached structure for cfg, building it under spans
// on a miss.
func (r *replica) structure(cfg montecarlo.Config, parent int, req string) (*repEntry, error) {
	ecfg := extractConfig(cfg)
	key := ecfg.StructuralKey()
	if e, ok := r.cache[key]; ok {
		return e, nil
	}
	e := &repEntry{}
	var err error
	sp := r.tr.begin("extract.build", parent, req)
	e.exp, err = extract.Build(ecfg)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin("dem.structure", parent, req)
	e.st, err = dem.BuildStructure(e.exp)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin("dem.graph", parent, req)
	e.gs, err = e.st.Graph()
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.cache[key] = e
	return e, nil
}

// decoderFor rebinds the kind's decoder to graph, or builds a new one.
func (r *replica) decoderFor(kind decoder.Kind, graph *dem.Graph, parent int, req string) (decoder.BatchDecoder, error) {
	type rebinder interface{ Rebind(*dem.Graph) bool }
	if d, ok := r.decs[kind]; ok {
		if rb, ok := d.(rebinder); ok {
			sp := r.tr.begin("decoder.rebind", parent, req)
			ok := rb.Rebind(graph)
			r.tr.end(sp)
			if ok {
				return d, nil
			}
		}
	}
	sp := r.tr.begin("decoder.new", parent, req)
	d, err := decoder.New(kind, graph)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.decs[kind] = d
	return d, nil
}

// runCell executes one cell single-threaded as worker 0, like RunOn.
func (r *replica) runCell(cfg montecarlo.Config, req string) (tally, error) {
	var t tally
	kind := cfg.Decoder
	if kind == "" {
		kind = montecarlo.UF
	}
	if cfg.RareEvent || cfg.DisablePipeline || cfg.TargetFailures > 0 {
		return t, fmt.Errorf("replica: only fixed-trial pipelined cells are decomposed")
	}
	cell := r.tr.begin("montecarlo.cell", -1, req)
	defer r.tr.end(cell)
	entry, err := r.structure(cfg, cell, req)
	if err != nil {
		return t, err
	}

	sp := r.tr.begin("dem.reweight", cell, req)
	r.probs, err = entry.exp.NoiseProbs(cfg.Params, r.probs[:0])
	if err == nil {
		r.model, err = entry.st.ReweightInto(r.probs, r.model)
	}
	var graph *dem.Graph
	if err == nil {
		graph, err = entry.gs.Weight(r.model)
	}
	if err == nil {
		if r.bs == nil {
			r.bs = r.model.NewBatchSampler()
		} else {
			r.bs.Reset(r.model)
		}
	}
	r.tr.end(sp)
	if err != nil {
		return t, err
	}
	dec, err := r.decoderFor(kind, graph, cell, req)
	if err != nil {
		return t, err
	}
	if r.pipe == nil {
		r.pipe = decoder.NewPipeline(dec)
	} else {
		r.pipe.Rebind(dec)
	}

	var sc *storedCell
	if r.storeShots > 0 {
		r.stored = append(r.stored, storedCell{graph: graph})
		sc = &r.stored[len(r.stored)-1]
	}
	rng := rand.New(rand.NewChaCha8(workerSeed(cfg.Seed, 0)))
	var out [dem.BatchShots]bool
	for t.trials < cfg.Trials {
		n := min(dem.BatchShots, cfg.Trials-t.trials)
		full := ^uint64(0)
		if n < dem.BatchShots {
			full = 1<<uint(n) - 1
		}
		sp = r.tr.begin("dem.sample", cell, req)
		r.bs.SampleN(rng, n)
		mask := r.bs.EventMask()
		obsW := r.bs.ObsWord()
		r.bs.Extract(mask, &r.ss)
		r.tr.end(sp)

		zero := full &^ mask
		t.skipped += bits.OnesCount64(zero)
		fails := bits.OnesCount64(obsW & zero)
		r.batch.Reset()
		for i := 0; i < r.ss.Len(); i++ {
			r.batch.Add(r.ss.Shot(i))
		}
		before := r.pipe.Stats().DedupHits
		sp = r.tr.begin("decoder.decode", cell, req)
		err := r.pipe.DecodeBatch(&r.batch, out[:r.ss.Len()])
		r.tr.end(sp)
		if err != nil {
			return t, err
		}
		t.dedup += int(r.pipe.Stats().DedupHits - before)
		for i := 0; i < r.ss.Len(); i++ {
			if out[i] != (obsW&(1<<uint(r.ss.Index(i))) != 0) {
				fails++
			}
		}
		t.trials += n
		t.failures += fails
		r.shots += int64(n)
		r.nonzero += int64(r.ss.Len())
		if sc != nil && sc.shots < r.storeShots {
			b := &decoder.Batch{}
			for i := 0; i < r.ss.Len(); i++ {
				b.Add(r.ss.Shot(i))
			}
			for range n - r.ss.Len() {
				b.Add(nil)
			}
			sc.batches = append(sc.batches, b)
			sc.shots += n
		}
	}
	return t, nil
}

// decodeCompare is the bare-versus-pipeline decoder measurement over the
// stored shots: union-find and blossom each decode every shot bare
// (decoder.New + DecodeBatch) and through decoder.NewPipeline. Predictions
// must agree shot for shot; disagreements are counted.
type decodeCompare struct {
	shots                 int64
	ufBare, blBare        time.Duration
	ufPipe, blPipe        time.Duration
	ufEdgeScans, blRounds int64
	mismatches            int
}

func (r *replica) compareDecoders() (decodeCompare, error) {
	var c decodeCompare
	var bare, piped [dem.BatchShots]bool
	for ci, sc := range r.stored {
		req := fmt.Sprintf("compare%d", ci)
		root := r.tr.begin("decoder.compare", -1, req)
		for _, kind := range []decoder.Kind{decoder.KindUF, decoder.KindBlossom} {
			sp := r.tr.begin("decoder.new", root, req)
			d, err := decoder.New(kind, sc.graph)
			if err != nil {
				r.tr.end(sp)
				r.tr.end(root)
				return c, err
			}
			pd, _ := decoder.New(kind, sc.graph) // same arguments as the call above, which succeeded
			pipe := decoder.NewPipeline(pd)
			r.tr.end(sp)
			src := d.(decoder.StatsSource)
			before := src.DecoderStats()
			for _, b := range sc.batches {
				n := b.Len()
				t0 := time.Now()
				sp := r.tr.begin("decoder."+string(kind)+"_bare", root, req)
				err := d.DecodeBatch(b, bare[:n])
				r.tr.end(sp)
				t1 := time.Now()
				sp = r.tr.begin("decoder."+string(kind)+"_pipeline", root, req)
				if err == nil {
					err = pipe.DecodeBatch(b, piped[:n])
				}
				r.tr.end(sp)
				t2 := time.Now()
				if err != nil {
					r.tr.end(root)
					return c, err
				}
				for i := 0; i < n; i++ {
					if bare[i] != piped[i] {
						c.mismatches++
					}
				}
				if kind == decoder.KindUF {
					c.ufBare += t1.Sub(t0)
					c.ufPipe += t2.Sub(t1)
					c.shots += int64(n)
				} else {
					c.blBare += t1.Sub(t0)
					c.blPipe += t2.Sub(t1)
				}
			}
			delta := src.DecoderStats().Sub(before)
			if kind == decoder.KindUF {
				c.ufEdgeScans += delta.UFEdgeScans
			} else {
				c.blRounds += delta.BlossomRounds
			}
		}
		r.tr.end(root)
	}
	return c, nil
}

// replicaCell is one distinct job of the replicated requests, with its
// request's name and the shard plan the server runs it under.
type replicaCell struct {
	job  sched.Job
	req  string
	plan montecarlo.ShardPlan
}

// replicaPlan expands reqs into their distinct cells in plan order, and the
// same cells grouped by request (a request whose cells all appeared earlier
// gets an empty group).
func replicaPlan(reqs []request) ([]replicaCell, [][]replicaCell, error) {
	seen := make(map[string]bool)
	var cells []replicaCell
	var byReq [][]replicaCell
	for _, rq := range reqs {
		jobs, err := serve.BuildCells(rq.Body)
		if err != nil {
			return nil, nil, err
		}
		q := sched.BuildUnitQueue(jobs, rq.Body.ShardShots, sched.OrderCost)
		var mine []replicaCell
		for i, job := range jobs {
			rc := replicaCell{job, fmt.Sprintf("r%d", rq.ID), q.Plans[i]}
			key := gateKey(job, q.Plans[i])
			if seen[key] {
				continue
			}
			seen[key] = true
			cells = append(cells, rc)
			mine = append(mine, rc)
		}
		byReq = append(byReq, mine)
	}
	return cells, byReq, nil
}
