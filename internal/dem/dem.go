package dem

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"repro/internal/circuit"
	"repro/internal/extract"
	"repro/internal/pauli"
	"repro/internal/pframe"
)

// Mechanism is one independent error source: with probability P it flips
// every detector in Dets and, if Obs, the logical observable.
type Mechanism struct {
	Dets []int32
	Obs  bool
	P    float64
}

// BuildStats reports diagnostics from model construction.
type BuildStats struct {
	Faults          int // elementary faults enumerated
	Harmless        int // faults with no detector or observable effect
	Mechanisms      int // merged mechanisms
	MaxFootprint    int // largest detector footprint of any fault
	UndetectableObs int // faults flipping the observable but no detector (must be 0)
	MultiDetFaults  int // faults with footprints larger than 2 (need decomposition)
}

// Model is the detector error model of one experiment at one noise scale.
type Model struct {
	NumDets int
	Mechs   []Mechanism
	Stats   BuildStats

	// st links back to the Structure this model was reweighted from, so
	// DecodingGraph can reuse the hoisted, build-once graph topology. Nil
	// for hand-assembled models, which derive a topology on demand.
	st *Structure
}

// Structure is the immutable, probability-free half of a detector error
// model: the merged mechanism footprints and, per mechanism, the elementary
// fault branches feeding it. Footprints and sources are stored in flat CSR
// form. A Structure is built once per circuit structure and Reweighted for
// every noise scale; it is safe for concurrent use.
type Structure struct {
	NumDets int
	NumOps  int // ops of the source circuit (length of Reweight's input)

	// Footprints: mechanism i flips dets[detOff[i]:detOff[i+1]] and, if
	// obs[i], the logical observable.
	dets   []int32
	detOff []int32
	obs    []bool

	// Sources: mechanism i is fed by fault branches with probability
	// probs[srcOp[k]]/srcDiv[k] for k in [srcOff[i], srcOff[i+1]), in fault
	// enumeration order (so Reweight's XOR-fold reproduces a direct build
	// bit for bit).
	srcOp  []int32
	srcDiv []float64
	srcOff []int32

	Stats BuildStats

	// Hoisted decoding-graph topology (detector decomposition, edge
	// topology, boundary assignment), built on first use and shared by
	// every Model reweighted from this Structure.
	graphOnce sync.Once
	graph     *GraphStructure
	graphErr  error
}

// Graph returns the hoisted decoding-graph topology of this structure,
// building it on the first call. Every noise scale shares the returned
// instance; only edge weights are recomputed per scale (GraphStructure.
// Weight, reached through Model.DecodingGraph). Safe for concurrent use.
func (s *Structure) Graph() (*GraphStructure, error) {
	s.graphOnce.Do(func() {
		s.graph, s.graphErr = buildGraphStructure(s.NumDets, s.NumMechanisms(), s.Footprint)
	})
	return s.graph, s.graphErr
}

// NumMechanisms returns the merged mechanism count.
func (s *Structure) NumMechanisms() int { return len(s.detOff) - 1 }

// Footprint returns mechanism i's detector footprint (shared backing; do
// not modify) and observable mask.
func (s *Structure) Footprint(i int) ([]int32, bool) {
	return s.dets[s.detOff[i]:s.detOff[i+1]], s.obs[i]
}

// fnv1aFootprint hashes a sorted footprint plus observable mask.
func fnv1aFootprint(dets []int32, obs bool) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, d := range dets {
		u := uint32(d)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(u >> s & 0xff)
			h *= prime64
		}
	}
	if obs {
		h ^= 1
	}
	h *= prime64
	return h
}

// BuildStructure derives every elementary fault's footprint (ops with a
// positive error probability) in one backward sensitivity sweep over the
// circuit and merges identical footprints into mechanisms, recording
// per-mechanism fault sources instead of probabilities. Faults of ops
// annotated with zero probability are not represented; build experiments
// with every relevant noise class positive (hardware.Default is) if they
// are to be reweighted.
func BuildStructure(e *extract.Experiment) (*Structure, error) {
	ndet := len(e.Detectors)
	fp := sweepFootprints(e)

	s := &Structure{NumDets: ndet, NumOps: e.Circ.NumOps()}
	s.detOff = append(s.detOff, 0)

	buckets := make(map[uint64][]int32) // footprint hash -> mechanism indices
	var srcs [][]int32                  // per-mechanism source indices into srcOp/srcDiv order
	var srcOps []int32                  // source k: global op
	var srcDivs []float64               // source k: branch divisor

	// The sweep recorded ops last to first; merging them first to last
	// visits faults in enumeration order, so mechanism order and source
	// order match a forward per-fault build.
	for r := len(fp.ops) - 1; r >= 0; r-- {
		op := fp.ops[r]
		for f := op.first; f < op.first+op.n; f++ {
			s.Stats.Faults++
			dets, obs := fp.dets[fp.off[f]:fp.off[f+1]], fp.obs[f]
			if len(dets) == 0 {
				if obs {
					s.Stats.UndetectableObs++
				} else {
					s.Stats.Harmless++
					continue
				}
			}
			if len(dets) > s.Stats.MaxFootprint {
				s.Stats.MaxFootprint = len(dets)
			}
			if len(dets) > 2 {
				s.Stats.MultiDetFaults++
			}

			// Find or create the mechanism with this footprint.
			h := fnv1aFootprint(dets, obs)
			mech := int32(-1)
			for _, cand := range buckets[h] {
				if s.obs[cand] == obs && slices.Equal(s.dets[s.detOff[cand]:s.detOff[cand+1]], dets) {
					mech = cand
					break
				}
			}
			if mech < 0 {
				mech = int32(len(s.obs))
				s.dets = append(s.dets, dets...)
				s.detOff = append(s.detOff, int32(len(s.dets)))
				s.obs = append(s.obs, obs)
				srcs = append(srcs, nil)
				buckets[h] = append(buckets[h], mech)
			}
			srcs[mech] = append(srcs[mech], int32(len(srcOps)))
			srcOps = append(srcOps, op.gid)
			srcDivs = append(srcDivs, op.div)
		}
	}
	if s.Stats.UndetectableObs > 0 {
		return nil, fmt.Errorf("dem: %d faults flip the observable without any detector", s.Stats.UndetectableObs)
	}

	// Flatten sources to CSR in mechanism order.
	s.srcOff = make([]int32, 1, len(srcs)+1)
	s.srcOp = make([]int32, 0, len(srcOps))
	s.srcDiv = make([]float64, 0, len(srcDivs))
	for _, list := range srcs {
		for _, k := range list {
			s.srcOp = append(s.srcOp, srcOps[k])
			s.srcDiv = append(s.srcDiv, srcDivs[k])
		}
		s.srcOff = append(s.srcOff, int32(len(s.srcOp)))
	}
	s.Stats.Mechanisms = s.NumMechanisms()
	return s, nil
}

// faultFootprints holds the footprint of every elementary fault, grouped
// by op in the order the backward sweep visited them (last op first;
// within an op, branches in pframe.FaultsOf order).
type faultFootprints struct {
	ops  []faultOp
	dets []int32 // fault f flips dets[off[f]:off[f+1]] (sorted)
	off  []int32
	obs  []bool // fault f flips the observable
}

// faultOp is one noisy op's run of faults in faultFootprints.
type faultOp struct {
	gid      int32   // global op index
	first, n int32   // faults first .. first+n-1
	div      float64 // branch divisor, pframe.BranchCount
}

// sensitivity is what a Pauli component on one slot flips if it occurs at
// the sweep's current point: a sorted detector set and the observable bit.
type sensitivity struct {
	dets []int32
	obs  bool
}

// xorInto sets s to s XOR o (symmetric difference of the detector sets),
// computing into *tmp and swapping backings so no allocation is needed
// once the buffers have grown.
func (s *sensitivity) xorInto(o []int32, obs bool, tmp *[]int32) {
	*tmp = symDiff((*tmp)[:0], s.dets, o)
	s.dets, *tmp = *tmp, s.dets
	s.obs = s.obs != obs
}

func (s *sensitivity) clear() { s.dets, s.obs = s.dets[:0], false }

// addPauli XORs the sensitivities of Pauli p on one slot (X part x, Z
// part z) into s.
func (s *sensitivity) addPauli(p pauli.Pauli, x, z *sensitivity, tmp *[]int32) {
	if p.XBit() {
		s.xorInto(x.dets, x.obs, tmp)
	}
	if p.ZBit() {
		s.xorInto(z.dets, z.obs, tmp)
	}
}

// symDiff appends the symmetric difference of sorted sets a and b to dst.
func symDiff(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// sweepFootprints computes every elementary fault's footprint in one
// reverse walk over the circuit (the backward error analysis Stim uses).
// The walk keeps, per slot, the detectors and observable bit an X and a Z
// error would flip at the current point; a fault injected right after an
// op flips the XOR of its Paulis' sensitivities there, and stepping back
// through the op applies the transpose of its frame update. This replaces
// propagating each fault forward (O(faults × ops)) with a few small sorted
// set updates per op.
func sweepFootprints(e *extract.Experiment) *faultFootprints {
	c := e.Circ
	// Invert detector definitions: measurement -> detectors containing it
	// an odd number of times (sorted, since detectors are visited in
	// order and a repeat cancels its adjacent twin).
	measDets := make([][]int32, c.NumMeas)
	for di, det := range e.Detectors {
		for _, m := range det.Meas {
			if l := len(measDets[m]); l > 0 && measDets[m][l-1] == int32(di) {
				measDets[m] = measDets[m][:l-1]
			} else {
				measDets[m] = append(measDets[m], int32(di))
			}
		}
	}
	measObs := make([]bool, c.NumMeas)
	for _, m := range e.Observable {
		measObs[m] = !measObs[m]
	}

	sx := make([]sensitivity, c.NumSlots)
	sz := make([]sensitivity, c.NumSlots)
	var tmp, acc []int32
	fp := &faultFootprints{off: []int32{0}}
	var faults []pframe.WeightedFault

	gid := int32(c.NumOps())
	for mi := len(c.Moments) - 1; mi >= 0; mi-- {
		m := &c.Moments[mi]
		for oi := len(m.Ops) - 1; oi >= 0; oi-- {
			gid--
			op := &m.Ops[oi]
			if faults = pframe.FaultsOf(mi, oi, op, faults[:0]); len(faults) > 0 {
				fp.ops = append(fp.ops, faultOp{
					gid:   gid,
					first: int32(len(fp.obs)),
					n:     int32(len(faults)),
					div:   float64(pframe.BranchCount(op.Kind)),
				})
				for fi := range faults {
					f := &faults[fi].Fault
					sum := sensitivity{dets: acc[:0]}
					if f.FlipMeas {
						sum.xorInto(measDets[op.MeasIdx], measObs[op.MeasIdx], &tmp)
					}
					sum.addPauli(f.PA, &sx[op.A], &sz[op.A], &tmp)
					if op.Kind.TwoQubit() {
						sum.addPauli(f.PB, &sx[op.B], &sz[op.B], &tmp)
					}
					acc = sum.dets
					fp.dets = append(fp.dets, sum.dets...)
					fp.off = append(fp.off, int32(len(fp.dets)))
					fp.obs = append(fp.obs, sum.obs)
				}
			}

			// Step back through the op's ideal action.
			a, b := op.A, op.B
			switch op.Kind {
			case circuit.OpReset:
				sx[a].clear()
				sz[a].clear()
			case circuit.OpH:
				sx[a], sz[a] = sz[a], sx[a]
			case circuit.OpCNOT:
				// X on the control spreads to the target; Z on the target
				// spreads to the control.
				sx[a].xorInto(sx[b].dets, sx[b].obs, &tmp)
				sz[b].xorInto(sz[a].dets, sz[a].obs, &tmp)
			case circuit.OpLoad:
				// Mode b moves to transmon a; a's prior content is discarded.
				sx[a], sx[b] = sx[b], sx[a]
				sz[a], sz[b] = sz[b], sz[a]
				sx[a].clear()
				sz[a].clear()
			case circuit.OpStore:
				sx[a], sx[b] = sx[b], sx[a]
				sz[a], sz[b] = sz[b], sz[a]
				sx[b].clear()
				sz[b].clear()
			case circuit.OpMeasureZ:
				sx[a].xorInto(measDets[op.MeasIdx], measObs[op.MeasIdx], &tmp)
			}
		}
	}
	return fp
}

// Reweight materializes the Model for one per-op probability assignment
// (global op order, e.g. circuit.OpProbs or extract.NoiseProbs). Mechanism
// footprints share the Structure's backing arrays; probabilities are
// XOR-folded over each mechanism's sources in fault enumeration order, so
// the result is bit-for-bit identical to a direct Build at the same
// annotation.
func (s *Structure) Reweight(probs []float64) (*Model, error) {
	return s.ReweightInto(probs, nil)
}

// ReweightInto is Reweight recycling model m (from an earlier reweight of
// any structure) instead of allocating: a sweep worker walking the noise
// scales of a row reuses one Model's backing across every cell. m may be
// nil or must be exclusively owned by the caller; the returned model is m
// when shapes allow reuse.
func (s *Structure) ReweightInto(probs []float64, m *Model) (*Model, error) {
	if len(probs) != s.NumOps {
		return nil, fmt.Errorf("dem: Reweight got %d op probabilities, want %d", len(probs), s.NumOps)
	}
	n := s.NumMechanisms()
	if m == nil {
		m = &Model{}
	}
	m.NumDets, m.Stats, m.st = s.NumDets, s.Stats, s
	if cap(m.Mechs) >= n {
		m.Mechs = m.Mechs[:n]
	} else {
		m.Mechs = make([]Mechanism, n)
	}
	for i := 0; i < n; i++ {
		p := 0.0
		for k := s.srcOff[i]; k < s.srcOff[i+1]; k++ {
			p = xorProb(p, probs[s.srcOp[k]]/s.srcDiv[k])
		}
		m.Mechs[i] = Mechanism{
			Dets: s.dets[s.detOff[i]:s.detOff[i+1]],
			Obs:  s.obs[i],
			P:    p,
		}
	}
	return m, nil
}

// Build constructs the model for experiment e at its current noise
// annotation: BuildStructure + Reweight in one step.
func Build(e *extract.Experiment) (*Model, error) {
	s, err := BuildStructure(e)
	if err != nil {
		return nil, err
	}
	return s.Reweight(e.Circ.OpProbs(make([]float64, 0, e.Circ.NumOps())))
}

// xorProb combines two independent flip sources into the probability that an
// odd number of them fires.
func xorProb(a, b float64) float64 { return a*(1-b) + b*(1-a) }

// Sampler draws detector-event samples directly from the model, one shot
// per call. Not safe for concurrent use; create one per goroutine. For bulk
// sampling prefer BatchSampler.
type Sampler struct {
	m      *Model
	parity []bool
	events []int
}

// NewSampler returns a sampler over the model.
func (m *Model) NewSampler() *Sampler {
	return &Sampler{m: m, parity: make([]bool, m.NumDets)}
}

// Sample draws one shot: the list of fired detectors (sorted, reused buffer)
// and whether the logical observable flipped.
func (s *Sampler) Sample(rng *rand.Rand) (events []int, obs bool) {
	for i := range s.parity {
		s.parity[i] = false
	}
	for i := range s.m.Mechs {
		mech := &s.m.Mechs[i]
		if rng.Float64() >= mech.P {
			continue
		}
		for _, d := range mech.Dets {
			s.parity[d] = !s.parity[d]
		}
		if mech.Obs {
			obs = !obs
		}
	}
	s.events = s.events[:0]
	for d, v := range s.parity {
		if v {
			s.events = append(s.events, d)
		}
	}
	return s.events, obs
}

// ExpectedEventRate returns the mean number of detection events per shot
// (sum of footprint sizes weighted by probability) — a cheap cross-check
// against empirical sampling.
func (m *Model) ExpectedEventRate() float64 {
	t := 0.0
	for i := range m.Mechs {
		// Each mechanism flips each of its detectors with probability P;
		// to first order the expected count adds P per detector touched.
		t += m.Mechs[i].P * float64(len(m.Mechs[i].Dets))
	}
	return t
}

// clampProb keeps probabilities in the open interval for weight computation.
func clampProb(p float64) float64 {
	const lo, hi = 1e-15, 0.5 - 1e-12
	return math.Min(math.Max(p, lo), hi)
}

// WeightOf converts a probability to a matching weight ln((1-p)/p).
func WeightOf(p float64) float64 {
	p = clampProb(p)
	return math.Log((1 - p) / p)
}
