package dem

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/pframe"
)

// oracleBuildStructure is the reference structure build: it propagates
// every elementary fault forward through the rest of the circuit with
// pframe.Propagator (itself checked against the tableau simulator) and
// merges footprints in fault enumeration order. BuildStructure's backward
// sensitivity sweep must reproduce it byte for byte.
func oracleBuildStructure(e *extract.Experiment) (*Structure, error) {
	ndet := len(e.Detectors)
	measDets := make([][]int32, e.Circ.NumMeas)
	for di, det := range e.Detectors {
		for _, m := range det.Meas {
			measDets[m] = append(measDets[m], int32(di))
		}
	}
	measObs := make([]bool, e.Circ.NumMeas)
	for _, m := range e.Observable {
		measObs[m] = !measObs[m]
	}

	prop := pframe.NewPropagator(e.Circ)
	s := &Structure{NumDets: ndet, NumOps: e.Circ.NumOps()}
	s.detOff = append(s.detOff, 0)

	buckets := make(map[uint64][]int32)
	var srcs [][]int32
	var srcOps []int32
	var srcDivs []float64

	detParity := make(map[int32]bool, 8)
	var dets []int32
	var faults []pframe.WeightedFault

	gid := int32(-1)
	for mi := range e.Circ.Moments {
		m := &e.Circ.Moments[mi]
		for oi := range m.Ops {
			gid++
			op := &m.Ops[oi]
			faults = pframe.FaultsOf(mi, oi, op, faults[:0])
			div := float64(pframe.BranchCount(op.Kind))
			for fi := range faults {
				s.Stats.Faults++
				clear(detParity)
				obs := false
				for _, meas := range prop.Propagate(faults[fi].Fault) {
					for _, d := range measDets[meas] {
						detParity[d] = !detParity[d]
					}
					obs = obs != measObs[meas]
				}
				dets = dets[:0]
				for d, v := range detParity {
					if v {
						dets = append(dets, d)
					}
				}
				if len(dets) == 0 {
					if obs {
						s.Stats.UndetectableObs++
					} else {
						s.Stats.Harmless++
						continue
					}
				}
				slices.Sort(dets)
				s.Stats.MaxFootprint = max(s.Stats.MaxFootprint, len(dets))
				if len(dets) > 2 {
					s.Stats.MultiDetFaults++
				}

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
				srcOps = append(srcOps, gid)
				srcDivs = append(srcDivs, div)
			}
		}
	}
	if s.Stats.UndetectableObs > 0 {
		return nil, fmt.Errorf("dem: %d faults flip the observable without any detector", s.Stats.UndetectableObs)
	}

	s.srcOff = []int32{0}
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

// The backward sweep must be byte-identical to the forward per-fault
// oracle on every scheme, distance and basis: same footprints, same
// mechanism and source order, same stats and the same hoisted graph. This
// is what keeps goldens, ledgers and cell keys valid across the rewrite.
func TestBuildStructureMatchesForwardOracle(t *testing.T) {
	type tc struct {
		scheme extract.Scheme
		d      int
		basis  extract.Basis
	}
	var cases []tc
	for _, scheme := range extract.Schemes {
		for _, d := range []int{3, 5, 7} {
			for _, basis := range []extract.Basis{extract.BasisZ, extract.BasisX} {
				cases = append(cases, tc{scheme, d, basis})
			}
		}
	}
	if !testing.Short() {
		cases = append(cases, tc{extract.CompactInterleaved, 9, extract.BasisZ})
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/d=%d/%v", c.scheme, c.d, c.basis), func(t *testing.T) {
			e, err := extract.Build(extract.Config{Scheme: c.scheme, Distance: c.d, Basis: c.basis, Params: hardware.Default()})
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildStructure(e)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleBuildStructure(e)
			if err != nil {
				t.Fatal(err)
			}
			assertSameStructure(t, got, want)
		})
	}
}

func assertSameStructure(t *testing.T, got, want *Structure) {
	t.Helper()
	if got.NumDets != want.NumDets || got.NumOps != want.NumOps {
		t.Fatalf("shape: dets %d ops %d, want dets %d ops %d", got.NumDets, got.NumOps, want.NumDets, want.NumOps)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"dets", got.dets, want.dets},
		{"detOff", got.detOff, want.detOff},
		{"obs", got.obs, want.obs},
		{"srcOp", got.srcOp, want.srcOp},
		{"srcDiv", got.srcDiv, want.srcDiv},
		{"srcOff", got.srcOff, want.srcOff},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s differs from the oracle", f.name)
		}
	}
	gg, err := got.Graph()
	if err != nil {
		t.Fatal(err)
	}
	wg, err := want.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gg, wg) {
		t.Fatal("hoisted graph (edges, sources or adjacency) differs from the oracle")
	}
}

// BenchmarkBuildStructure times the structure build at the distances the
// cold benchmark grids reach.
func BenchmarkBuildStructure(b *testing.B) {
	for _, d := range []int{7, 9, 11} {
		b.Run(fmt.Sprintf("compact-interleaved/d=%d", d), func(b *testing.B) {
			e, err := extract.Build(extract.Config{Scheme: extract.CompactInterleaved, Distance: d, Basis: extract.BasisZ, Params: hardware.Default()})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := BuildStructure(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
