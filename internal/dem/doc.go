// Package dem builds detector error models: it enumerates every elementary
// Pauli fault of an experiment's circuit and records which detectors and
// whether the logical observable each one flips. Faults with identical
// footprints merge into a single mechanism with XOR-combined probability.
// This mirrors how Stim derives matchable models from circuits.
//
// Footprints come from one backward sensitivity sweep, Stim's error
// analysis (Gidney 2021, arXiv:2103.02202): walking the ops last to first,
// the builder keeps, per slot, the sorted detector set and observable bit
// that an X and a Z error at the current point would flip. A fault injected
// right after an op flips the XOR of its Paulis' sets there; stepping back
// through the op applies the transpose of its Pauli-frame update (reset
// clears the slot, H swaps X and Z, CNOT spreads target X to the control
// and control Z to the target, load/store move the slot, a measurement
// adds its detectors to the X set). The cost is linear in circuit size plus
// footprint size, against O(faults × ops) for propagating each fault
// forward. The merge then visits faults in enumeration order, so mechanism
// and source order are those of a per-fault forward build; the forward
// propagator (pframe.Propagator) remains as the test oracle that pins this
// byte for byte.
//
// The model is split into two halves, the way Stim separates fault
// structure from fault probability:
//
//   - Structure (BuildStructure) is the expensive, probability-free half:
//     merged mechanism footprints in flat CSR form, plus, per mechanism,
//     the list of elementary fault branches (global op index + branch
//     divisor) that feed it. It depends only on the circuit's gates and
//     moments, so one Structure serves every noise scale of a sweep. The
//     decoding-graph topology (detector decomposition, edge set, boundary
//     assignment, adjacency) is hoisted here too: Structure.Graph builds a
//     GraphStructure once, and GraphStructure.Weight recomputes only the
//     edge weights per noise scale.
//   - Reweight (and the allocation-reusing ReweightInto) is the cheap
//     half: given per-op error probabilities it produces a Model —
//     per-mechanism probabilities ready for sampling and decoding-graph
//     extraction — without re-deriving footprints.
//
// Build bundles both for one-shot use.
//
// Entry points:
//
//   - Build / BuildStructure + Structure.Reweight: circuit -> Model
//   - Model.NewSampler: scalar sampling, one shot per call
//   - Model.NewBatchSampler: word-packed sampling, 64 shots per pass with
//     geometric skip-sampling over rare mechanisms (BatchShots)
//   - NewWeightedBatchSampler: importance sampling — draw shots from a
//     boosted proposal Model and get per-shot log likelihood-ratio
//     weights against the target Model; with proposal == target the
//     weights are exactly 1 and the shot stream is bit-identical to the
//     plain BatchSampler's (the Monte-Carlo engine's rare-event mode
//     builds the proposal by Reweighting the shared Structure with
//     boosted per-op probabilities)
//   - Model.DecodingGraph / Structure.Graph + GraphStructure.Weight: the
//     weighted matching graph consumed by internal/decoder
//
// In the paper's pipeline this package sits between the extracted noisy
// circuits (internal/extract) and the decoders scored by the Monte-Carlo
// engine: every Fig. 11 / Fig. 12 cell samples one Model and decodes its
// shots against the corresponding Graph.
package dem
