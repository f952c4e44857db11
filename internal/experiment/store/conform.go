package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/prove/absmodel"
)

// Conformance entries share the store's directory layout, atomicity,
// and corrupt-entry-as-miss contract with cell and proof entries, but
// carry a cross-check verdict: the abstract prover's acceptance, the
// concrete simulator's per-stream capacity estimates, and the
// classification. Their key space is disjoint from both by the
// kind-prefixed canonical encoding of ConformSpec.

// conformKind tags conformance entry files.
const conformKind = "conform"

// conformFileVersion is the conformance entry format version;
// unrecognised versions are misses.
const conformFileVersion = 1

// conformFileV1 is the on-disk envelope of a conformance entry.
type conformFileV1 struct {
	V       int             `json:"v"`
	Kind    string          `json:"kind"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"`
	Conform json.RawMessage `json:"conform"`
}

// ConformSpec identifies one conformance cell for keying: every input
// that can influence the dual-driver's verdict. It plays the role Spec
// plays for attack cells and ProofSpec for proof cells.
type ConformSpec struct {
	// Fingerprint is the conformance fingerprint: the joined
	// model-version strings of BOTH sides (abstract prover layers and
	// concrete simulator layers) plus the harness's own version. Any
	// layer bump invalidates every cached conformance cell.
	Fingerprint string
	// Model is the abstract-model platform variant's registered name;
	// Ablation the ablation row's registered name.
	Model    string
	Ablation string
	// Cfg is the resolved (ablated) abstract-model configuration; Prot
	// the matching concrete protection configuration. Both are encoded
	// field by field.
	Cfg  absmodel.Config
	Prot core.Config
	// Pair is the pair's index within its seed block; PairSeed the
	// derived generation seed actually used.
	Pair     int
	PairSeed uint64
	// Rounds is the concrete run's transmission rounds; Families the
	// abstract side's sampled function families; Seed the cell's base
	// seed (family sampling and concrete measurement derivation).
	Rounds   int
	Families int
	Seed     uint64
}

// Key derives the ConformSpec's content address, using the same
// canonical field-by-field encoding as Spec.Key under a distinguishing
// kind prefix.
func (s ConformSpec) Key() Key { return canonicalKey("kind=\"conform\"\n", s) }

// ConformChannelV1 is one stored spy observation stream estimate, with
// every float carried as its IEEE-754 bit pattern for an exact round
// trip.
type ConformChannelV1 struct {
	Name         string `json:"name"`
	CapacityBits uint64 `json:"capacity_bits"`
	MIUniform    uint64 `json:"mi_uniform"`
	FloorBits    uint64 `json:"floor_bits"`
	CILow        uint64 `json:"ci_lo"`
	CIHigh       uint64 `json:"ci_hi"`
	N            int    `json:"n"`
	Bins         int    `json:"bins"`
}

// ConformWitnessV1 is a stored minimized soundness-violation witness.
// Actions use the integer encoding of ProofWitnessV1.
type ConformWitnessV1 struct {
	HiA          []int  `json:"hi_a"`
	HiB          []int  `json:"hi_b"`
	ShrinkEvals  int    `json:"shrink_evals"`
	Channel      string `json:"channel"`
	CapacityBits uint64 `json:"capacity_bits"`
	FloorBits    uint64 `json:"floor_bits"`
	CILow        uint64 `json:"ci_lo"`
	CIHigh       uint64 `json:"ci_hi"`
}

// ConformV1 is the stored conformance-cell outcome: both sides'
// results and the cross-check classification for one generated pair
// under one (model, ablation, seed) point.
type ConformV1 struct {
	Verdict         string             `json:"verdict"`
	HiA             []int              `json:"hi_a"`
	HiB             []int              `json:"hi_b"`
	AbsAccepts      bool               `json:"abs_accepts"`
	AbsRuns         int                `json:"abs_runs"`
	AbsOverruns     int                `json:"abs_overruns"`
	AbsDivergeFam   uint64             `json:"abs_diverge_fam"`
	AbsDivergeIndex int                `json:"abs_diverge_index"`
	Channels        []ConformChannelV1 `json:"channels"`
	Best            int                `json:"best"`
	Leak            bool               `json:"leak"`
	SimOps          uint64             `json:"sim_ops"`
	Witness         *ConformWitnessV1  `json:"witness,omitempty"`
}

// encodeConformEntry builds the checksummed on-disk envelope for a
// conformance outcome — the byte representation shared by every
// backend.
func encodeConformEntry(k Key, c ConformV1) ([]byte, error) {
	payload, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("store: encoding conformance %s: %v", k, err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(conformFileV1{
		V:       conformFileVersion,
		Kind:    conformKind,
		Key:     k.String(),
		Sum:     hex.EncodeToString(sum[:]),
		Conform: payload,
	})
	if err != nil {
		return nil, fmt.Errorf("store: encoding conformance entry %s: %v", k, err)
	}
	return data, nil
}

// PutConform stores a conformance outcome under key k, with the same
// atomic write discipline as Put.
func (s *Store) PutConform(k Key, c ConformV1) error { return putFile(s, k, c, encodeConformEntry) }

// GetConform returns the conformance outcome stored under k. Every
// failure mode — missing file, truncation, bit rot, key or kind
// mismatch, unknown format version — reports a miss.
func (s *Store) GetConform(k Key) (ConformV1, bool) { return getFile(s, k, decodeConformEntry) }

// decodeConformEntry validates and decodes one conformance entry's bytes.
func decodeConformEntry(k Key, data []byte) (ConformV1, error) {
	return decodePayload[ConformV1](k, data, conformFileVersion, conformKind, "conform")
}
