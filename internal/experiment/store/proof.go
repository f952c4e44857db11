package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Proof entries share the store's directory layout, atomicity, and
// corrupt-entry-as-miss contract with cell entries, but carry a proof
// verdict instead of a measured row. The two entry kinds are
// distinguished on disk by an explicit kind tag (cell entries predate
// the tag and have none), and their key spaces are disjoint by
// construction (ProofSpec's canonical encoding is kind-prefixed), so a
// proof entry can never be served as a cell or vice versa.

// proofKind tags proof entry files.
const proofKind = "proof"

// proofFileVersion is the proof entry format version; unrecognised
// versions are misses.
const proofFileVersion = 1

// proofFileV1 is the on-disk envelope of a proof entry. Proof stays raw
// so Sum is computed over the exact stored bytes.
type proofFileV1 struct {
	V     int             `json:"v"`
	Kind  string          `json:"kind"`
	Key   string          `json:"key"`
	Sum   string          `json:"sum"`
	Proof json.RawMessage `json:"proof"`
}

// ProofCaseV1 is one stored unwinding-lemma verdict.
type ProofCaseV1 struct {
	Name    string `json:"name"`
	Holds   bool   `json:"holds"`
	Checked int    `json:"checked"`
	Witness string `json:"witness,omitempty"`
}

// ProofObsV1 is one stored Lo observation of a witness trace.
type ProofObsV1 struct {
	Clock uint64 `json:"clock"`
	IRQ   bool   `json:"irq,omitempty"`
}

// ProofWitnessV1 is a stored minimal counterexample witness. Actions
// are stored as their integer encoding (user inputs >= 0, syscall -1,
// start-IO -2).
type ProofWitnessV1 struct {
	FamilySeed uint64       `json:"family_seed"`
	HiA        []int        `json:"hi_a"`
	HiB        []int        `json:"hi_b"`
	Index      int          `json:"index"`
	ObsA       []ProofObsV1 `json:"obs_a"`
	ObsB       []ProofObsV1 `json:"obs_b"`
	ShrinkRuns int          `json:"shrink_runs"`
}

// ProofV1 is the stored proof-cell verdict: the complete prover output
// for one (ablation, model, families, seed) point — lemma cases, the
// bounded-NI verdict, and the minimal witness when refuted. All fields
// are integers, booleans, and strings, so the round trip is exact.
type ProofV1 struct {
	Cases           []ProofCaseV1   `json:"cases"`
	BoundedProved   bool            `json:"bounded_proved"`
	BoundedRuns     int             `json:"bounded_runs"`
	BoundedFamilies int             `json:"bounded_families"`
	PadOverruns     int             `json:"pad_overruns"`
	Witness         *ProofWitnessV1 `json:"witness,omitempty"`
}

// encodeProofEntry builds the checksummed on-disk envelope for a proof
// verdict — the byte representation shared by every backend.
func encodeProofEntry(k Key, p ProofV1) ([]byte, error) {
	payload, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("store: encoding proof %s: %v", k, err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(proofFileV1{
		V:     proofFileVersion,
		Kind:  proofKind,
		Key:   k.String(),
		Sum:   hex.EncodeToString(sum[:]),
		Proof: payload,
	})
	if err != nil {
		return nil, fmt.Errorf("store: encoding proof entry %s: %v", k, err)
	}
	return data, nil
}

// PutProof stores a proof verdict under key k, with the same atomic
// write discipline as Put.
func (s *Store) PutProof(k Key, p ProofV1) error { return putFile(s, k, p, encodeProofEntry) }

// GetProof returns the proof verdict stored under k. Every failure
// mode — missing file, truncation, bit rot, key or kind mismatch,
// unknown format version — reports a miss.
func (s *Store) GetProof(k Key) (ProofV1, bool) { return getFile(s, k, decodeProofEntry) }

// decodeProofEntry validates and decodes one proof entry's bytes.
func decodeProofEntry(k Key, data []byte) (ProofV1, error) {
	return decodePayload[ProofV1](k, data, proofFileVersion, proofKind, "proof")
}
