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

// decodeProofEntry validates and decodes one proof entry file's bytes.
func decodeProofEntry(k Key, data []byte) (ProofV1, error) {
	var f proofFileV1
	if err := json.Unmarshal(data, &f); err != nil {
		return ProofV1{}, fmt.Errorf("store: proof entry %s: %v", k, err)
	}
	if f.Kind != proofKind {
		return ProofV1{}, fmt.Errorf("store: entry %s is not a proof entry", k)
	}
	if f.V != proofFileVersion {
		return ProofV1{}, fmt.Errorf("store: proof entry %s: format version %d, want %d", k, f.V, proofFileVersion)
	}
	if f.Key != k.String() {
		return ProofV1{}, fmt.Errorf("store: proof entry %s claims key %s", k, f.Key)
	}
	sum := sha256.Sum256(f.Proof)
	if hex.EncodeToString(sum[:]) != f.Sum {
		return ProofV1{}, fmt.Errorf("store: proof entry %s: checksum mismatch", k)
	}
	var p ProofV1
	if err := json.Unmarshal(f.Proof, &p); err != nil {
		return ProofV1{}, fmt.Errorf("store: proof entry %s payload: %v", k, err)
	}
	return p, nil
}

// entryKind sniffs an envelope's kind tag. Cell entries predate the
// tag and have none, so they report the empty kind; undecodable bytes
// report an error.
func entryKind(data []byte) (string, error) {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", err
	}
	return probe.Kind, nil
}

// validateEntry decodes an entry file of any kind, for the merge path:
// cell entries (no kind tag), proof, conformance, and discovery entries
// are all valid merge sources; anything else is corrupt.
func validateEntry(k Key, data []byte) error {
	kind, err := entryKind(data)
	if err != nil {
		return fmt.Errorf("store: entry %s: %v", k, err)
	}
	switch kind {
	case proofKind:
		_, err := decodeProofEntry(k, data)
		return err
	case conformKind:
		_, err := decodeConformEntry(k, data)
		return err
	case discoverKind:
		_, err := decodeDiscoverEntry(k, data)
		return err
	}
	_, err = decodeEntry(k, data)
	return err
}
