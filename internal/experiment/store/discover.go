package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/prove/absmodel"
)

// Discover entries cache the discovery fuzzer's candidate evaluations:
// one concrete measurement of a program pair under one ablation row,
// plus the coverage bitmap the run lit up. Caching them makes fuzzing
// incremental (a re-run with the same seed replays evaluations from the
// store bit-identically, coverage feedback included) and lets sharded
// fuzz campaigns merge their evaluation sets. The keyspace is disjoint
// from cells, proofs, and conformance outcomes by the kind-prefixed
// canonical encoding of DiscoverSpec.

// discoverKind tags discovery entry files.
const discoverKind = "discover"

// discoverFileVersion is the discovery entry format version;
// unrecognised versions are misses.
const discoverFileVersion = 1

// discoverFileV1 is the on-disk envelope of a discovery entry.
type discoverFileV1 struct {
	V        int             `json:"v"`
	Kind     string          `json:"kind"`
	Key      string          `json:"key"`
	Sum      string          `json:"sum"`
	Discover json.RawMessage `json:"discover"`
}

// DiscoverSpec identifies one fuzzer candidate evaluation for keying:
// every input that can influence the measurement or the coverage bits.
type DiscoverSpec struct {
	// Fingerprint is the discovery fingerprint: the joined
	// model-version strings of every concrete simulator layer plus the
	// conformance driver and the discovery harness itself. Any layer
	// bump invalidates every cached evaluation.
	Fingerprint string
	// Ablation is the ablation row's registered name ("no flush", …);
	// Prot the resolved concrete protection configuration it denotes.
	Ablation string
	Prot     core.Config
	// Cfg is the abstract-model sizing configuration the pair was
	// generated against (it bounds the action alphabet and lengths).
	Cfg absmodel.Config
	// HiA, HiB and Noise are the pair's programs in the integer action
	// encoding (user inputs ≥ 0, ActSyscall = -1, ActStartIO = -2).
	HiA, HiB, Noise []int
	// Rounds is the concrete run's transmission rounds; Seed the
	// measurement seed.
	Rounds int
	Seed   uint64
}

// Key derives the DiscoverSpec's content address, using the same
// canonical field-by-field encoding as Spec.Key under a distinguishing
// kind prefix.
func (s DiscoverSpec) Key() Key { return canonicalKey("kind=\"discover\"\n", s) }

// DiscoverV1 is the stored outcome of one candidate evaluation: the
// per-stream capacity estimates (floats as IEEE-754 bit patterns, like
// ConformChannelV1), the leak verdict, and the run's coverage bitmap so
// warm replays feed the fuzzer's energy accounting identically.
type DiscoverV1 struct {
	Channels []ConformChannelV1 `json:"channels"`
	Best     int                `json:"best"`
	Leak     bool               `json:"leak"`
	SimOps   uint64             `json:"sim_ops"`
	// Coverage is the run's coverage bitmap in cover.Map text encoding
	// (hex); CovBits its popcount, stored for cheap reporting.
	Coverage string `json:"coverage"`
	CovBits  int    `json:"cov_bits"`
}

// encodeDiscoverEntry builds the checksummed on-disk envelope for a
// discovery outcome — the byte representation shared by every backend.
func encodeDiscoverEntry(k Key, d DiscoverV1) ([]byte, error) {
	payload, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("store: encoding discovery %s: %v", k, err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(discoverFileV1{
		V:        discoverFileVersion,
		Kind:     discoverKind,
		Key:      k.String(),
		Sum:      hex.EncodeToString(sum[:]),
		Discover: payload,
	})
	if err != nil {
		return nil, fmt.Errorf("store: encoding discovery entry %s: %v", k, err)
	}
	return data, nil
}

// PutDiscover stores a discovery outcome under key k, with the same
// atomic write discipline as Put.
func (s *Store) PutDiscover(k Key, d DiscoverV1) error { return putFile(s, k, d, encodeDiscoverEntry) }

// GetDiscover returns the discovery outcome stored under k. Every
// failure mode — missing file, truncation, bit rot, key or kind
// mismatch, unknown format version — reports a miss.
func (s *Store) GetDiscover(k Key) (DiscoverV1, bool) { return getFile(s, k, decodeDiscoverEntry) }

// decodeDiscoverEntry validates and decodes one discovery entry's bytes.
func decodeDiscoverEntry(k Key, data []byte) (DiscoverV1, error) {
	return decodePayload[DiscoverV1](k, data, discoverFileVersion, discoverKind, "discover")
}
