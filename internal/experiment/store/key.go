// Package store is the sweep engine's content-addressed result store:
// a directory of cell results keyed by a stable hash of everything a
// cell's measurement depends on — the engine fingerprint (the
// registered model version of each simulator layer), the scenario's
// identity and version tag, the mitigation variant and its protection
// configuration, and the cell's (rounds, seed) point.
//
// The store is what makes huge experiment matrices incremental and
// embarrassingly parallel. Because every cell is a pure function of its
// key inputs (the engine's determinism contract), a stored result can
// be served instead of recomputed, shards of a matrix can execute on
// independent machines and their stores merge associatively (same key
// ⇒ same bytes), and any semantic change to a simulator layer changes
// the fingerprint, which changes every key, which turns the whole store
// into misses — the automated proof-maintenance discipline of §5,
// applied to the empirical side of the programme.
//
// Robustness contract: a corrupt, truncated, or foreign store file is
// a miss, never a served result. Writes are atomic (temp file + rename
// within the shard directory), so concurrent writers — including
// sharded sweeps pointed at one directory — cannot tear each other's
// cells.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"

	"timeprot/internal/core"
	"timeprot/internal/prove/absmodel"
)

// Spec identifies one cell execution for keying: every input that can
// influence the cell's measured row. Two Specs that differ in any field
// produce different keys; identical Specs produce byte-identical keys
// in any process.
type Spec struct {
	// Fingerprint is the engine fingerprint: the joined model-version
	// strings of the simulator layers (hw, kernel, channel estimator,
	// attack harness). Any layer bump invalidates every cached cell.
	Fingerprint string
	// ScenarioID and ScenarioVersion identify the attack scenario and
	// its registered model-version tag.
	ScenarioID      string
	ScenarioVersion int
	// Variant is the mitigation variant's exact label — the
	// distinguishing knob for variants whose difference is not a
	// core.Config field (e.g. T11's pad budget).
	Variant string
	// Config is the variant's protection configuration. It is encoded
	// field by field, so flipping any single mechanism changes the key.
	Config core.Config
	// Rounds is the cell's effective rounds (after the scenario's
	// rounds policy).
	Rounds int
	// ReqRounds, CIHalfWidth, and MaxRounds key the adaptive sampling
	// policy: an adaptive cell's row is a function of its whole rounds
	// ladder, so cells measured under different policies — or under the
	// fixed policy, where all three are zero — must never alias.
	ReqRounds   int
	CIHalfWidth float64
	MaxRounds   int
	// BaseSeed, Trial, and Seed locate the cell's seed point. Seed is
	// derived from (BaseSeed, Trial); all three are keyed so the stored
	// cell round-trips into identical report coordinates.
	BaseSeed uint64
	Trial    int
	Seed     uint64
}

// ProofSpec identifies one proof-matrix cell for keying: every input
// that can influence the prover's verdict and witness. It plays the
// role Spec plays for attack cells; the two key spaces cannot collide
// because each canonical encoding is prefixed with its kind.
type ProofSpec struct {
	// Fingerprint is the prover fingerprint: the joined model-version
	// strings of the proving layers (absmodel, nonintf, invariant).
	// Any layer bump invalidates every cached proof cell.
	Fingerprint string
	// Ablation is the ablation row's registered name (e.g. "full
	// protection", "no flush").
	Ablation string
	// Model is the abstract-model platform variant's registered name
	// (e.g. "base", "wide-alphabet").
	Model string
	// Cfg is the resolved abstract-model configuration the cell proves.
	// It is encoded field by field, so flipping any mechanism or sizing
	// parameter changes the key.
	Cfg absmodel.Config
	// Families is the number of sampled time-function families.
	Families int
	// Random is the number of extra random Hi programs beyond the
	// exhaustive slice set.
	Random int
	// Seed is the base seed of the family sampling.
	Seed uint64
}

// Key derives the ProofSpec's content address, using the same canonical
// field-by-field encoding as Spec.Key under a distinguishing kind
// prefix.
func (s ProofSpec) Key() Key { return canonicalKey("kind=\"proof\"\n", s) }

// Key is a cell's content address: SHA-256 over the Spec's canonical
// encoding.
type Key [sha256.Size]byte

// String renders the key as lowercase hex — also the store filename.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("store: bad key %q: %v", s, err)
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("store: bad key %q: %d bytes, want %d", s, len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}

// Key derives the Spec's content address. The canonical encoding walks
// the Spec — and the embedded core.Config — field by field in declared
// order via reflection: no Go map is ever ranged, so the encoding is
// byte-identical across processes, and adding a field to either struct
// automatically changes every encoding (a schema change invalidates the
// store rather than aliasing old entries).
func (s Spec) Key() Key { return canonicalKey("", s) }

// scratchBufs recycles the byte buffers of the warm read path — the
// canonical encoding of key derivation, which runs once per cell of
// every matrix, and packed-store payload reads.
var scratchBufs = sync.Pool{New: func() any { return new([]byte) }}

// canonicalKey hashes kindLine followed by the canonical encoding of
// the spec struct v.
func canonicalKey(kindLine string, v any) Key {
	bp := scratchBufs.Get().(*[]byte)
	b := appendCanonical(append((*bp)[:0], kindLine...), reflect.ValueOf(v))
	k := Key(sha256.Sum256(b))
	*bp = b
	scratchBufs.Put(bp)
	return k
}

// canonField is one scalar field of a spec type's canonical encoding:
// where it sits (an index path through embedded structs), the
// "Outer.Name=" head of its line, and how its value is rendered.
type canonField struct {
	index []int
	head  string
	// kind selects a strconv rendering; reflect.Invalid renders the
	// value with fmt.Sprint (slices, Stringers, and any other kind).
	kind reflect.Kind
}

// canonPlans caches each spec type's field plan. The plan is derived
// from the type by reflection, so adding a field to a spec (or to a
// config it embeds) still changes every encoding.
var canonPlans sync.Map // reflect.Type → []canonField

var (
	stringerType  = reflect.TypeOf((*fmt.Stringer)(nil)).Elem()
	errorType     = reflect.TypeOf((*error)(nil)).Elem()
	formatterType = reflect.TypeOf((*fmt.Formatter)(nil)).Elem()
)

// canonPlan returns the spec type's field plan, building it on first
// use.
func canonPlan(t reflect.Type) []canonField {
	if p, ok := canonPlans.Load(t); ok {
		return p.([]canonField)
	}
	p, _ := canonPlans.LoadOrStore(t, buildCanonPlan(t, nil, ""))
	return p.([]canonField)
}

// buildCanonPlan lists t's scalar fields in declared order, descending
// into struct fields under a "Name." prefix.
func buildCanonPlan(t reflect.Type, index []int, prefix string) []canonField {
	var plan []canonField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(index[:len(index):len(index)], i)
		name := prefix + f.Name
		if f.Type.Kind() == reflect.Struct {
			plan = append(plan, buildCanonPlan(f.Type, idx, name+".")...)
			continue
		}
		kind := f.Type.Kind()
		switch {
		case f.Type.Implements(stringerType), f.Type.Implements(errorType), f.Type.Implements(formatterType):
			kind = reflect.Invalid // fmt.Sprint would call the method
		case kind == reflect.String, kind == reflect.Bool, kind == reflect.Float64:
		case kind >= reflect.Int && kind <= reflect.Int64:
			kind = reflect.Int
		case kind >= reflect.Uint && kind <= reflect.Uint64:
			kind = reflect.Uint
		default:
			kind = reflect.Invalid
		}
		plan = append(plan, canonField{index: idx, head: name + "=", kind: kind})
	}
	return plan
}

// appendCanonical appends one name="value" line per scalar field of
// the struct v, quoting values so no field content can forge another
// field's line. value is exactly what fmt.Sprint prints for the field,
// and the line exactly what fmt's "%s=%q\n" makes of it; the strconv
// renderings below produce those bytes without fmt's allocations.
func appendCanonical(b []byte, v reflect.Value) []byte {
	for _, f := range canonPlan(v.Type()) {
		fv := v.FieldByIndex(f.index)
		b = append(b, f.head...)
		switch f.kind {
		case reflect.String:
			b = strconv.AppendQuote(b, fv.String())
		case reflect.Bool:
			b = strconv.AppendBool(append(b, '"'), fv.Bool())
			b = append(b, '"')
		case reflect.Int:
			b = strconv.AppendInt(append(b, '"'), fv.Int(), 10)
			b = append(b, '"')
		case reflect.Uint:
			b = strconv.AppendUint(append(b, '"'), fv.Uint(), 10)
			b = append(b, '"')
		case reflect.Float64:
			if x := fv.Float(); !math.IsInf(x, 0) && !math.IsNaN(x) {
				b = strconv.AppendFloat(append(b, '"'), x, 'g', -1, 64)
				b = append(b, '"')
				break
			}
			b = strconv.AppendQuote(b, fmt.Sprint(fv.Interface()))
		default:
			b = strconv.AppendQuote(b, fmt.Sprint(fv.Interface()))
		}
		b = append(b, '\n')
	}
	return b
}
