package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"timeprot/internal/attacks"
)

// The lenient decoders below are the original envelope decoders: one
// json.Unmarshal of the whole envelope into its struct, then the
// version, kind, key and checksum checks, then the payload. They
// accept any JSON spelling of a valid envelope, so they are the oracle
// the strict canonical reader must be a subset of.

var errLenient = errors.New("lenient decoder: refused")

func lenientSumOK(payload []byte, sum string) bool {
	s := sha256.Sum256(payload)
	return hex.EncodeToString(s[:]) == sum
}

func lenientDecodeEntry(k Key, data []byte) (attacks.Row, error) {
	var f fileV1
	if err := json.Unmarshal(data, &f); err != nil {
		return attacks.Row{}, err
	}
	if f.V != fileVersion || f.Key != k.String() || !lenientSumOK(f.Cell, f.Sum) {
		return attacks.Row{}, errLenient
	}
	var c cellV1
	if err := json.Unmarshal(f.Cell, &c); err != nil {
		return attacks.Row{}, err
	}
	return decodeRow(c), nil
}

func lenientDecodeProof(k Key, data []byte) (ProofV1, error) {
	var f proofFileV1
	if err := json.Unmarshal(data, &f); err != nil {
		return ProofV1{}, err
	}
	if f.Kind != proofKind || f.V != proofFileVersion || f.Key != k.String() || !lenientSumOK(f.Proof, f.Sum) {
		return ProofV1{}, errLenient
	}
	var p ProofV1
	if err := json.Unmarshal(f.Proof, &p); err != nil {
		return ProofV1{}, err
	}
	return p, nil
}

func lenientDecodeConform(k Key, data []byte) (ConformV1, error) {
	var f conformFileV1
	if err := json.Unmarshal(data, &f); err != nil {
		return ConformV1{}, err
	}
	if f.Kind != conformKind || f.V != conformFileVersion || f.Key != k.String() || !lenientSumOK(f.Conform, f.Sum) {
		return ConformV1{}, errLenient
	}
	var c ConformV1
	if err := json.Unmarshal(f.Conform, &c); err != nil {
		return ConformV1{}, err
	}
	return c, nil
}

func lenientDecodeDiscover(k Key, data []byte) (DiscoverV1, error) {
	var f discoverFileV1
	if err := json.Unmarshal(data, &f); err != nil {
		return DiscoverV1{}, err
	}
	if f.Kind != discoverKind || f.V != discoverFileVersion || f.Key != k.String() || !lenientSumOK(f.Discover, f.Sum) {
		return DiscoverV1{}, errLenient
	}
	var d DiscoverV1
	if err := json.Unmarshal(f.Discover, &d); err != nil {
		return DiscoverV1{}, err
	}
	return d, nil
}

// envelopeKinds describes each entry kind for the envelope tests: how
// to encode a sample, read it through a backend, and decode it with
// the lenient oracle.
var envelopeKinds = []struct {
	name    string
	kind    string // the envelope's kind tag ("" for cells)
	rec     byte
	encode  func(Key) ([]byte, error)
	get     func(CellStore, Key) bool
	lenient func(Key, []byte) error
}{
	{"cell", "", recKindCell,
		func(k Key) ([]byte, error) { return encodeCellEntry(k, sampleRow()) },
		func(s CellStore, k Key) bool { _, ok := s.Get(k); return ok },
		func(k Key, d []byte) error { _, err := lenientDecodeEntry(k, d); return err }},
	{"proof", proofKind, recKindProof,
		func(k Key) ([]byte, error) { return encodeProofEntry(k, sampleProof()) },
		func(s CellStore, k Key) bool { _, ok := s.GetProof(k); return ok },
		func(k Key, d []byte) error { _, err := lenientDecodeProof(k, d); return err }},
	{"conform", conformKind, recKindConform,
		func(k Key) ([]byte, error) { return encodeConformEntry(k, sampleConform()) },
		func(s CellStore, k Key) bool { _, ok := s.GetConform(k); return ok },
		func(k Key, d []byte) error { _, err := lenientDecodeConform(k, d); return err }},
	{"discover", discoverKind, recKindDiscover,
		func(k Key) ([]byte, error) { return encodeDiscoverEntry(k, sampleDiscover()) },
		func(s CellStore, k Key) bool { _, ok := s.GetDiscover(k); return ok },
		func(k Key, d []byte) error { _, err := lenientDecodeDiscover(k, d); return err }},
}

// envField is one top-level member of an envelope, value verbatim.
type envField struct {
	name  string
	value json.RawMessage
}

// envelopeFields splits a canonical envelope into its members in
// order.
func envelopeFields(t testing.TB, data []byte) []envField {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("envelope does not open an object: %v %v", tok, err)
	}
	var fields []envField
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		fields = append(fields, envField{tok.(string), v})
	}
	return fields
}

// renderEnvelope joins members back into an object with sep between
// them.
func renderEnvelope(fields []envField, sep string) []byte {
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = `"` + f.name + `":` + string(f.value)
	}
	return []byte("{" + strings.Join(parts, sep) + "}")
}

// nonCanonical builds the variants of a pristine envelope that must
// read as misses. The first three are valid JSON spellings of a valid
// envelope that the lenient decoder accepts.
func nonCanonical(t testing.TB, pristine []byte, kind string) map[string][]byte {
	t.Helper()
	fields := envelopeFields(t, pristine)
	reordered := append([]envField(nil), fields...)
	reordered[0], reordered[len(reordered)-1] = reordered[len(reordered)-1], reordered[0]
	extra := append([]envField{fields[0], {"note", json.RawMessage(`"x"`)}}, fields[1:]...)
	floatV := append([]envField{{"v", json.RawMessage(string(fields[0].value) + ".0")}}, fields[1:]...)
	var wrongKind []envField
	if kind == "" {
		wrongKind = append([]envField{fields[0], {"kind", json.RawMessage(`"proof"`)}}, fields[1:]...)
	} else {
		other := proofKind
		if kind == proofKind {
			other = conformKind
		}
		wrongKind = append([]envField(nil), fields...)
		wrongKind[1] = envField{"kind", json.RawMessage(`"` + other + `"`)}
	}
	return map[string][]byte{
		"reordered":   renderEnvelope(reordered, ","),
		"whitespace":  renderEnvelope(fields, ", "),
		"extra-field": renderEnvelope(extra, ","),
		"float-v":     renderEnvelope(floatV, ","),
		"wrong-kind":  renderEnvelope(wrongKind, ","),
	}
}

// TestNonCanonicalEnvelopesAreMisses: on both backends and for every
// entry kind, an envelope that is not byte-for-byte the encoder's
// output — even one that is valid JSON for a valid entry — reads as a
// miss, while the pristine entry is served.
func TestNonCanonicalEnvelopesAreMisses(t *testing.T) {
	k := baseSpec().Key()
	backends := []struct {
		name  string
		write func(t *testing.T, kind byte, data []byte) CellStore
	}{
		{"file", func(t *testing.T, _ byte, data []byte) CellStore {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.putRaw(k, data); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"packed", func(t *testing.T, kind byte, data []byte) CellStore {
			p := openPackedT(t, t.TempDir(), PackedOptions{})
			t.Cleanup(func() { p.Close() })
			if err := p.appendTagged(k, kind, "", data); err != nil {
				t.Fatal(err)
			}
			return p
		}},
	}
	for _, ek := range envelopeKinds {
		pristine, err := ek.encode(k)
		if err != nil {
			t.Fatal(err)
		}
		variants := nonCanonical(t, pristine, ek.kind)
		for _, name := range []string{"reordered", "whitespace", "extra-field"} {
			if err := ek.lenient(k, variants[name]); err != nil {
				t.Fatalf("%s %s: the variant is not a valid JSON envelope (%v), so it tests nothing", ek.name, name, err)
			}
		}
		for _, b := range backends {
			if !ek.get(b.write(t, ek.rec, pristine), k) {
				t.Fatalf("%s/%s: pristine entry not served", b.name, ek.name)
			}
			for name, data := range variants {
				if ek.get(b.write(t, ek.rec, data), k) {
					t.Errorf("%s/%s: %s envelope served:\n%s", b.name, ek.name, name, data)
				}
			}
		}
	}
}

// fuzzKey is the key every FuzzEntryDecoders input is decoded under.
var fuzzKey = Key(sha256.Sum256([]byte("FuzzEntryDecoders")))

// fuzzAgrees decodes data with a strict decoder and, on a hit,
// requires the lenient oracle to hit with an equal value.
func fuzzAgrees[T any](t *testing.T, name string, data []byte, strict, lenient func(Key, []byte) (T, error)) bool {
	got, err := strict(fuzzKey, data)
	if err != nil {
		return false
	}
	want, err := lenient(fuzzKey, data)
	if err != nil {
		t.Fatalf("%s: the strict decoder hits an entry the original decoder refuses (%v)", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the strict decoder returns %+v, the original %+v", name, got, want)
	}
	return true
}

// storedForm compares rows in their stored form, where every float is
// its bit pattern (so a NaN row equals itself).
func storedForm(decode func(Key, []byte) (attacks.Row, error)) func(Key, []byte) (cellV1, error) {
	return func(k Key, data []byte) (cellV1, error) {
		row, err := decode(k, data)
		return encodeRow(row), err
	}
}

// FuzzEntryDecoders: no entry decoder panics on any bytes, and every
// hit of the strict canonical reader is a hit of the original lenient
// decoder with the same value — the reader accepts a subset of what
// was accepted before and never returns a different row. The seed
// corpus (testdata/fuzz/FuzzEntryDecoders) holds a real entry of each
// kind, truncations, byte flips and non-canonical spellings.
func FuzzEntryDecoders(f *testing.F) {
	for _, ek := range envelopeKinds {
		data, err := ek.encode(fuzzKey)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hits := map[byte]bool{
			recKindCell:     fuzzAgrees(t, "cell", data, storedForm(decodeEntry), storedForm(lenientDecodeEntry)),
			recKindProof:    fuzzAgrees(t, "proof", data, decodeProofEntry, lenientDecodeProof),
			recKindConform:  fuzzAgrees(t, "conform", data, decodeConformEntry, lenientDecodeConform),
			recKindDiscover: fuzzAgrees(t, "discover", data, decodeDiscoverEntry, lenientDecodeDiscover),
		}
		n := 0
		for _, hit := range hits {
			if hit {
				n++
			}
		}
		kind, ok := validateEntry(fuzzKey, data)
		if n > 1 || ok != (n == 1) || (ok && !hits[kind]) {
			t.Fatalf("validateEntry = (%d, %v), but the decoders hit %v", kind, ok, hits)
		}
	})
}
