package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// payloadKinds adds what the payload tests need to envelopeKinds: the
// envelope's version and payload field name, a signed int payload
// field to respell, and an omitempty field to write with its zero
// value (DiscoverV1 has none).
var payloadKinds = []struct {
	version   int
	field     string
	intField  string
	omitField string
	omitValue string
}{
	{fileVersion, "cell", "n", "extra", `[]`},
	{proofFileVersion, "proof", "bounded_runs", "witness", `null`},
	{conformFileVersion, "conform", "abs_runs", "witness", `null`},
	{discoverFileVersion, "discover", "best", "", ""},
}

// wrapPayload builds the canonical envelope around payload, with the
// checksum computed over payload, so whatever is wrong with payload
// reaches the payload decoder.
func wrapPayload(k Key, version int, kind, field string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	head := fmt.Sprintf(`{"v":%d`, version)
	if kind != "" {
		head += `,"kind":"` + kind + `"`
	}
	return []byte(fmt.Sprintf(`%s,"key":"%s","sum":"%s","%s":%s}`, head, k, hex.EncodeToString(sum[:]), field, payload))
}

// setField returns fields with name's value replaced, or, when name is
// absent, with name appended.
func setField(fields []envField, name, value string) []envField {
	out := append([]envField(nil), fields...)
	for i := range out {
		if out[i].name == name {
			out[i].value = json.RawMessage(value)
			return out
		}
	}
	return append(out, envField{name, json.RawMessage(value)})
}

// fieldValue returns name's value in fields.
func fieldValue(t testing.TB, fields []envField, name string) string {
	for _, f := range fields {
		if f.name == name {
			return string(f.value)
		}
	}
	t.Fatalf("payload has no %q field", name)
	return ""
}

// inFirstString inserts text at the start of the payload's first string
// value.
func inFirstString(payload []byte, text string) []byte {
	at := bytes.Index(payload, []byte(`":"`)) + len(`":"`)
	return slices.Concat(payload[:at], []byte(text), payload[at:])
}

// payloadVariant is one non-canonical spelling of a payload.
type payloadVariant struct {
	name    string
	payload []byte
	// lenient reports whether json.Unmarshal accepts the spelling:
	// then it is a valid encoding of a value, refused only for not
	// being json.Marshal's. "01", trailing bytes and a raw control
	// character are not JSON, and json.Unmarshal refuses "1.0" and an
	// overflow for an int field.
	lenient bool
}

// nonCanonicalPayloads builds the non-canonical spellings of a
// pristine entry's payload.
func nonCanonicalPayloads(t testing.TB, pristine []byte, kindIdx int) []payloadVariant {
	t.Helper()
	pk := payloadKinds[kindIdx]
	outer := envelopeFields(t, pristine)
	payload := []byte(fieldValue(t, outer, pk.field))
	fields := envelopeFields(t, payload)
	n := fieldValue(t, fields, pk.intField)
	reordered := append([]envField(nil), fields...)
	reordered[0], reordered[len(reordered)-1] = reordered[len(reordered)-1], reordered[0]
	unknown := append([]envField{fields[0], {"note", json.RawMessage(`"x"`)}}, fields[1:]...)
	vs := []payloadVariant{
		{"whitespace", renderEnvelope(fields, ", "), true},
		{"reordered", renderEnvelope(reordered, ","), true},
		{"unknown-field", renderEnvelope(unknown, ","), true},
		{"float-int", renderEnvelope(setField(fields, pk.intField, n+".0"), ","), false},
		{"leading-zero", renderEnvelope(setField(fields, pk.intField, "0"+n), ","), false},
		{"negative-zero", renderEnvelope(setField(fields, pk.intField, "-0"), ","), true},
		{"int-overflow", renderEnvelope(setField(fields, pk.intField, "9223372036854775808"), ","), false},
		{"trailing-bytes", append(append([]byte(nil), payload...), "{}"...), false},
		{"raw-html", inFirstString(payload, "<"), true},
		{"raw-control", inFirstString(payload, "\x01"), false},
		{"uppercase-escape", inFirstString(payload, `\u001F`), true},
		{"escaped-solidus", inFirstString(payload, `\/`), true},
	}
	if pk.omitField != "" {
		vs = append(vs, payloadVariant{"omitempty-zero", renderEnvelope(setField(fields, pk.omitField, pk.omitValue), ","), true})
	}
	return vs
}

// TestNonCanonicalPayloadsAreMisses: on both backends and for every
// entry kind, an entry whose envelope is canonical and whose checksum
// matches, but whose payload is not json.Marshal's spelling of its
// value, reads as a miss — the payload decoder holds the payload to the
// same fail-closed rule the envelope reader holds the envelope to.
func TestNonCanonicalPayloadsAreMisses(t *testing.T) {
	k := baseSpec().Key()
	for i, ek := range envelopeKinds {
		pk := payloadKinds[i]
		pristine, err := ek.encode(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range nonCanonicalPayloads(t, pristine, i) {
			data := wrapPayload(k, pk.version, ek.kind, pk.field, v.payload)
			if _, err := openEnvelope(k, data, pk.version, ek.kind, pk.field); err != nil {
				t.Fatalf("%s %s: the envelope reader refuses the entry (%v), so the payload decoder is not tested", ek.name, v.name, err)
			}
			if v.lenient {
				if err := ek.lenient(k, data); err != nil {
					t.Fatalf("%s %s: json.Unmarshal refuses the payload (%v), so it tests nothing", ek.name, v.name, err)
				}
			}
			fs, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.putRaw(k, data); err != nil {
				t.Fatal(err)
			}
			p := openPackedT(t, t.TempDir(), PackedOptions{})
			if err := p.appendTagged(k, ek.rec, "", data); err != nil {
				t.Fatal(err)
			}
			for _, b := range []struct {
				name string
				s    CellStore
			}{{"file", fs}, {"packed", p}} {
				if ek.get(b.s, k) {
					t.Errorf("%s/%s: %s payload served:\n%s", b.name, ek.name, v.name, v.payload)
				}
			}
			p.Close()
		}
	}
}

// TestCanonicalPayloadsDecodeLikeUnmarshal pins the corners of the
// payload rule with hand-written values: nil and empty slices, nil and
// set pointers, extreme integers and every string escape json.Marshal
// writes all decode to json.Unmarshal's value.
func TestCanonicalPayloadsDecodeLikeUnmarshal(t *testing.T) {
	k := baseSpec().Key()
	checkEntryRoundTrip(t, "proof", k, ProofV1{}, encodeProofEntry, decodeProofEntry)
	checkEntryRoundTrip(t, "proof", k, ProofV1{Cases: []ProofCaseV1{}, Witness: &ProofWitnessV1{HiA: []int{}, ObsA: []ProofObsV1{}}},
		encodeProofEntry, decodeProofEntry)
	checkEntryRoundTrip(t, "conform", k, ConformV1{HiA: []int{math.MinInt64, -1, 0, math.MaxInt64}, AbsDivergeFam: math.MaxUint64,
		Witness: &ConformWitnessV1{Channel: "<a&b>\"q\"\\\x00\x1f\x7f\b\f\n\r\t\u2028\u2029\ufffd\xff"}},
		encodeConformEntry, decodeConformEntry)
	checkEntryRoundTrip(t, "discover", k, DiscoverV1{Channels: []ConformChannelV1{{Name: "\u00e9 \u20ac"}, {}}},
		encodeDiscoverEntry, decodeDiscoverEntry)
}

// payloadGen draws random payload values from a seed. Strings mix
// bytes json.Marshal escapes (HTML, quotes, backslash, control
// characters, U+2028/U+2029, invalid UTF-8) with plain text; slices
// are nil, empty or filled; pointers nil or set; integers include the
// extremes.
type payloadGen struct{ r *rand.Rand }

var genPieces = []string{"a", "Case1-user", "<", ">", "&", `"`, `\`, "\x00", "\x01", "\x1f", "\x7f", "\b", "\f",
	"\n", "\r", "\t", "\u2028", "\u2029", "\ufffd", "\xff", "\xc3", "\u00e9", "\u20ac", "\U0001f600", " ", "u00"}

func (g payloadGen) str() string {
	var b []byte
	for n := g.r.Intn(5); n > 0; n-- {
		b = append(b, genPieces[g.r.Intn(len(genPieces))]...)
	}
	return string(b)
}

func (g payloadGen) int() int {
	switch g.r.Intn(6) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return 0
	case 3:
		return -g.r.Intn(1000)
	}
	return g.r.Intn(1 << 20)
}

func (g payloadGen) uint() uint64 {
	switch g.r.Intn(4) {
	case 0:
		return math.MaxUint64
	case 1:
		return 0
	}
	return g.r.Uint64()
}

func (g payloadGen) bool() bool { return g.r.Intn(2) == 0 }

// sliceLen returns -1 for a nil slice, else a length (0 = empty).
func (g payloadGen) sliceLen() int { return g.r.Intn(5) - 1 }

func (g payloadGen) ints() []int {
	n := g.sliceLen()
	if n < 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = g.int()
	}
	return out
}

func genSlice[T any](g payloadGen, elem func() T) []T {
	n := g.sliceLen()
	if n < 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

func (g payloadGen) channel() ConformChannelV1 {
	return ConformChannelV1{g.str(), g.uint(), g.uint(), g.uint(), g.uint(), g.uint(), g.int(), g.int()}
}

func (g payloadGen) cell() cellV1 {
	return cellV1{g.str(), g.uint(), g.uint(), g.uint(), g.uint(), g.uint(), g.int(), g.int(), g.uint(), g.int(), g.int(), g.uint(),
		genSlice(g, func() kvV1 { return kvV1{g.str(), g.uint()} })}
}

func (g payloadGen) proof() ProofV1 {
	p := ProofV1{
		Cases:         genSlice(g, func() ProofCaseV1 { return ProofCaseV1{g.str(), g.bool(), g.int(), g.str()} }),
		BoundedProved: g.bool(), BoundedRuns: g.int(), BoundedFamilies: g.int(), PadOverruns: g.int(),
	}
	if g.bool() {
		obs := func() ProofObsV1 { return ProofObsV1{g.uint(), g.bool()} }
		p.Witness = &ProofWitnessV1{g.uint(), g.ints(), g.ints(), g.int(), genSlice(g, obs), genSlice(g, obs), g.int()}
	}
	return p
}

func (g payloadGen) conform() ConformV1 {
	c := ConformV1{g.str(), g.ints(), g.ints(), g.bool(), g.int(), g.int(), g.uint(), g.int(),
		genSlice(g, g.channel), g.int(), g.bool(), g.uint(), nil}
	if g.bool() {
		c.Witness = &ConformWitnessV1{g.ints(), g.ints(), g.int(), g.str(), g.uint(), g.uint(), g.uint(), g.uint()}
	}
	return c
}

func (g payloadGen) discover() DiscoverV1 {
	return DiscoverV1{genSlice(g, g.channel), g.int(), g.bool(), g.uint(), g.str(), g.int()}
}

// FuzzPayloadRoundTrip: every payload the encoders write decodes, and
// to exactly json.Unmarshal's value — so every stored entry stays a hit
// and no cell is silently re-executed. Each input seeds one random value
// of every kind, which goes through the real entry encoder and then the
// store's entry decoder.
func FuzzPayloadRoundTrip(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := payloadGen{rand.New(rand.NewSource(seed))}
		k := Key(sha256.Sum256([]byte(strconv.FormatInt(seed, 10))))
		c := g.cell()
		checkEntryRoundTrip(t, "cell", k, c,
			func(k Key, c cellV1) ([]byte, error) { return encodeCellEntry(k, decodeRow(c)) },
			func(k Key, d []byte) (cellV1, error) { return decodePayload[cellV1](k, d, fileVersion, "", "cell") })
		checkEntryRoundTrip(t, "proof", k, g.proof(), encodeProofEntry, decodeProofEntry)
		checkEntryRoundTrip(t, "conform", k, g.conform(), encodeConformEntry, decodeConformEntry)
		checkEntryRoundTrip(t, "discover", k, g.discover(), encodeDiscoverEntry, decodeDiscoverEntry)
	})
}

// checkEntryRoundTrip encodes v as k's entry and requires the strict
// decoder to return what json.Unmarshal makes of the stored payload.
func checkEntryRoundTrip[T any](t *testing.T, name string, k Key, v T, encode func(Key, T) ([]byte, error), decode func(Key, []byte) (T, error)) {
	t.Helper()
	data, err := encode(k, v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(k, data)
	if err != nil {
		t.Fatalf("%s: the encoder's own entry reads as a miss (%v):\n%s", name, err, data)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	var want T
	if err := json.Unmarshal(env[name], &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %#v, json.Unmarshal %#v", name, got, want)
	}
}
