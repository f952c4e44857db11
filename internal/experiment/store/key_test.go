package store

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// referenceCanonical is the original fmt-based canonical encoding,
// kept as the oracle the planned strconv encoding must equal byte for
// byte: one name="value" line per scalar field, where value is
// fmt.Sprint of the field.
func referenceCanonical(b *strings.Builder, v reflect.Value, prefix string) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		name := prefix + f.Name
		if fv.Kind() == reflect.Struct {
			referenceCanonical(b, fv, name+".")
			continue
		}
		fmt.Fprintf(b, "%s=%q\n", name, fmt.Sprint(fv.Interface()))
	}
}

// keyStringPieces are concatenated into random string fields: quotes,
// backslashes, line breaks, non-ASCII, invalid UTF-8 and text that
// looks like another field's line.
var keyStringPieces = []string{
	"", "a", "T2", `"`, `\`, "\n", "\r\t", "\x00", "é", "日本", " ",
	"\xff", "\xc3", "\xed\xa0\x80", "x=\"y\"\n", "flush+pad (full)", " ",
}

// keyFloats are the float64 values a random float field draws from
// half the time: NaN, both infinities, both zeros, exponent-format
// boundaries and subnormals.
var keyFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1e21, 1e20, 1e-4, 1e-5, 123456, 1234567, 0.1, 0.05, -1.5,
	5e-324, math.SmallestNonzeroFloat64 * 12345, 2.2250738585072014e-308 / 3,
	math.MaxFloat64, -math.MaxFloat64,
}

// fillRandom sets every field reachable from v (an addressable struct)
// to a random value.
func fillRandom(t *testing.T, r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(t, r, v.Field(i))
		}
	case reflect.String:
		var b strings.Builder
		for n := r.Intn(5); n > 0; n-- {
			b.WriteString(keyStringPieces[r.Intn(len(keyStringPieces))])
		}
		v.SetString(b.String())
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := r.Int63() >> r.Intn(64)
		if r.Intn(2) == 0 {
			x = -x - int64(r.Intn(2)) // reaches math.MinInt64
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(r.Uint64() >> r.Intn(65))
	case reflect.Float64:
		if r.Intn(2) == 0 {
			v.SetFloat(keyFloats[r.Intn(len(keyFloats))])
		} else {
			v.SetFloat(r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30)))
		}
	case reflect.Slice:
		switch n := r.Intn(6); n {
		case 0:
			v.Set(reflect.Zero(v.Type()))
		default:
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			for i := 0; i < v.Len(); i++ {
				fillRandom(t, r, v.Index(i))
			}
		}
	default:
		t.Fatalf("unhandled field kind %s — extend fillRandom", v.Kind())
	}
}

// TestCanonicalMatchesReference: for thousands of random specs of every
// kind, the key is the SHA-256 of exactly the bytes the fmt reference
// encoding writes under the kind's prefix, so no stored key moves.
func TestCanonicalMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		prefix string
		typ    reflect.Type
		key    func(v reflect.Value) Key
	}{
		{"", reflect.TypeOf(Spec{}), func(v reflect.Value) Key { return v.Interface().(Spec).Key() }},
		{"kind=\"proof\"\n", reflect.TypeOf(ProofSpec{}), func(v reflect.Value) Key { return v.Interface().(ProofSpec).Key() }},
		{"kind=\"conform\"\n", reflect.TypeOf(ConformSpec{}), func(v reflect.Value) Key { return v.Interface().(ConformSpec).Key() }},
		{"kind=\"discover\"\n", reflect.TypeOf(DiscoverSpec{}), func(v reflect.Value) Key { return v.Interface().(DiscoverSpec).Key() }},
	} {
		for i := 0; i < 2000; i++ {
			v := reflect.New(c.typ).Elem()
			if i > 0 { // the zero spec is checked too
				fillRandom(t, r, v)
			}
			var ref strings.Builder
			ref.WriteString(c.prefix)
			referenceCanonical(&ref, v, "")
			if got, want := c.key(v), Key(sha256.Sum256([]byte(ref.String()))); got != want {
				t.Fatalf("%s #%d: key differs from the reference encoding\nreference:\n%s\ngot:\n%s",
					c.typ.Name(), i, ref.String(), c.prefix+string(appendCanonical(nil, v)))
			}
		}
	}
}
