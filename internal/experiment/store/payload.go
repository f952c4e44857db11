package store

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"unicode/utf8"
)

// The payload decoder reads an entry's payload object — the bytes
// json.Marshal wrote for a cellV1, ProofV1, ConformV1 or DiscoverV1 —
// and accepts exactly the spellings json.Marshal produces, the same
// fail-closed rule openEnvelope applies to the envelope around it:
//
//   - fields in declaration order, each key exactly its json tag name,
//     no unknown or repeated fields, no whitespace, no trailing bytes;
//   - integers as strconv writes them: no leading zero, no "-0", no
//     fraction or exponent, no overflow of the field's type;
//   - an omitempty field absent exactly when its value is empty;
//   - strings with only the escapes json.Marshal writes (HTML-safe,
//     U+2028/U+2029 and invalid UTF-8 escaped, lowercase hex).
//
// A decoded value equals what json.Unmarshal makes of the same bytes,
// nil versus empty slices included (null is nil, [] is empty).

// payloadKind is how one payload value is spelled.
type payloadKind uint8

const (
	payloadString payloadKind = iota
	payloadBool
	payloadInt
	payloadUint
	payloadSlice  // a JSON array (or null) of elem
	payloadPtr    // a JSON object (or null) of elem
	payloadStruct // a JSON object of fields
)

// payloadType is the decoding plan of one Go type.
type payloadType struct {
	kind   payloadKind
	elem   *payloadType   // slice and pointer element
	fields []payloadField // struct fields, in declaration order
}

// payloadField is one encoded struct field.
type payloadField struct {
	key       string // `"name":`
	index     int
	omitEmpty bool
	typ       *payloadType
}

// payloadPlans caches each payload type's plan, built by reflection on
// first use.
var payloadPlans sync.Map // reflect.Type → *payloadType

func payloadPlan(t reflect.Type) *payloadType {
	if p, ok := payloadPlans.Load(t); ok {
		return p.(*payloadType)
	}
	p, _ := payloadPlans.LoadOrStore(t, buildPayloadPlan(t))
	return p.(*payloadType)
}

// buildPayloadPlan derives t's plan. The payload types are fixed at
// compile time, so a kind the decoder does not cover is a programming
// error and panics on first use.
func buildPayloadPlan(t reflect.Type) *payloadType {
	switch t.Kind() {
	case reflect.String:
		return &payloadType{kind: payloadString}
	case reflect.Bool:
		return &payloadType{kind: payloadBool}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &payloadType{kind: payloadInt}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return &payloadType{kind: payloadUint}
	case reflect.Slice:
		return &payloadType{kind: payloadSlice, elem: buildPayloadPlan(t.Elem())}
	case reflect.Pointer:
		if t.Elem().Kind() == reflect.Struct {
			return &payloadType{kind: payloadPtr, elem: buildPayloadPlan(t.Elem())}
		}
	case reflect.Struct:
		p := &payloadType{kind: payloadStruct}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Anonymous {
				panic(fmt.Sprintf("store: payload type %s: field %s is not a plain exported field", t, f.Name))
			}
			name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "-" {
				continue
			}
			if name == "" {
				name = f.Name
			}
			p.fields = append(p.fields, payloadField{
				key:       `"` + name + `":`,
				index:     i,
				omitEmpty: opts == "omitempty",
				typ:       buildPayloadPlan(f.Type),
			})
		}
		return p
	}
	panic(fmt.Sprintf("store: payload type %s is not supported by the canonical decoder", t))
}

// decodeCanonical decodes payload into a T, reporting whether payload
// is exactly json.Marshal's encoding of the value.
func decodeCanonical[T any](payload []byte) (T, bool) {
	var v T
	rv := reflect.ValueOf(&v).Elem()
	r := payloadReader{b: payload}
	if !r.value(payloadPlan(rv.Type()), rv) || r.i != len(payload) {
		var zero T
		return zero, false
	}
	return v, true
}

// payloadReader walks a payload's bytes.
type payloadReader struct {
	b []byte
	i int
}

// eat consumes s when the unread bytes start with it.
func (r *payloadReader) eat(s string) bool {
	if len(r.b)-r.i < len(s) || string(r.b[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

// value decodes one value of plan t into v, which holds its zero value.
func (r *payloadReader) value(t *payloadType, v reflect.Value) bool {
	switch t.kind {
	case payloadString:
		s, ok := r.str()
		v.SetString(s)
		return ok
	case payloadBool:
		if r.eat("true") {
			v.SetBool(true)
			return true
		}
		return r.eat("false")
	case payloadInt:
		n, ok := r.int()
		if !ok || v.OverflowInt(n) {
			return false
		}
		v.SetInt(n)
		return true
	case payloadUint:
		n, ok := r.uint()
		if !ok || v.OverflowUint(n) {
			return false
		}
		v.SetUint(n)
		return true
	case payloadSlice:
		if r.eat("null") {
			return true
		}
		if !r.eat("[") {
			return false
		}
		n := 0
		if !r.eat("]") {
			n = arrayLen(r.b[r.i:])
		}
		if n < 0 {
			return false
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			if (i > 0 && !r.eat(",")) || !r.value(t.elem, v.Index(i)) {
				return false
			}
		}
		return n == 0 || r.eat("]")
	case payloadPtr:
		if r.eat("null") {
			return true
		}
		p := reflect.New(v.Type().Elem())
		v.Set(p)
		return r.value(t.elem, p.Elem())
	default: // payloadStruct
		if !r.eat("{") {
			return false
		}
		n := 0
		for _, f := range t.fields {
			at := r.i
			if (n > 0 && !r.eat(",")) || !r.eat(f.key) {
				r.i = at
				if !f.omitEmpty {
					return false
				}
				continue
			}
			fv := v.Field(f.index)
			if !r.value(f.typ, fv) || (f.omitEmpty && isEmptyPayload(fv)) {
				return false
			}
			n++
		}
		return r.eat("}")
	}
}

// arrayLen counts the elements of the array whose first element starts
// at b[0] by counting its top-level commas, so a slice is allocated
// once at its final length. It returns -1 when the array never closes;
// a miscount on malformed bytes fails the element decode that follows.
func arrayLen(b []byte) int {
	n, depth := 1, 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return n
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
	}
	return -1
}

// isEmptyPayload reports whether json.Marshal omits v from an
// omitempty field.
func isEmptyPayload(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice:
		return v.Len() == 0
	case reflect.Pointer:
		return v.IsNil()
	}
	return v.IsZero()
}

// uint reads a canonical unsigned integer: one or more digits, no
// leading zero, no overflow.
func (r *payloadReader) uint() (uint64, bool) {
	start := r.i
	var n uint64
	for ; r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9'; r.i++ {
		d := uint64(r.b[r.i] - '0')
		if n > (1<<64-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	digits := r.i - start
	return n, digits > 0 && (digits == 1 || r.b[start] != '0')
}

// int reads a canonical signed integer; "-0" is not canonical.
func (r *payloadReader) int() (int64, bool) {
	neg := r.eat("-")
	u, ok := r.uint()
	switch {
	case !ok:
		return 0, false
	case neg:
		return -int64(u), u != 0 && u <= 1<<63
	}
	return int64(u), u < 1<<63
}

// str reads a string token. Raw bytes must be ones json.Marshal leaves
// unescaped, and each escape one it writes; a token without escapes is
// its own value, and the rare escaped token is unquoted by
// json.Unmarshal.
func (r *payloadReader) str() (string, bool) {
	if !r.eat(`"`) {
		return "", false
	}
	start, escaped := r.i, false
	for r.i < len(r.b) {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			if !escaped {
				return string(r.b[start : r.i-1]), true
			}
			var s string
			err := json.Unmarshal(r.b[start-1:r.i], &s)
			return s, err == nil
		case c == '\\':
			n := marshalEscapeLen(r.b[r.i:])
			if n == 0 {
				return "", false
			}
			r.i += n
			escaped = true
		case c < utf8.RuneSelf:
			if c < 0x20 || c == '<' || c == '>' || c == '&' {
				return "", false
			}
			r.i++
		default:
			ru, size := utf8.DecodeRune(r.b[r.i:])
			if (ru == utf8.RuneError && size == 1) || ru == '\u2028' || ru == '\u2029' {
				return "", false
			}
			r.i += size
		}
	}
	return "", false
}

// marshalEscapeLen returns the length of the escape at the start of b
// when it is one json.Marshal writes, and 0 otherwise.
func marshalEscapeLen(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	switch b[1] {
	case '"', '\\', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if len(b) < 6 {
			return 0
		}
		switch string(b[2:6]) {
		case "003c", "003e", "0026", "2028", "2029", "fffd":
			return 6
		}
		// \u00XX, lowercase, for a control character without a short
		// escape.
		hi, lo := strings.IndexByte("01", b[4]), strings.IndexByte("0123456789abcdef", b[5])
		if b[2] != '0' || b[3] != '0' || hi < 0 || lo < 0 {
			return 0
		}
		switch byte(hi<<4 | lo) {
		case '\b', '\f', '\n', '\r', '\t':
			return 0
		}
		return 6
	}
	return 0
}
