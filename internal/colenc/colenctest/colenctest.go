// Package colenctest holds the one contract test every colenc column
// schema must pass, so the packages that declare schemas (ggp, lod, colenc
// itself) check theirs with a table entry instead of a test per section.
package colenctest

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"graingraph/internal/colenc"
)

// Sized checks the size contract of columns whose encoding is payload: Size
// says exactly len(payload), and the leaves, each appending exactly its own
// Size, concatenate to payload — so a writer that declares a section's
// length from Size and streams it leaf by leaf frames the same bytes Encode
// returns.
func Sized(t testing.TB, payload []byte, cols ...colenc.Col) {
	t.Helper()
	if n, err := colenc.Size(cols...); err != nil || n != len(payload) {
		t.Errorf("Size = %d, %v; the encoding is %d bytes", n, err, len(payload))
	}
	var stream []byte
	for i, leaf := range colenc.Leaves(cols...) {
		before := len(stream)
		stream = colenc.Append(stream, leaf)
		if n, err := colenc.Size(leaf); err != nil || n != len(stream)-before {
			t.Errorf("leaf %d: Size = %d, %v; Append wrote %d bytes", i, n, err, len(stream)-before)
		}
	}
	if !bytes.Equal(stream, payload) {
		t.Errorf("leaf-by-leaf stream differs from the encoding:\n got %x\nwant %x", stream, payload)
	}
}

// Schema checks one schema. newHolder returns a zero column holder and the
// schema bound to it. The holder is filled by reflection (every slice of
// numbers, bools or strings gets three rows, every such scalar a value),
// then:
//
//   - encode → decode into a fresh holder reproduces holder and payload,
//     and the payload meets the size contract (Sized);
//   - every strict prefix of the payload, and the payload plus one byte,
//     fail to decode;
//   - with any one column one row short, decode fails — except for the
//     columns named in free, which belong to no row group and must then
//     round-trip at their shorter length;
//   - with a value just outside int32 put on the wire in place of a value
//     bound for an int32 destination, decode fails.
//
// A decode that panics fails the test by crashing it.
func Schema(t *testing.T, newHolder func() (holder any, cols []colenc.Col), free ...string) {
	t.Helper()
	decode := func(payload []byte) (any, []colenc.Col, error) {
		h, cols := newHolder()
		return h, cols, colenc.Decode(payload, cols...)
	}
	holder, cols := newHolder()
	var all []field
	walk("", reflect.ValueOf(holder).Elem(), &all)
	const rows = 3
	for i, f := range all {
		f.fill(i, rows)
	}
	// A field the schema does not cover (a shared struct's other columns)
	// is left zero, so the holders compare equal after the round trip.
	base := colenc.Encode(cols...)
	var fields []field
	for i, f := range all {
		f.v.Set(reflect.Zero(f.v.Type()))
		if !bytes.Equal(colenc.Encode(cols...), base) {
			f.fill(i, rows)
			fields = append(fields, f)
		}
	}
	if len(fields) == 0 {
		t.Fatal("schema covers no field the test can fill")
	}

	payload := colenc.Encode(cols...)
	Sized(t, payload, cols...)
	got, gotCols, err := decode(payload)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !reflect.DeepEqual(got, holder) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, holder)
	}
	if !bytes.Equal(colenc.Encode(gotCols...), payload) {
		t.Error("decoded holder re-encodes differently")
	}
	for n := range payload {
		if _, _, err := decode(payload[:n]); err == nil {
			t.Errorf("%d-byte prefix of the %d-byte payload decoded", n, len(payload))
		}
	}
	if _, _, err := decode(append(bytes.Clone(payload), 0)); err == nil {
		t.Error("payload with a trailing byte decoded")
	}

	isFree := make(map[string]bool, len(free))
	for _, name := range free {
		isFree[name] = true
	}
	for _, f := range fields {
		if f.v.Kind() != reflect.Slice {
			continue
		}
		f.v.Set(f.v.Slice(0, rows-1))
		short := colenc.Encode(cols...)
		f.v.Set(f.v.Slice(0, rows))
		_, shortCols, err := decode(short)
		switch {
		case !isFree[f.name] && err == nil:
			t.Errorf("column %s one row short decoded", f.name)
		case isFree[f.name] && err != nil:
			t.Errorf("free column %s one row short: %v", f.name, err)
		case isFree[f.name] && !bytes.Equal(colenc.Encode(shortCols...), short):
			t.Errorf("free column %s one row short re-encodes differently", f.name)
		}
		delete(isFree, f.name)
	}
	for name := range isFree {
		t.Errorf("free column %s is not a slice the schema covers", name)
	}

	for _, f := range fields {
		elem := f.v
		if f.v.Kind() == reflect.Slice {
			elem = f.v.Index(0)
		}
		if elem.Kind() != reflect.Int32 {
			continue
		}
		saved := elem.Int()
		elem.SetInt(math.MaxInt32)
		wire := colenc.Encode(cols...)
		elem.SetInt(saved)
		tried := 0
		for _, enc := range narrowings {
			if bytes.Count(wire, enc.max) != 1 {
				continue
			}
			for _, over := range enc.over {
				tried++
				if _, _, err := decode(bytes.Replace(wire, enc.max, over, 1)); err == nil {
					t.Errorf("column %s: %s value outside int32 decoded", f.name, enc.name)
				}
			}
		}
		if tried == 0 {
			t.Errorf("column %s: found no wire encoding of its MaxInt32", f.name)
		}
	}
}

// narrowings lists, per wire encoding an int32 destination can sit behind,
// the bytes of MaxInt32 and same-length bytes of values int32 cannot hold.
var narrowings = []struct {
	name string
	max  []byte
	over [][]byte
}{
	{"fixed u32", []byte{0xFF, 0xFF, 0xFF, 0x7F}, [][]byte{{0x00, 0x00, 0x00, 0x80}, {0xFF, 0xFF, 0xFF, 0xFF}}},
	{"uvarint", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x07}, [][]byte{{0x80, 0x80, 0x80, 0x80, 0x08}}},
	{"zigzag varint", []byte{0xFE, 0xFF, 0xFF, 0xFF, 0x0F}, [][]byte{
		{0x80, 0x80, 0x80, 0x80, 0x10}, // MaxInt32+1
		{0x81, 0x80, 0x80, 0x80, 0x10}, // MinInt32-1
	}},
}

// field is one fillable leaf of a holder: a scalar or a slice of numbers,
// bools or strings.
type field struct {
	name string
	v    reflect.Value
}

func fillable(k reflect.Kind) bool {
	return k == reflect.Bool || k == reflect.String || k == reflect.Float64 ||
		(k >= reflect.Int && k <= reflect.Uint64)
}

// walk collects the fillable leaves under v, through structs, arrays and
// non-nil struct pointers, lifting the read-only flag off unexported fields.
func walk(name string, v reflect.Value, out *[]field) {
	switch k := v.Kind(); {
	case k == reflect.Pointer && !v.IsNil():
		walk(name, v.Elem(), out)
	case k == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			walk(strings.TrimPrefix(name+"."+v.Type().Field(i).Name, "."), f, out)
		}
	case k == reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walk(fmt.Sprintf("%s[%d]", name, i), v.Index(i), out)
		}
	case k == reflect.Slice && fillable(v.Type().Elem().Kind()), fillable(k):
		*out = append(*out, field{name, v})
	}
}

// fill gives the field rows small values that differ by field and row.
func (f field) fill(seed, rows int) {
	set := func(v reflect.Value, row int) {
		n := seed*rows + row + 1
		switch k := v.Kind(); {
		case k == reflect.Bool:
			v.SetBool(n%2 == 1)
		case k == reflect.String:
			v.SetString(fmt.Sprintf("s%d", n))
		case k == reflect.Float64:
			v.SetFloat(float64(n) / 4)
		case k <= reflect.Int64:
			v.SetInt(int64(n % 100))
		default:
			v.SetUint(uint64(n % 100))
		}
	}
	if f.v.Kind() != reflect.Slice {
		set(f.v, 0)
		return
	}
	f.v.Set(reflect.MakeSlice(f.v.Type(), rows, rows))
	for i := 0; i < rows; i++ {
		set(f.v.Index(i), i)
	}
}
