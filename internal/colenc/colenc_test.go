package colenc_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"graingraph/internal/colenc"
	"graingraph/internal/colenc/colenctest"
)

type label string
type slot int32

// every holds one column of every kind, with named and narrowed element
// types where a kind allows them.
type every struct {
	u64   []uint64
	u32   []uint32
	idx   []slot
	f64   []float64
	uv    []uint64
	uvN   []int32
	iv    []int64
	ivN   []slot
	u8    []uint8
	bs    []bool
	ss    []label
	count int32
	name  string
}

func (e *every) vectors() []colenc.Col {
	return []colenc.Col{
		colenc.U64(&e.u64), colenc.U32(&e.u32), colenc.U32(&e.idx), colenc.F64(&e.f64),
		colenc.Uvar(&e.uv), colenc.Uvar(&e.uvN), colenc.Ivar(&e.iv), colenc.Ivar(&e.ivN),
		colenc.U8(&e.u8), colenc.Bool(&e.bs), colenc.Strs(&e.ss),
	}
}

func (e *every) scalars() []colenc.Col {
	return []colenc.Col{colenc.Uvarint(&e.count), colenc.Str(&e.name)}
}

func (e *every) schema() []colenc.Col { return append(e.vectors(), e.scalars()...) }

func TestRoundTrip(t *testing.T) {
	want := every{
		u64:   []uint64{0, 1, math.MaxUint64, 42},
		u32:   []uint32{0, 7, math.MaxUint32},
		idx:   []slot{0, math.MaxInt32},
		f64:   []float64{0, -1.5, math.Inf(1), math.NaN()},
		uv:    []uint64{0, 0, 300, 1 << 50, math.MaxUint64},
		uvN:   []int32{0, math.MaxInt32},
		iv:    []int64{0, -1, 1, math.MinInt64, math.MaxInt64},
		ivN:   []slot{math.MinInt32, -1, math.MaxInt32},
		u8:    []uint8{0, 255, 3},
		bs:    []bool{true, false, true},
		ss:    []label{"", "a", "hello world", ""},
		count: 99,
		name:  "section",
	}
	payload := colenc.Encode(want.schema()...)
	var got every
	if err := colenc.Decode(payload, got.schema()...); err != nil {
		t.Fatal(err)
	}
	// NaN != NaN under DeepEqual: compare the floats by bits, the rest whole.
	for i := range want.f64 {
		if math.Float64bits(got.f64[i]) != math.Float64bits(want.f64[i]) {
			t.Fatalf("f64[%d]: got %v want %v", i, got.f64[i], want.f64[i])
		}
	}
	got.f64, want.f64 = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
}

// TestSchemaContract runs the shared schema checks (prefixes, trailing
// byte, a column one row short, out-of-range values in narrowed columns)
// over a schema with every kind in one row group.
func TestSchemaContract(t *testing.T) {
	colenctest.Schema(t, func() (any, []colenc.Col) {
		e := &every{}
		return e, append([]colenc.Col{colenc.SameRows(e.vectors()...)}, e.scalars()...)
	})
}

func TestEmptyVectorsDecodeNil(t *testing.T) {
	u64, ss := []uint64{}, []string{}
	payload := colenc.Encode(colenc.U64(&u64), colenc.Strs(&ss))
	u64, ss = []uint64{1}, []string{"x"}
	if err := colenc.Decode(payload, colenc.U64(&u64), colenc.Strs(&ss)); err != nil {
		t.Fatal(err)
	}
	if u64 != nil || ss != nil {
		t.Fatalf("empty vectors decoded to %v, %v, want nil", u64, ss)
	}
}

func TestCorruptInputsFailClosed(t *testing.T) {
	var u64 []uint64
	var ss []string
	var n uint64

	// Oversized count claim: n=2^40 u64s in a 6-byte payload must be
	// rejected before allocation.
	n = 1 << 40
	if err := colenc.Decode(colenc.Encode(colenc.Uvarint(&n)), colenc.U64(&u64)); !errors.Is(err, colenc.ErrCorrupt) {
		t.Fatalf("oversized count: got %v", err)
	}

	// Non-monotonic string offsets.
	ss = []string{"ab", "cd"}
	b := colenc.Encode(colenc.Strs(&ss))
	b[1], b[5] = b[5], b[1] // swap first bytes of the two end offsets
	if err := colenc.Decode(b, colenc.Strs(&ss)); !errors.Is(err, colenc.ErrCorrupt) {
		t.Fatalf("non-monotonic strs: got %v", err)
	}

	// A string offset beyond the blob the last offset declares.
	ss = []string{"ab", "cd"}
	b = colenc.Encode(colenc.Strs(&ss))
	b[1] = 9
	if err := colenc.Decode(b, colenc.Strs(&ss)); !errors.Is(err, colenc.ErrCorrupt) {
		t.Fatalf("offset beyond blob: got %v", err)
	}

	// Row groups that disagree.
	u64, ss = []uint64{1, 2}, []string{"x"}
	b = colenc.Encode(colenc.U64(&u64), colenc.Strs(&ss))
	if err := colenc.Decode(b, colenc.SameRows(colenc.U64(&u64), colenc.Strs(&ss))); !errors.Is(err, colenc.ErrCorrupt) {
		t.Fatalf("uneven row group: got %v", err)
	}

	// DecodePrefix hands back what follows the columns it was given.
	u64, n = []uint64{7}, 5
	b = colenc.Encode(colenc.U64(&u64), colenc.Uvarint(&n))
	rest, err := colenc.DecodePrefix(b, colenc.U64(&u64))
	if err != nil || len(rest) != 1 || rest[0] != 5 {
		t.Fatalf("DecodePrefix: rest %v, err %v", rest, err)
	}
}

// checkSize asserts the size contract between the columns and what Encode
// makes of them, and returns those bytes.
func checkSize(t *testing.T, cols ...colenc.Col) []byte {
	t.Helper()
	payload := colenc.Encode(cols...)
	colenctest.Sized(t, payload, cols...)
	return payload
}

// TestSizeContract checks every constructor at the values where an encoded
// width changes: empty vectors, each varint length boundary, the extremes
// of the signed and unsigned ranges, empty strings.
func TestSizeContract(t *testing.T) {
	var boundsU []uint64 // 0, and both sides of every 7-bit boundary
	var boundsI []int64
	for shift := 0; shift < 64; shift += 7 {
		x := uint64(1) << shift
		boundsU = append(boundsU, x-1, x)
		boundsI = append(boundsI, int64(x>>1), -int64(x>>1), int64(x>>1)-1, -int64(x>>1)-1)
	}
	boundsU = append(boundsU, math.MaxUint64)
	boundsI = append(boundsI, math.MaxInt64, math.MinInt64)

	long := make([]uint8, 300) // a count that needs a two-byte uvarint
	cases := map[string]every{
		"zero":  {},
		"empty": {u64: []uint64{}, iv: []int64{}, ss: []label{}, bs: []bool{}},
		"bounds": {
			u64: boundsU, uv: boundsU, iv: boundsI,
			u32: []uint32{0, math.MaxUint32}, idx: []slot{0, math.MaxInt32},
			uvN: []int32{0, 127, 128, math.MaxInt32}, ivN: []slot{math.MinInt32, -65, -64, 63, 64, math.MaxInt32},
			f64:   []float64{0, math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64},
			count: math.MaxInt32, name: "",
		},
		"strings": {ss: []label{"", "", "x", "", "a longer label"}, name: "section name"},
		"long":    {u8: long, bs: make([]bool, 128), name: string(make([]byte, 200))},
	}
	for name, e := range cases {
		t.Run(name, func(t *testing.T) {
			for i, c := range e.schema() {
				t.Run(fmt.Sprint("column ", i), func(t *testing.T) { checkSize(t, c) })
			}
			checkSize(t, e.schema()...)
			// Row groups inside row groups flatten to the same leaves.
			e.u64, e.f64, e.uv = []uint64{1, 2}, []float64{3, 4}, []uint64{5, 1 << 40}
			nested := colenc.SameRows(colenc.U64(&e.u64), colenc.SameRows(colenc.F64(&e.f64), colenc.SameRows(colenc.Uvar(&e.uv))))
			if n := len(colenc.Leaves(nested, colenc.Str(&e.name))); n != 4 {
				t.Errorf("nested group flattens to %d leaves, want 4", n)
			}
			checkSize(t, nested, colenc.Str(&e.name))
		})
	}
	if n, err := colenc.Size(); n != 0 || err != nil {
		t.Errorf("Size of no columns = %d, %v", n, err)
	}
}

// TestEncodedColumn: a write-only column over another column's encoding
// sizes and appends exactly those bytes, inside a row group too, and
// refuses to decode.
func TestEncodedColumn(t *testing.T) {
	uv, u64 := []uint64{0, 127, 128, math.MaxUint64}, []uint64{1, 2, 3, 4}
	want := colenc.Encode(colenc.U64(&u64), colenc.Uvar(&uv))
	got := colenc.SameRows(colenc.U64(&u64), colenc.Encoded(colenc.Encode(colenc.Uvar(&uv))))
	colenctest.Sized(t, want, got)
	var back []uint64
	if err := colenc.Decode(want, colenc.U64(&back), colenc.Encoded(nil)); !errors.Is(err, colenc.ErrCorrupt) {
		t.Errorf("decoding a write-only column: %v, want ErrCorrupt", err)
	}
}

// TestOversizedStringColumn: a string column past the 4 GiB blob limit (257
// labels sharing one 16 MiB string) is an error from Size, for callers with
// an error path, and a panic from Encode, which has none.
func TestOversizedStringColumn(t *testing.T) {
	ss := make([]string, 257)
	big := strings.Repeat("x", 1<<24)
	for i := range ss {
		ss[i] = big
	}
	u64 := []uint64{1}
	cols := []colenc.Col{colenc.U64(&u64), colenc.SameRows(colenc.Strs(&ss))}
	if n, err := colenc.Size(cols...); err == nil {
		t.Errorf("Size = %d, want the blob limit error", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("Encode returned")
		}
	}()
	colenc.Encode(cols...)
}

// FuzzColSize derives one column of every kind from the fuzz input and
// checks the size contract on them, then that the bytes decode back to
// columns that encode the same.
func FuzzColSize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0x7F, 0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x80})
	f.Add([]byte("grain graphs: OpenMP performance analysis made easy"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var e every
		// Eight input bytes make one row; the shift varies the magnitude so
		// varints of every length turn up.
		for len(data) >= 8 {
			x := binary.LittleEndian.Uint64(data) >> (data[7] % 64)
			data = data[8:]
			e.u64 = append(e.u64, x)
			e.u32 = append(e.u32, uint32(x))
			e.idx = append(e.idx, slot(x&math.MaxInt32))
			e.f64 = append(e.f64, math.Float64frombits(x))
			e.uv = append(e.uv, x)
			e.uvN = append(e.uvN, int32(x&math.MaxInt32))
			e.iv = append(e.iv, int64(x)*(1-2*int64(x&1)))
			e.ivN = append(e.ivN, slot(int32(x)))
			e.u8 = append(e.u8, uint8(x))
			e.bs = append(e.bs, x&2 != 0)
			s := strconv.FormatUint(x, 36)
			e.ss = append(e.ss, label(s[:min(len(s), int(x%4))]))
		}
		e.count, e.name = int32(len(data)), string(data)
		schema := append([]colenc.Col{colenc.SameRows(e.vectors()...)}, e.scalars()...)
		payload := checkSize(t, schema...)

		var got every
		gotSchema := append([]colenc.Col{colenc.SameRows(got.vectors()...)}, got.scalars()...)
		if err := colenc.Decode(payload, gotSchema...); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(colenc.Encode(gotSchema...), payload) {
			t.Fatal("decoded columns re-encode differently")
		}
	})
}

// BenchmarkEncode encodes a 100 000-row section with one column of each
// cost class (fixed-width, varint, strings); the result is allocated once.
func BenchmarkEncode(b *testing.B) {
	const rows = 100_000
	var e every
	for i := 0; i < rows; i++ {
		e.u64 = append(e.u64, uint64(i)<<20)
		e.uv = append(e.uv, uint64(i%300))
		e.iv = append(e.iv, int64(i%300-150))
		e.ss = append(e.ss, label(strconv.Itoa(i)))
	}
	schema := colenc.SameRows(colenc.U64(&e.u64), colenc.Uvar(&e.uv), colenc.Ivar(&e.iv), colenc.Strs(&e.ss))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.SetBytes(int64(len(colenc.Encode(schema))))
	}
}
