package colenc_test

import (
	"errors"
	"math"
	"reflect"
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
