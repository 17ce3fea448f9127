// Package colenc provides the self-describing column codecs shared by the
// columnar .ggp v2 sections and the derived-index sidecars (lod summary
// index, query metric table). A section's layout is declared once, as a
// list of Cols: each Col binds a wire encoding to a pointer at a typed
// destination, and Encode and Decode both walk that list, so the writer and
// the reader of a section cannot disagree about its column order.
//
// Every vector is written as a uvarint element count followed by the
// element data, so a decoder can bounds-check the claimed size against the
// remaining payload *before* allocating — corrupt or truncated input fails
// with a structured error instead of an OOM or a panic. A destination may
// be narrower than its wire encoding ([]int32 behind a zigzag varint, a
// named integer type behind a fixed u32): the decoder range-checks each
// element as it stores it, so no caller widens, narrows or copies a column.
//
// Fixed-width vectors (U64/U32/F64) are little-endian and decode at
// near-memcpy cost. Varint vectors (Uvar/Ivar) trade decode speed for size
// on columns that are mostly small or zero (hardware counters, line
// numbers). String vectors store one shared blob plus monotonic end
// offsets; decoding materializes a single Go string and slices it, so a
// million labels cost one allocation for the backing store.
//
// Every column also knows, before it writes a byte, exactly how many bytes it
// will encode to (Size). Encode therefore allocates its result once, and a
// writer that frames sections into a stream (ggp's v2 writer) can emit a
// section's length prefix first and then encode the section one leaf column
// at a time (Leaves, Append) into a scratch buffer it reuses.
package colenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrCorrupt is wrapped by every decode error so callers can classify
// malformed input without matching message text.
var ErrCorrupt = errors.New("colenc: corrupt column")

// Integer is the set of in-memory element types of an integer column.
type Integer interface {
	~int | ~int32 | ~int64 | ~uint8 | ~uint32 | ~uint64
}

// Col is one declared column of a section. Decoding replaces the
// destination with a fresh slice (nil for zero rows) that never aliases the
// payload.
type Col struct {
	size    func() (int, error) // exactly the bytes enc appends
	enc     func(b []byte) []byte
	dec     func(d *reader) (rows int, err error)
	members []Col // of a SameRows group; nil for a leaf
}

// Size is the exact number of bytes the columns encode to. It fails only for
// a column no payload can hold (a string blob over 4 GiB), which is how a
// writer with an error path learns that before it writes anything.
func Size(cols ...Col) (int, error) {
	total := 0
	for _, c := range cols {
		n, err := c.size()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Append appends the columns' encoding to b, growing it by exactly
// Size(cols...) bytes. It is for a caller that has asked Size, which is
// where a column that cannot be encoded is refused.
func Append(b []byte, cols ...Col) []byte {
	for _, c := range cols {
		b = c.enc(b)
	}
	return b
}

// Encode serializes the columns in order into one exactly-sized slice. It
// panics where Size fails; a caller that can return the error asks Size first.
func Encode(cols ...Col) []byte {
	n, err := Size(cols...)
	if err != nil {
		panic(err)
	}
	return Append(make([]byte, 0, n), cols...)
}

// Leaves flattens the columns' row groups into the leaf columns they are
// made of, in encoding order: appending the leaves one by one produces the
// same bytes as appending cols.
func Leaves(cols ...Col) []Col {
	var out []Col
	for _, c := range cols {
		if c.members == nil {
			out = append(out, c)
		} else {
			out = append(out, Leaves(c.members...)...)
		}
	}
	return out
}

// Decode fills the columns' destinations from payload, which must hold
// exactly those columns: trailing bytes are an error.
func Decode(payload []byte, cols ...Col) error {
	rest, err := DecodePrefix(payload, cols...)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return err
}

// DecodePrefix decodes the columns from the front of payload and returns
// what follows them, for layouts whose later columns depend on earlier
// values (a query table's column set is data).
func DecodePrefix(payload []byte, cols ...Col) ([]byte, error) {
	d := &reader{b: payload}
	if _, err := d.cols(cols); err != nil {
		return nil, err
	}
	return d.b[d.off:], nil
}

// SameRows groups columns that must decode to the same number of rows; the
// group counts as one column of that many rows.
func SameRows(cols ...Col) Col {
	return Col{
		members: cols,
		size:    func() (int, error) { return Size(cols...) },
		enc:     func(b []byte) []byte { return Append(b, cols...) },
		dec: func(d *reader) (int, error) {
			rows, err := d.cols(cols)
			if err != nil {
				return 0, err
			}
			for i, n := range rows {
				if n != rows[0] {
					return 0, fmt.Errorf("%w: column %d has %d rows, column 0 has %d", ErrCorrupt, i, n, rows[0])
				}
			}
			return rows[0], nil
		},
	}
}

// Uvarint is a single unsigned varint, not a vector.
func Uvarint[T Integer](p *T) Col {
	return Col{
		size: func() (int, error) { return uvarintLen(uint64(*p)), nil },
		enc:  func(b []byte) []byte { return binary.AppendUvarint(b, uint64(*p)) },
		dec: func(d *reader) (int, error) {
			x, err := d.uvarint()
			if err != nil {
				return 0, err
			}
			var ok bool
			if *p, ok = fromU[T](x); !ok {
				return 0, d.corrupt("value out of range")
			}
			return 1, nil
		},
	}
}

// Str is a single length-prefixed string, not a vector.
func Str(p *string) Col {
	return Col{
		size: func() (int, error) { return vectorSize(len(*p), 1), nil },
		enc: func(b []byte) []byte {
			return append(binary.AppendUvarint(b, uint64(len(*p))), *p...)
		},
		dec: func(d *reader) (int, error) {
			n, err := d.count(1)
			if err != nil {
				return 0, err
			}
			*p = string(d.b[d.off : d.off+n])
			d.off += n
			return 1, nil
		},
	}
}

// U64 is a fixed-width vector of 8-byte little-endian values.
func U64(p *[]uint64) Col {
	return Col{
		size: func() (int, error) { return vectorSize(len(*p), 8), nil },
		enc: func(b []byte) []byte {
			b = binary.AppendUvarint(b, uint64(len(*p)))
			for _, x := range *p {
				b = binary.LittleEndian.AppendUint64(b, x)
			}
			return b
		},
		dec: func(d *reader) (int, error) {
			return vector(d, p, 8, func(v []uint64) error {
				for i := range v {
					v[i] = binary.LittleEndian.Uint64(d.b[d.off:])
					d.off += 8
				}
				return nil
			})
		},
	}
}

// U32 is a fixed-width vector of 4-byte little-endian values.
func U32[T Integer](p *[]T) Col {
	return Col{
		size: func() (int, error) { return vectorSize(len(*p), 4), nil },
		enc: func(b []byte) []byte {
			b = binary.AppendUvarint(b, uint64(len(*p)))
			for _, x := range *p {
				b = binary.LittleEndian.AppendUint32(b, uint32(x))
			}
			return b
		},
		dec: func(d *reader) (int, error) {
			return vector(d, p, 4, func(v []T) error {
				for i := range v {
					var ok bool
					if v[i], ok = fromU[T](uint64(binary.LittleEndian.Uint32(d.b[d.off:]))); !ok {
						return d.corrupt("value out of range")
					}
					d.off += 4
				}
				return nil
			})
		},
	}
}

// F64 is a fixed-width vector of float64 raw bits, little-endian.
// Round-tripping preserves every bit pattern, including NaNs.
func F64(p *[]float64) Col {
	return Col{
		size: func() (int, error) { return vectorSize(len(*p), 8), nil },
		enc: func(b []byte) []byte {
			b = binary.AppendUvarint(b, uint64(len(*p)))
			for _, x := range *p {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			}
			return b
		},
		dec: func(d *reader) (int, error) {
			return vector(d, p, 8, func(v []float64) error {
				for i := range v {
					v[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
					d.off += 8
				}
				return nil
			})
		},
	}
}

// Uvar is a vector of unsigned varints. Best for columns that are mostly
// zero or small (hardware counters).
func Uvar[T Integer](p *[]T) Col {
	return Col{
		size: func() (int, error) {
			n := uvarintLen(uint64(len(*p)))
			for _, x := range *p {
				n += uvarintLen(uint64(x))
			}
			return n, nil
		},
		enc: func(b []byte) []byte {
			b = binary.AppendUvarint(b, uint64(len(*p)))
			for _, x := range *p {
				b = binary.AppendUvarint(b, uint64(x))
			}
			return b
		},
		dec: func(d *reader) (int, error) {
			return vector(d, p, 1, func(v []T) error {
				for i := range v {
					x, err := d.uvarint()
					if err != nil {
						return err
					}
					var ok bool
					if v[i], ok = fromU[T](x); !ok {
						return d.corrupt("value out of range")
					}
				}
				return nil
			})
		},
	}
}

// Ivar is a vector of zigzag-encoded signed varints.
func Ivar[T Integer](p *[]T) Col {
	return Col{
		size: func() (int, error) {
			n := uvarintLen(uint64(len(*p)))
			for _, x := range *p {
				v := int64(x)
				n += uvarintLen(uint64(v)<<1 ^ uint64(v>>63)) // AppendVarint's zigzag
			}
			return n, nil
		},
		enc: func(b []byte) []byte {
			b = binary.AppendUvarint(b, uint64(len(*p)))
			for _, x := range *p {
				b = binary.AppendVarint(b, int64(x))
			}
			return b
		},
		dec: func(d *reader) (int, error) {
			return vector(d, p, 1, func(v []T) error {
				for i := range v {
					x, w := binary.Varint(d.b[d.off:])
					if w <= 0 {
						return d.corrupt("bad varint")
					}
					d.off += w
					t := T(x)
					if int64(t) != x || (t < 0) != (x < 0) {
						return d.corrupt("value out of range")
					}
					v[i] = t
				}
				return nil
			})
		},
	}
}

// U8 is a vector of one byte per element (node kinds, boundary kinds); an
// element that does not fit a byte is a caller bug and encodes truncated.
func U8[T Integer](p *[]T) Col {
	return Col{
		size: func() (int, error) { return vectorSize(len(*p), 1), nil },
		enc: func(b []byte) []byte {
			b = binary.AppendUvarint(b, uint64(len(*p)))
			for _, x := range *p {
				b = append(b, byte(x))
			}
			return b
		},
		dec: func(d *reader) (int, error) {
			return vector(d, p, 1, func(v []T) error {
				for i := range v {
					v[i] = T(d.b[d.off+i])
				}
				d.off += len(v)
				return nil
			})
		},
	}
}

// Bool is a bool vector, one byte per element; any nonzero byte decodes as
// true.
func Bool(p *[]bool) Col {
	return Col{
		size: func() (int, error) { return vectorSize(len(*p), 1), nil },
		enc: func(b []byte) []byte {
			b = binary.AppendUvarint(b, uint64(len(*p)))
			for _, x := range *p {
				if x {
					b = append(b, 1)
				} else {
					b = append(b, 0)
				}
			}
			return b
		},
		dec: func(d *reader) (int, error) {
			return vector(d, p, 1, func(v []bool) error {
				for i := range v {
					v[i] = d.b[d.off+i] != 0
				}
				d.off += len(v)
				return nil
			})
		},
	}
}

// Strs is a string vector: count, monotonic 4-byte end offsets, and one
// concatenated blob, whose total size must fit in uint32. All decoded
// strings share one backing allocation.
func Strs[T ~string](p *[]T) Col {
	return Col{
		size: func() (int, error) {
			blob := 0
			for _, s := range *p {
				blob += len(s)
			}
			if uint64(blob) > math.MaxUint32 {
				return 0, fmt.Errorf("colenc: string column of %d bytes exceeds the 4 GiB blob limit", blob)
			}
			return vectorSize(len(*p), 4) + blob, nil
		},
		enc: func(b []byte) []byte {
			b = binary.AppendUvarint(b, uint64(len(*p)))
			end := uint32(0)
			for _, s := range *p {
				end += uint32(len(s))
				b = binary.LittleEndian.AppendUint32(b, end)
			}
			for _, s := range *p {
				b = append(b, s...)
			}
			return b
		},
		dec: func(d *reader) (int, error) {
			return vector(d, p, 4, func(v []T) error {
				ends := d.b[d.off : d.off+4*len(v)]
				d.off += len(ends)
				blobLen := binary.LittleEndian.Uint32(ends[len(ends)-4:])
				if uint64(blobLen) > uint64(len(d.b)-d.off) {
					return d.corrupt("string blob exceeds payload")
				}
				blob := T(d.b[d.off : d.off+int(blobLen)])
				d.off += int(blobLen)
				start := uint32(0)
				for i := range v {
					end := binary.LittleEndian.Uint32(ends[4*i:])
					if end < start || end > blobLen {
						return d.corrupt("string offsets not monotonic")
					}
					v[i] = blob[start:end]
					start = end
				}
				return nil
			})
		},
	}
}

// fromU converts a wire value to T, reporting whether T can hold it.
func fromU[T Integer](x uint64) (T, bool) {
	t := T(x)
	return t, uint64(t) == x && t >= 0
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// vectorSize is the encoded size of a vector's element count followed by n
// elements of width bytes.
func vectorSize(n, width int) int { return uvarintLen(uint64(n)) + n*width }

// reader is the decode cursor over one payload.
type reader struct {
	b   []byte
	off int
}

func (d *reader) corrupt(what string) error {
	return fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, d.off)
}

// cols decodes a column list in order and returns each column's row count.
func (d *reader) cols(cols []Col) ([]int, error) {
	rows := make([]int, len(cols))
	for i, c := range cols {
		n, err := c.dec(d)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
		rows[i] = n
	}
	return rows, nil
}

func (d *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, d.corrupt("bad uvarint")
	}
	d.off += n
	return v, nil
}

// count decodes a vector length and validates that n elements of at least
// width bytes each fit in the remaining payload.
func (d *reader) count(width int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.b)-d.off)/uint64(width) {
		return 0, d.corrupt("vector length exceeds payload")
	}
	return int(v), nil
}

// vector decodes a vector's count, allocates the destination once the
// count is known to fit the payload, and has fill decode the elements.
func vector[T any](d *reader, p *[]T, width int, fill func(v []T) error) (int, error) {
	*p = nil
	n, err := d.count(width)
	if err != nil || n == 0 {
		return 0, err
	}
	v := make([]T, n)
	if err := fill(v); err != nil {
		return 0, err
	}
	*p = v
	return n, nil
}
