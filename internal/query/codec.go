package query

import (
	"fmt"

	"graingraph/internal/colenc"
)

// Sidecar codec for tables: the columnar .ggp v2 format persists the
// per-grain metric table after first analysis so a warm restart serves
// query plans without re-running the metric pass. Float columns are
// stored as raw float64 bits, so an encode/decode round trip is
// bit-exact and query output over a decoded table is byte-identical to
// output over the freshly built one.

// A table's layout is data: two leading scalars (row count, column
// count), then per column its head and its rows.

// head is a column's leading fields: its name, and its kind as a
// one-element byte vector.
func (c *Column) head(kind *[]Kind) []colenc.Col {
	return []colenc.Col{colenc.Str(&c.Name), colenc.U8(kind)}
}

// data is the column's rows in the encoding of its kind.
func (c *Column) data() colenc.Col {
	switch c.Kind {
	case Float:
		return colenc.F64(&c.F)
	case Int:
		return colenc.Ivar(&c.I)
	default:
		return colenc.Strs(&c.S)
	}
}

// layout is the whole table as the encoder writes it.
func (t *Table) layout() []colenc.Col {
	rows, ncols := int32(t.rows), int32(len(t.cols))
	cols := []colenc.Col{colenc.Uvarint(&rows), colenc.Uvarint(&ncols)}
	for _, c := range t.cols {
		cols = append(append(cols, c.head(&[]Kind{c.Kind})...), c.data())
	}
	return cols
}

// EncodeTable serializes a table's schema and columns.
func EncodeTable(t *Table) []byte { return colenc.Encode(t.layout()...) }

// DecodeTable reconstructs a table from an EncodeTable payload. Malformed
// input — unknown column kind, row-count mismatch, duplicate names,
// trailing bytes — yields an error, never a panic; the caller falls back
// to rebuilding the table.
func DecodeTable(data []byte) (*Table, error) {
	var rows, ncols int32
	rest, err := colenc.DecodePrefix(data, colenc.Uvarint(&rows), colenc.Uvarint(&ncols))
	if err != nil {
		return nil, err
	}
	if ncols > 4096 {
		return nil, fmt.Errorf("query: decode: implausible table shape %d x %d", rows, ncols)
	}
	t := NewTable(int(rows))
	for ci := int32(0); ci < ncols; ci++ {
		c := &Column{}
		var kind []Kind
		if rest, err = colenc.DecodePrefix(rest, c.head(&kind)...); err != nil {
			return nil, err
		}
		if len(kind) != 1 {
			return nil, fmt.Errorf("query: decode: column %q has malformed kind", c.Name)
		}
		if c.Kind = kind[0]; c.Kind > Str {
			return nil, fmt.Errorf("query: decode: column %q has unknown kind %d", c.Name, c.Kind)
		}
		if rest, err = colenc.DecodePrefix(rest, c.data()); err != nil {
			return nil, err
		}
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("query: decode: duplicate column %q", c.Name)
		}
		if c.len() != int(rows) {
			return nil, fmt.Errorf("query: decode: column %q has %d rows, table claims %d", c.Name, c.len(), rows)
		}
		t.cols = append(t.cols, c)
		t.byName[c.Name] = c
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("query: decode: %d trailing bytes", len(rest))
	}
	return t, nil
}
