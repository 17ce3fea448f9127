// Package query is a small vectorized dataframe engine over columnar
// tables. The analysis layers (metric highlight thresholds, what-if
// candidate ranking, level-of-detail windowing) all need the same handful
// of relational verbs — filter rows by a predicate over attribute columns,
// group and aggregate, rank, take the top k — and before this package each
// implemented its own bespoke scan. Here the verbs are compiled once from a
// compact string grammar (see Parse) and executed with chunked
// runpool.ParallelFor/ParallelReduce kernels whose chunk boundaries depend
// only on the row count, so every plan produces byte-identical results at
// every worker count, including the serial fallback.
//
// A Table is a set of equally long named columns, each float64, int64 or
// string. Plans are late-materialized: verbs pass a row selection over the
// source table and column pointers from one to the next, and only the rows
// and columns the result keeps are copied, once, when Plan.Run returns.
// The source is never copied or mutated, and string columns share their
// backing data.
package query

import "fmt"

// Kind is a column's element type.
type Kind uint8

const (
	// Float columns hold float64 values (metric ratios, severities).
	Float Kind = iota
	// Int columns hold int64 values (counts, cycle times, depths).
	Int
	// Str columns hold string values (grain IDs, source locations).
	Str
)

func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Int:
		return "int"
	case Str:
		return "string"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Column is one named attribute vector. Exactly one of F, I, S is non-nil,
// matching Kind; all rows of a Table have the same length.
type Column struct {
	Name string
	Kind Kind
	F    []float64
	I    []int64
	S    []string
}

// len returns the column's row count.
func (c *Column) len() int {
	switch c.Kind {
	case Float:
		return len(c.F)
	case Int:
		return len(c.I)
	default:
		return len(c.S)
	}
}

// num returns row i as a float64; Str columns must not reach here (the
// binder rejects them in numeric position).
func (c *Column) num(i int) float64 {
	if c.Kind == Float {
		return c.F[i]
	}
	return float64(c.I[i])
}

// Table is a columnar dataset: named typed columns of one shared length.
type Table struct {
	rows   int
	cols   []*Column
	byName map[string]*Column
}

// NewTable returns an empty table expecting rows-long columns.
func NewTable(rows int) *Table {
	return &Table{rows: rows, byName: make(map[string]*Column)}
}

// NumRows returns the table's row count.
func (t *Table) NumRows() int { return t.rows }

// Columns returns the columns in insertion order.
func (t *Table) Columns() []*Column { return t.cols }

// Col returns the named column, or nil.
func (t *Table) Col(name string) *Column { return t.byName[name] }

// add appends c. Its panics are unreachable from a plan: Parse rejects a
// repeated select column or groupby key, and agg reports a repeated output
// name as an *Error before adding it.
func (t *Table) add(c *Column) *Table {
	if c.len() != t.rows {
		panic(fmt.Sprintf("query: column %q has %d rows, table has %d", c.Name, c.len(), t.rows))
	}
	if _, dup := t.byName[c.Name]; dup {
		panic(fmt.Sprintf("query: duplicate column %q", c.Name))
	}
	t.cols = append(t.cols, c)
	t.byName[c.Name] = c
	return t
}

// AddFloat appends a float64 column. The slice is adopted, not copied.
func (t *Table) AddFloat(name string, v []float64) *Table {
	return t.add(&Column{Name: name, Kind: Float, F: v})
}

// AddInt appends an int64 column. The slice is adopted, not copied.
func (t *Table) AddInt(name string, v []int64) *Table {
	return t.add(&Column{Name: name, Kind: Int, I: v})
}

// AddStr appends a string column. The slice is adopted, not copied.
func (t *Table) AddStr(name string, v []string) *Table {
	return t.add(&Column{Name: name, Kind: Str, S: v})
}

// frame is a plan's intermediate result: the columns of schema, each
// indexed by source row, seen through a row selection. sel lists the
// frame's rows as schema rows in frame order; nil means every schema row
// in order. Expressions and verbs address a frame by position, 0 up to
// rows(), and read the source through sel.
type frame struct {
	schema *Table
	sel    []int32
}

// rows returns the frame's row count.
func (f frame) rows() int {
	if f.sel == nil {
		return f.schema.rows
	}
	return len(f.sel)
}

// row maps frame position i to its schema row.
func (f frame) row(i int) int {
	if f.sel == nil {
		return i
	}
	return int(f.sel[i])
}

// with returns the frame's rows narrowed or reordered to sel, which lists
// schema rows; an empty sel stays empty, never the nil "all rows".
func (f frame) with(sel []int32) frame {
	if sel == nil {
		sel = []int32{}
	}
	return frame{schema: f.schema, sel: sel}
}

// table materializes the frame: the schema itself when nothing was
// selected, else the selected rows of its columns, gathered once.
func (f frame) table() *Table {
	if f.sel == nil {
		return f.schema
	}
	return f.schema.gather(f.sel)
}

// gather materializes the rows named by idx (in idx order) into a fresh
// table with the same schema.
func (t *Table) gather(idx []int32) *Table {
	out := NewTable(len(idx))
	for _, c := range t.cols {
		nc := &Column{Name: c.Name, Kind: c.Kind}
		switch c.Kind {
		case Float:
			nc.F = make([]float64, len(idx))
			for i, r := range idx {
				nc.F[i] = c.F[r]
			}
		case Int:
			nc.I = make([]int64, len(idx))
			for i, r := range idx {
				nc.I[i] = c.I[r]
			}
		default:
			nc.S = make([]string, len(idx))
			for i, r := range idx {
				nc.S[i] = c.S[r]
			}
		}
		out.add(nc)
	}
	return out
}

// Error is a query compilation or binding failure: a malformed source
// string, an unknown column, a type mismatch. Surfaces map it to a usage
// failure (CLI exit 2, HTTP 400) — it always means the query, not the
// engine, is at fault.
type Error struct {
	Src string // the offending source fragment
	Msg string
}

func (e *Error) Error() string {
	if e.Src == "" {
		return "query: " + e.Msg
	}
	return fmt.Sprintf("query: %q: %s", e.Src, e.Msg)
}

func errf(src, format string, args ...any) *Error {
	return &Error{Src: src, Msg: fmt.Sprintf(format, args...)}
}
