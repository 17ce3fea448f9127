package query

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"graingraph/internal/colenc/colenctest"
)

// TestTableCodecRoundTrip: encode → decode must reproduce the table
// bit-exactly (including NaN float bits), and a query plan over the
// decoded table must print byte-identically to the same plan over the
// original.
func TestTableCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := randomTable(rng, 200)
	tab.cols[0].F[3] = math.NaN()
	tab.cols[0].F[4] = math.Inf(-1)

	enc := EncodeTable(tab)
	colenctest.Sized(t, enc, tab.layout()...)
	dec, err := DecodeTable(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.rows != tab.rows || len(dec.cols) != len(tab.cols) {
		t.Fatalf("shape: got %dx%d, want %dx%d", dec.rows, len(dec.cols), tab.rows, len(tab.cols))
	}
	for i, c := range tab.cols {
		d := dec.cols[i]
		if d.Name != c.Name || d.Kind != c.Kind {
			t.Fatalf("column %d: got %q/%d, want %q/%d", i, d.Name, d.Kind, c.Name, c.Kind)
		}
		switch c.Kind {
		case Float:
			for j := range c.F {
				if math.Float64bits(c.F[j]) != math.Float64bits(d.F[j]) {
					t.Fatalf("column %q row %d: float bits differ", c.Name, j)
				}
			}
		case Int:
			for j := range c.I {
				if c.I[j] != d.I[j] {
					t.Fatalf("column %q row %d: %d != %d", c.Name, j, d.I[j], c.I[j])
				}
			}
		case Str:
			for j := range c.S {
				if c.S[j] != d.S[j] {
					t.Fatalf("column %q row %d: %q != %q", c.Name, j, d.S[j], c.S[j])
				}
			}
		}
	}

	src := "filter w > 1000 | sort f desc | topk 20 by w"
	want := planOutput(t, tab, src)
	got := planOutput(t, dec, src)
	if want != got {
		t.Fatalf("plan output over decoded table differs:\n--- original\n%s\n--- decoded\n%s", want, got)
	}
}

func planOutput(t *testing.T, tab *Table, src string) string {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTableCodecEmpty covers the zero-row table: columns decode to
// non-nil empty slices so the shape check holds.
func TestTableCodecEmpty(t *testing.T) {
	tab := NewTable(0).AddFloat("f", nil).AddInt("i", nil).AddStr("s", nil)
	dec, err := DecodeTable(EncodeTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	if dec.rows != 0 || len(dec.cols) != 3 {
		t.Fatalf("got %d rows, %d cols", dec.rows, len(dec.cols))
	}
}

// TestTableCodecRejectsMalformed fails closed on the corruption classes
// a stale or damaged sidecar can present.
func TestTableCodecRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := randomTable(rng, 16)
	enc := EncodeTable(tab)

	for n := range enc {
		if _, err := DecodeTable(enc[:n]); err == nil {
			t.Errorf("decode accepted the %d-byte prefix of a %d-byte table", n, len(enc))
		}
	}
	if _, err := DecodeTable(append(bytes.Clone(enc), 0xAB)); err == nil {
		t.Error("decode accepted a trailing byte")
	}

	// Unknown column kind.
	bad := bytes.Clone(enc)
	// Column kinds live right after each name; flip the first one by
	// locating the name "f" (encoded as uvarint len 1 + 'f') at offset 2.
	if bad[2] != 1 || bad[3] != 'f' {
		t.Fatalf("encoding layout changed; fix this test's offset math")
	}
	bad[5] = 9 // kind byte inside the 1-element U8s vector
	if _, err := DecodeTable(bad); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("unknown kind: got %v", err)
	}
}
