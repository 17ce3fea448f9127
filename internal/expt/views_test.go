package expt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/url"
	"os"
	"reflect"
	"sync"
	"testing"

	"graingraph/internal/ggp"
	"graingraph/internal/query"
	"graingraph/internal/runpool"
	"graingraph/internal/whatif"
	"graingraph/internal/workloads"
)

// viewFixture is a small fib run analyzed twice, on a 1-worker and on a
// 4-worker pool, so a render on each can be compared byte for byte.
var viewFixture = sync.OnceValues(func() ([2]*Subject, error) {
	var subs [2]*Subject
	inst, err := workloads.Get("fib", workloads.VariantDefault)
	if err != nil {
		return subs, err
	}
	res, err := Run(inst, Config{Cores: 4, Seed: 1})
	if err != nil {
		return subs, err
	}
	for i, pool := range viewPools {
		subs[i] = &Subject{Res: analyze(pool, res.Trace, nil, Config{}, nil)}
	}
	return subs, nil
})

var viewPools = [2]*runpool.Runner{runpool.New(1), runpool.New(4)}

// FuzzViewParams is the one entry point for every parameter grammar
// reachable over HTTP — the query language, lod's window keys and what-if
// specs — with inputs shaped like a request: a view name and a raw query
// string. Parsing never panics and rejects only with a typed error; any
// parameters it accepts render on the fixture without panicking, and the
// bytes on a 1-worker pool equal those on a 4-worker pool.
func FuzzViewParams(f *testing.F) {
	for _, seed := range [][2]string{
		{"summary", ""},
		{"highlight", ""},
		{"stats", ""},
		{"trace", ""},
		{"query", "q=" + url.QueryEscape("from grains | filter exec > 0 | groupby loc | agg count, sum(exec), mean(benefit) | sort sum_exec desc | topk 5")},
		{"query", "q=" + url.QueryEscape("from tasks | filter depth >= 1 | sort subwork desc | topk 3 | select id,depth,subwork,subtasks")},
		{"window", "depth=2&top=8&format=dot"},
		{"window", "root=R.0&depth=1&top=2&format=json"},
		{"window", "format=graphml"},
		{"whatif", ""},
		{"whatif", "spec=" + url.QueryEscape("cutoff:4,infcores")},
		{"whatif", "spec=" + url.QueryEscape("scale:R.0:0.5,collapse:R.0,deinflate:R.0")},
		// Malformed: each is a typed rejection, by the grammar or, for a root
		// that names no task, by the render.
		{"window", "format=bogus"},
		{"window", "depth=abc"},
		{"window", "depth=-1"},
		{"window", "root=NOPE"},
		{"whatif", "spec=bogus"},
		{"whatif", "spec=cutoff:x"},
		{"query", "q=bogus+nonsense"},
		{"query", "q=" + url.QueryEscape("filter nosuchcol > 1")},
		{"query", "q="},
		{"query", "q=%zz"},
	} {
		f.Add(seed[0], seed[1])
	}
	subs, err := viewFixture()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, view, raw string) {
		v := LookupView(view)
		if v == nil {
			return
		}
		q, _ := url.ParseQuery(raw) // what a server handler sees
		p, err := v.Parse(q)
		if err != nil {
			var pe *ParamError
			var qe *query.Error
			if !errors.As(err, &pe) && !errors.As(err, &qe) {
				t.Fatalf("%s?%s: untyped parse error %T: %v", view, raw, err, err)
			}
			return
		}
		var out [2][]byte
		var errs [2]error
		for i, s := range subs {
			out[i], errs[i] = v.Render(s, p, viewPools[i], nil)
		}
		if (errs[0] == nil) != (errs[1] == nil) || (errs[0] != nil && errs[0].Error() != errs[1].Error()) {
			t.Fatalf("%s?%s: -j 1 error %v, -j 4 error %v", view, raw, errs[0], errs[1])
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Fatalf("%s?%s: -j 1 and -j 4 renders differ", view, raw)
		}
	})
}

// acceptedRows are the view rows FuzzAnalyzeAccepted renders for every
// artifact the reader accepts.
var acceptedRows = [][2]string{
	{"summary", ""},
	{"highlight", ""},
	{"whatif", ""},
	{"window", "depth=2&top=8&format=dot"},
	{"query", "q=" + url.QueryEscape("from grains | filter exec > 0 | groupby loc | agg count, sum(exec) | sort sum_exec desc | topk 5")},
}

// resealV1 recomputes a v1 artifact's trailer — the IEEE CRC-32 of every
// byte before the trailer section — so that a mutated record reaches the
// record decoder and the analysis instead of failing the checksum. Input
// that is not a framed v1 stream with a trailer is returned unchanged.
func resealV1(data []byte) []byte {
	off := len(ggp.Magic) + 1
	if len(data) < off || string(data[:len(ggp.Magic)]) != ggp.Magic || data[len(ggp.Magic)] != ggp.Version {
		return data
	}
	for off < len(data) {
		size, n := binary.Uvarint(data[off+1:])
		if n <= 0 || size > uint64(len(data)) {
			return data
		}
		body := off + 1 + n
		if body+int(size) > len(data) {
			return data
		}
		if data[off] == 0xFF && size == 4 { // the trailer section
			out := bytes.Clone(data)
			binary.LittleEndian.PutUint32(out[body:], crc32.ChecksumIEEE(data[:off]))
			return out
		}
		off = body + int(size)
	}
	return data
}

// resealV2 recomputes a v2 artifact's checksums: every section's CRC-32C,
// the content key over the CRCs of the non-sidecar sections, the key every
// sidecar is stamped with, and the trailer's key, section count and CRC. A
// mutated column then reaches the column decoders, the trace checks, the
// sidecar decoders and the analysis instead of failing a checksum. Input
// that is not a framed v2 artifact ending in a trailer is returned
// unchanged.
func resealV2(data []byte) []byte {
	const trailer = 0xFE
	sidecar := func(id byte) bool { return id >= 0x20 && id < 0x30 }
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	off := len(ggp.Magic) + 1
	if len(data) < off || string(data[:len(ggp.Magic)]) != ggp.Magic || data[len(ggp.Magic)] != ggp.Version2 {
		return data
	}
	type section struct {
		id      byte
		payload []byte
	}
	var secs []section
	for {
		if off >= len(data) {
			return data
		}
		size, n := binary.Uvarint(data[off+1:])
		body := off + 1 + n
		if n <= 0 || size > uint64(len(data)) || body+int(size)+4 > len(data) {
			return data
		}
		if data[off] == trailer {
			break
		}
		secs = append(secs, section{data[off], data[body : body+int(size)]})
		off = body + int(size) + 4
	}
	var crcs []byte
	for _, s := range secs {
		if !sidecar(s.id) {
			crcs = binary.LittleEndian.AppendUint32(crcs, crc32.Checksum(s.payload, castagnoli))
		}
	}
	key := crc32.Checksum(crcs, castagnoli)
	out := bytes.Clone(data[:len(ggp.Magic)+1])
	frame := func(id byte, payload []byte) {
		out = binary.AppendUvarint(append(out, id), uint64(len(payload)))
		out = binary.LittleEndian.AppendUint32(append(out, payload...), crc32.Checksum(payload, castagnoli))
	}
	for _, s := range secs {
		if sidecar(s.id) && len(s.payload) >= 5 { // format version, then the key
			s.payload = bytes.Clone(s.payload)
			binary.LittleEndian.PutUint32(s.payload[1:], key)
		}
		frame(s.id, s.payload)
	}
	frame(trailer, binary.AppendUvarint(binary.LittleEndian.AppendUint32(nil, key), uint64(len(secs))))
	return out
}

// TestResealV2 pins the fuzz helper: an artifact resealed after a column
// byte changes decodes, where the unsealed one fails its checksum, and an
// intact artifact reseals to itself.
func TestResealV2(t *testing.T) {
	subs, err := viewFixture()
	if err != nil {
		t.Fatal(err)
	}
	res := subs[0].Res
	v2, err := ggp.EncodeV2(res.Trace, nil, Sidecars(res, viewPools[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resealV2(v2), v2) {
		t.Fatal("resealing an intact artifact changed it")
	}
	// The first section is meta; its first column is the program name.
	bad := bytes.Clone(v2)
	name := bytes.Index(bad, []byte(res.Trace.Program))
	bad[name] ^= 0x20
	if _, err := ggp.Decode(bad, nil, nil); !errors.Is(err, ggp.ErrCRC) {
		t.Fatalf("mutated artifact: %v, want ErrCRC", err)
	}
	dec, err := ggp.Decode(resealV2(bad), nil, nil)
	if err != nil {
		t.Fatalf("resealed artifact: %v", err)
	}
	if dec.Trace.Program == res.Trace.Program || !dec.HasSidecars() {
		t.Errorf("resealed artifact decodes program %q, sidecars fresh %v", dec.Trace.Program, dec.HasSidecars())
	}
}

// FuzzAnalyzeAccepted: an artifact the reader accepts is one the analysis
// stack can take. Whatever ggp.Decode accepts is analyzed and rendered as
// the summary, highlight, what-if, window and query rows without
// panicking, with identical bytes on a 1-worker and a 4-worker pool, and
// every perfect-cutoff candidate evaluates to the oracle's projection.
// Every input is resealed first (resealV1, resealV2), so mutations of v1
// records, v2 trace columns and v2 lod and query sidecars are judged by the
// reader's checks and the sidecar decoders rather than by a checksum. The
// corpus includes an older v2 artifact whose stored graph closes a cycle.
func FuzzAnalyzeAccepted(f *testing.F) {
	subs, err := viewFixture()
	if err != nil {
		f.Fatal(err)
	}
	res := subs[0].Res
	var v1 bytes.Buffer
	if err := ggp.WriteTrace(&v1, res.Trace); err != nil {
		f.Fatal(err)
	}
	v2, err := ggp.EncodeV2(res.Trace, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	v2s, err := ggp.EncodeV2(res.Trace, nil, Sidecars(res, viewPools[0]))
	if err != nil {
		f.Fatal(err)
	}
	cyclic, err := os.ReadFile(cyclicLegacyArtifact)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{v1.Bytes(), v2} {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}
	f.Add(v2s)
	f.Add(cyclic)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = resealV2(resealV1(data))
		var out [2][]byte
		for i, pool := range viewPools {
			dec, err := ggp.Decode(data, pool, nil)
			if err != nil {
				out[i] = []byte("rejected: " + err.Error())
				continue
			}
			sub := &Subject{Res: AnalyzeDecodedOn(pool, dec, nil, Config{}, nil)}
			for _, row := range acceptedRows {
				v := LookupView(row[0])
				q, _ := url.ParseQuery(row[1])
				p, err := v.Parse(q)
				if err != nil {
					t.Fatalf("%s?%s: %v", row[0], row[1], err)
				}
				b, err := v.Render(sub, p, pool, nil)
				out[i] = fmt.Appendf(append(out[i], b...), "%s: %v\n", row[0], err)
			}
			if i > 0 {
				continue
			}
			e := whatif.New(sub.Res.Graph, sub.Res.Report)
			for _, h := range e.Candidates(sub.Res.Assessment, whatif.RankOptions{}) {
				if _, ok := h.(whatif.CollapseAtDepth); !ok {
					continue
				}
				if got, want := e.Eval(h), e.EvalFull(h); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Eval %+v, EvalFull %+v", h.Label(), got, want)
				}
			}
		}
		requireSame(t, "-j 1 and -j 4 renders", out[0], out[1])
	})
}
