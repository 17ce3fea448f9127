package ggp_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/ggp"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

func loc(line int, fn string) profile.SrcLoc { return profile.Loc("test.go", line, fn) }

// sampleTrace simulates a program exercising every record kind: nested
// tasks, a dynamic parallel loop (chunks + book-keeping), counters.
func sampleTrace(t *testing.T) *profile.Trace {
	t.Helper()
	return rts.Run(rts.Config{Program: "ggp-sample", Cores: 4, Seed: 11}, func(c rts.Ctx) {
		c.Compute(500)
		c.Spawn(loc(5, "child"), func(c rts.Ctx) {
			c.Compute(900)
			c.Spawn(loc(6, "leaf"), func(c rts.Ctx) { c.Compute(300) })
			c.TaskWait()
		})
		c.TaskWait()
		c.For(loc(9, "loop"), 0, 32,
			rts.ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 8},
			func(c rts.Ctx, lo, hi int) { c.Compute(uint64(hi-lo) * 100) })
		c.Compute(200)
	})
}

func encode(t *testing.T, tr *profile.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ggp.WriteTrace(&buf, tr); err != nil {
		t.Fatalf("ggp.WriteTrace: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTripPreservesRecords(t *testing.T) {
	tr := sampleTrace(t)
	dec, err := ggp.Decode(encode(t, tr), nil, nil)
	if err != nil {
		t.Fatalf("ggp.Decode: %v", err)
	}
	got := dec.Trace

	if got.Program != tr.Program || got.Cores != tr.Cores || got.Sockets != tr.Sockets ||
		got.Scheduler != tr.Scheduler || got.Flavor != tr.Flavor ||
		got.PagePolicy != tr.PagePolicy || got.Start != tr.Start || got.End != tr.End {
		t.Errorf("meta mismatch: got %+v", got)
	}
	if len(got.Tasks) != len(tr.Tasks) {
		t.Fatalf("tasks: %d, want %d", len(got.Tasks), len(tr.Tasks))
	}
	for i := range tr.Tasks {
		if !reflect.DeepEqual(got.Tasks[i], tr.Tasks[i]) {
			t.Errorf("task %d differs:\n got %+v\nwant %+v", i, got.Tasks[i], tr.Tasks[i])
		}
	}
	if !reflect.DeepEqual(got.Loops, tr.Loops) {
		t.Errorf("loops differ: got %+v want %+v", got.Loops, tr.Loops)
	}
	if !reflect.DeepEqual(got.Chunks, tr.Chunks) {
		t.Errorf("chunks differ")
	}
	if !reflect.DeepEqual(got.Bookkeeps, tr.Bookkeeps) {
		t.Errorf("bookkeeps differ")
	}
	if !reflect.DeepEqual(got.Workers, tr.Workers) {
		t.Errorf("workers differ: got %+v want %+v", got.Workers, tr.Workers)
	}
}

// TestRoundTripGraphIdentical: the read-back trace must build a grain graph
// with identical node/edge columns — the property record/analyze relies on.
func TestRoundTripGraphIdentical(t *testing.T) {
	tr := sampleTrace(t)
	dec, err := ggp.Decode(encode(t, tr), nil, nil)
	if err != nil {
		t.Fatalf("ggp.Decode: %v", err)
	}
	g, rg := core.Build(tr), core.Build(dec.Trace)
	if g.NumNodes() != rg.NumNodes() || g.NumEdges() != rg.NumEdges() {
		t.Fatalf("graph shapes differ: %d/%d nodes, %d/%d edges",
			g.NumNodes(), rg.NumNodes(), g.NumEdges(), rg.NumEdges())
	}
	for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
		if !reflect.DeepEqual(g.NodeAt(n), rg.NodeAt(n)) {
			t.Fatalf("node %d differs:\n live %+v\nreplay %+v", n, g.NodeAt(n), rg.NodeAt(n))
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.EdgeAt(i) != rg.EdgeAt(i) {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestWriteFileReadFile(t *testing.T) {
	tr := sampleTrace(t)
	path := filepath.Join(t.TempDir(), "run.ggp")
	if err := ggp.WriteFile(path, tr); err != nil {
		t.Fatalf("ggp.WriteFile: %v", err)
	}
	dec, err := ggp.DecodeFile(path, nil, nil)
	if err != nil {
		t.Fatalf("ggp.DecodeFile: %v", err)
	}
	if got := dec.Trace; got.Program != tr.Program || len(got.Tasks) != len(tr.Tasks) {
		t.Errorf("file round trip lost records")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	tr := sampleTrace(t)
	a, b := encode(t, tr), encode(t, tr)
	if !bytes.Equal(a, b) {
		t.Error("encoding the same trace twice produced different bytes")
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	raw := encode(t, sampleTrace(t))
	raw[0] = 'X'
	if _, err := ggp.Decode(raw, nil, nil); !errors.Is(err, ggp.ErrMagic) {
		t.Errorf("bad magic: err = %v, want ggp.ErrMagic", err)
	}
}

func TestReaderRejectsFutureVersion(t *testing.T) {
	raw := encode(t, sampleTrace(t))
	raw[len(ggp.Magic)] = ggp.Version2 + 1
	if _, err := ggp.Decode(raw, nil, nil); !errors.Is(err, ggp.ErrVersion) {
		t.Errorf("future version: err = %v, want ggp.ErrVersion", err)
	}
}

func TestReaderRejectsCorruptedPayload(t *testing.T) {
	raw := encode(t, sampleTrace(t))
	// Flip a byte in the middle of the record stream: either a record
	// decodes differently (CRC catches it) or framing breaks (decode error).
	raw[len(raw)/2] ^= 0x55
	if _, err := ggp.Decode(raw, nil, nil); err == nil {
		t.Error("corrupted payload accepted")
	}
}

func TestReaderRejectsCorruptedCRC(t *testing.T) {
	raw := encode(t, sampleTrace(t))
	raw[len(raw)-1] ^= 0xFF // last trailer byte
	if _, err := ggp.Decode(raw, nil, nil); !errors.Is(err, ggp.ErrCRC) {
		t.Errorf("corrupted CRC: err = %v, want ggp.ErrCRC", err)
	}
}

func TestReaderRejectsTruncation(t *testing.T) {
	raw := encode(t, sampleTrace(t))
	for _, cut := range []int{0, 3, len(ggp.Magic), len(ggp.Magic) + 1, len(raw) / 3, len(raw) - 1} {
		if _, err := ggp.Decode(raw[:cut], nil, nil); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestReaderSkipsUnknownSections(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	gw, err := ggp.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Meta(tr); err != nil {
		t.Fatal(err)
	}
	// Splice in an unknown (future) section before the records.
	if err := gw.RawSection(0x42, []byte("future payload")); err != nil {
		t.Fatal(err)
	}
	for _, task := range tr.Tasks {
		if err := gw.Task(task); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range tr.Loops {
		if err := gw.Loop(l); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range tr.Chunks {
		if err := gw.Chunk(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range tr.Bookkeeps {
		if err := gw.Bookkeep(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Workers(tr.Workers); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := ggp.Decode(buf.Bytes(), nil, nil)
	if err != nil {
		t.Fatalf("reader choked on unknown section: %v", err)
	}
	if len(dec.Trace.Tasks) != len(tr.Tasks) {
		t.Errorf("records lost around unknown section")
	}
}

func TestReaderRejectsOversizedSectionLength(t *testing.T) {
	var buf bytes.Buffer
	gw, err := ggp.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = gw // header only
	raw := buf.Bytes()
	// Claim a section far beyond ggp.MaxSection.
	raw = append(raw, ggp.SecTask)
	raw = appendUvarint(raw, uint64(ggp.MaxSection)+1)
	if _, err := ggp.Decode(raw, nil, nil); err == nil {
		t.Error("oversized section length accepted")
	}
}

func TestReaderValidatesTraceContent(t *testing.T) {
	// A structurally well-formed artifact whose trace violates profile
	// invariants (backwards fragment) must be rejected by the wired-in
	// trace validation.
	tr := &profile.Trace{
		Program: "bad", Cores: 1, Start: 0, End: 10,
		Tasks: []*profile.TaskRecord{
			{ID: profile.RootID, Fragments: []profile.Fragment{{Start: 9, End: 2}}},
		},
	}
	var buf bytes.Buffer
	if err := ggp.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := ggp.Decode(buf.Bytes(), nil, nil); err == nil {
		t.Error("reader accepted a trace with backwards fragments")
	}
}

// TestDecodeRejectsWrappingCore pins that a v1 artifact whose fragment
// core does not fit in an int32 — the width of the graph's core column
// and of the v2 format — is refused at decode, naming the field.
func TestDecodeRejectsWrappingCore(t *testing.T) {
	tr := sampleTrace(t)
	tr.Tasks[0].Fragments[0].Core = 1 << 31
	_, err := ggp.Decode(encode(t, tr), nil, nil)
	if err == nil {
		t.Fatal("Decode accepted a fragment core of 1<<31")
	}
	if !strings.Contains(err.Error(), "fragment 0 core 2147483648") {
		t.Errorf("error %q does not name the fragment core", err)
	}
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
