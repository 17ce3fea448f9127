package ggp_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/ggp"
	"graingraph/internal/lod"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
	"graingraph/internal/workloads"
)

// midGiant is the giant stress tree at FullDepth 5 (a few thousand grains,
// an artifact of a few megabytes): big enough that the writer's fixed costs
// vanish and every stream buffer flushes mid-section, small enough for every
// test run. It comes with its lod sidecar.
var midGiant = sync.OnceValue(func() (a v2Input) {
	p := workloads.GiantUTSParams()
	p.FullDepth = 5
	a.tr = rts.Run(rts.Config{Program: "giant5", Cores: 8, Seed: 1}, workloads.NewGiant(p).Program())
	a.side = []ggp.Sidecar{{Kind: ggp.SidecarLod, Data: lod.Build(core.Build(a.tr), nil).Encode()}}
	return a
})

// v2Input is what a v2 write takes.
type v2Input struct {
	tr   *profile.Trace
	side []ggp.Sidecar
}

// dirNames lists a directory, to show a write left nothing but its target.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func TestWriteFileV2(t *testing.T) {
	a := midGiant()
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ggp")
	if err := ggp.WriteFileV2(path, a.tr, nil, a.side); err != nil {
		t.Fatalf("ggp.WriteFileV2: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeV2(t, a.tr, a.side); !bytes.Equal(got, want) {
		t.Fatalf("the file holds %d bytes that differ from EncodeV2's %d", len(got), len(want))
	}
	dec, err := ggp.DecodeFile(path, nil, nil)
	if err != nil {
		t.Fatalf("ggp.DecodeFile: %v", err)
	}
	if dec.Version != 2 || dec.SidecarStale || !bytes.Equal(dec.LodSidecar(), a.side[0].Data) {
		t.Errorf("decoded version %d, stale=%v, lod sidecar intact=%v", dec.Version, dec.SidecarStale, bytes.Equal(dec.LodSidecar(), a.side[0].Data))
	}
	sameTrace(t, dec.Trace, a.tr)

	// A second write over the path replaces it whole and leaves no temp file.
	tr := sampleTrace(t)
	if err := ggp.WriteFileV2(path, tr, nil, nil); err != nil {
		t.Fatalf("ggp.WriteFileV2 over an existing file: %v", err)
	}
	if got, err = os.ReadFile(path); err != nil || !bytes.Equal(got, encodeV2(t, tr, nil)) {
		t.Errorf("after the second write the file is not the second artifact (read error %v)", err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only run.ggp", names)
	}
}

// failAfter passes n bytes through and fails the write that would exceed them.
type failAfter struct {
	w io.Writer
	n int
}

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n])
		f.n = 0
		return n, errSink
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// TestWriteFileV2FailingSink fails the stream at every kind of position a
// streaming writer can be in — inside the file header, a section header, a
// column, a section CRC, the trailer — and checks each time that the sink's
// error comes back, that the path keeps what it held (nothing, or the
// previous artifact), and that the temp file is gone.
func TestWriteFileV2FailingSink(t *testing.T) {
	a := midGiant()
	whole := encodeV2(t, a.tr, a.side)

	// Frame the artifact to find those positions; the largest section is
	// the one whose columns outgrow every buffer in the way.
	type frame struct{ header, payload, crc int }
	var frames []frame
	big := 0
	for off := len(ggp.Magic) + 1; off < len(whole); {
		size, n := binary.Uvarint(whole[off+1:])
		f := frame{header: off, payload: off + 1 + n, crc: off + 1 + n + int(size)}
		if len(frames) > 0 && f.crc-f.payload > frames[big].crc-frames[big].payload {
			big = len(frames)
		}
		frames = append(frames, f)
		off = f.crc + 4
	}
	trailer := frames[len(frames)-1]
	if whole[trailer.header] != ggp.SecV2Trailer {
		t.Fatalf("last framed section is 0x%02x, not the trailer", whole[trailer.header])
	}
	cuts := map[string]int{
		"file header":    2,
		"section id":     frames[big].header,
		"section length": frames[big].header + 1,
		"mid-column":     (frames[big].payload + frames[big].crc) / 2,
		"section CRC":    frames[big].crc + 2,
		"trailer":        trailer.payload + 1,
		"last byte":      len(whole) - 1,
	}

	old := []byte("the previous artifact")
	for name, cut := range cuts {
		for _, existing := range []bool{false, true} {
			dir := t.TempDir()
			path := filepath.Join(dir, "run.ggp")
			if existing {
				if err := os.WriteFile(path, old, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := ggp.WriteFileV2Via(path, a.tr, a.side, func(w io.Writer) io.Writer { return &failAfter{w, cut} })
			if !errors.Is(err, errSink) {
				t.Errorf("%s (byte %d): err = %v, want the sink's error", name, cut, err)
			}
			names := dirNames(t, dir)
			if existing {
				if got, _ := os.ReadFile(path); !bytes.Equal(got, old) || len(names) != 1 {
					t.Errorf("%s (byte %d): existing file now holds %q, directory %v", name, cut, got, names)
				}
			} else if len(names) != 0 {
				t.Errorf("%s (byte %d): directory holds %v, want nothing", name, cut, names)
			}
		}
	}

	// The same sink one byte roomier lets the whole artifact through.
	path := filepath.Join(t.TempDir(), "run.ggp")
	if err := ggp.WriteFileV2Via(path, a.tr, a.side, func(w io.Writer) io.Writer { return &failAfter{w, len(whole)} }); err != nil {
		t.Fatalf("sink with room for the artifact: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, whole) {
		t.Error("artifact written through the sink differs from EncodeV2's")
	}
}

// TestWriteV2OversizedColumn pins that a column no payload can hold — a
// string column past the 4 GiB blob limit, here 257 source-file names
// sharing one 16 MiB string — is an error from the size pass, before the
// section is begun, not a panic inside the encoder: upgrades run inside
// server requests.
func TestWriteV2OversizedColumn(t *testing.T) {
	tr := rts.Run(rts.Config{Program: "wide", Cores: 2, Seed: 1}, func(c rts.Ctx) {
		for i := 0; i < 256; i++ {
			c.Spawn(loc(3, "leaf"), func(c rts.Ctx) { c.Compute(10) })
		}
		c.TaskWait()
	})
	file := strings.Repeat("x", 1<<24)
	for _, task := range tr.Tasks {
		task.Loc.File = file
	}
	dir := t.TempDir()
	err := ggp.WriteFileV2(filepath.Join(dir, "run.ggp"), tr, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "4 GiB") {
		t.Errorf("err = %v, want the blob limit", err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Errorf("directory holds %v, want nothing", names)
	}
	if _, err := ggp.EncodeV2(tr, nil, nil); err == nil {
		t.Error("EncodeV2 accepted the oversized column")
	}
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// TestWriteV2AllocBound pins what streaming buys: a write allocates one
// section's gathered columns at a time, the hardware counters as their
// encoded bytes rather than eight bytes per value, plus one encoded column
// of scratch, so the total stays under 1.25 × the bytes written — 1.05 ×
// here, less the larger the share of the file that is ready-made sidecars.
// The buffered writer this replaced allocated 6.4 ×: the output re-grown by
// append, every section re-grown again, each sidecar copied. A helper that
// goes back to growing a buffer by append, or gathering the seven counter
// columns as values (1.38 ×), breaks the bound.
func TestWriteV2AllocBound(t *testing.T) {
	a := midGiant()
	var out countingWriter
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ggp.WriteV2(&out, a.tr, a.side); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(out.n)
	t.Logf("wrote %d bytes, allocated %d (%.2f x)", out.n, alloc, ratio)
	if ratio > 1.25 {
		t.Errorf("writing %d bytes allocated %d, %.2f x the output; the bound is 1.25 x", out.n, alloc, ratio)
	}
}

func BenchmarkEncodeV2(b *testing.B) {
	a := midGiant()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := ggp.EncodeV2(a.tr, nil, a.side)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

func BenchmarkWriteV2Discard(b *testing.B) {
	a := midGiant()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out countingWriter
		if err := ggp.WriteV2(&out, a.tr, a.side); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(out.n)
	}
}
