package ggp_test

import (
	"bytes"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"graingraph/internal/cache"
	"graingraph/internal/ggp"
	"graingraph/internal/profile"
	"graingraph/internal/timeline"
)

// seedTrace is the hand-written trace behind the fuzz corpus and the
// committed golden artifacts (testdata/seed.v2s*.ggp). It does not come from
// the simulator, so the golden bytes move only when the format does, and
// every field holds a value no other field holds, so a decoder that swaps
// two columns of one type cannot reproduce it.
func seedTrace() *profile.Trace {
	ctr := func(k uint64) cache.Counters {
		return cache.Counters{Accesses: 70 + k, L1Miss: 60 + k, L2Miss: 50 + k, L3Miss: 40 + k, Remote: 30 + k, Stall: 20 + k, Compute: 10 + k}
	}
	child := profile.GrainID("R.0")
	return &profile.Trace{
		Program: "fuzz-seed", Cores: 2, Sockets: 1, Scheduler: "work-stealing", Flavor: "MIR",
		PagePolicy: "first-touch", Start: 3, End: 103,
		Tasks: []*profile.TaskRecord{
			{ID: profile.RootID, Parent: -1, Loc: profile.SrcLoc{File: "main.c", Line: 10, Func: "main"},
				CreateTime: 1, CreateCost: 2, StartTime: 3, EndTime: 103,
				Fragments: []profile.Fragment{
					{Start: 3, End: 12, Core: 0, Counters: ctr(1)}, {Start: 14, End: 30, Core: 1, Counters: ctr(2)},
					{Start: 41, End: 43, Core: 0, Counters: ctr(3)}, {Start: 62, End: 103, Core: 1, Counters: ctr(4)}},
				Boundaries: []profile.Boundary{
					{Kind: profile.BoundaryFork, At: 12, Child: 1},
					{Kind: profile.BoundaryJoin, At: 30, Joined: []int32{1}, Wait: 4, Suspended: 11},
					{Kind: profile.BoundaryLoop, At: 43, Loop: 5}}},
			{ID: child, Parent: 0, Loc: profile.SrcLoc{File: "work.c", Line: 77, Func: "leaf"},
				Depth: 1, CreateTime: 12, CreateCost: 6, CreatedBy: 1, StartTime: 15, EndTime: 29, Inlined: true,
				Fragments: []profile.Fragment{{Start: 15, End: 29, Core: 1, Counters: ctr(5)}}},
		},
		Loops: []*profile.LoopRecord{{ID: 5, Loc: profile.SrcLoc{File: "loop.c", Line: 21, Func: "sweep"},
			Schedule: profile.ScheduleDynamic, ChunkSize: 4, Lo: -2, Hi: 8, Start: 43, End: 61,
			StartThread: 1, Threads: []int{1, 0}}},
		Chunks: []*profile.ChunkRecord{
			{Loop: 5, Seq: 0, Thread: 1, Lo: -2, Hi: 2, Start: 45, End: 52, Bookkeep: 2, Counters: ctr(6)},
			{Loop: 5, Seq: 1, Thread: 0, Lo: 2, Hi: 6, Start: 46, End: 58, Bookkeep: 3, Counters: ctr(7)},
			{Loop: 5, Seq: 2, Thread: 1, Lo: 6, Hi: 8, Start: 53, End: 60, Bookkeep: 1, Counters: ctr(8)}},
		Bookkeeps: []*profile.BookkeepRecord{{Loop: 5, Thread: 1, Grabs: 2, Total: 3}, {Loop: 5, Thread: 0, Grabs: 1, Total: 3}},
		Workers:   []profile.WorkerStat{{Busy: 90, Overhead: 10}, {Busy: 13, Overhead: 7}},
	}
}

// hostileTraces are seedTrace with its references bent: the artifacts a
// buggy or malicious producer could write that are well-formed section by
// section. All must be rejected. Dangling's Parent, Child and Joined
// references name tasks no record carries: they are numbers past the
// trace's tasks, which encodeBoth names. A self-parent and a two-task Parent cycle break the rule that every task
// is recorded after its parent.
func hostileTraces() (dangling, selfParent, cycle *profile.Trace) {
	dangling = seedTrace()
	root, child := dangling.Tasks[0], dangling.Tasks[1]
	child.Parent = 3 // "R.9": no such task
	root.Boundaries[0].Child = 4
	root.Boundaries[1].Joined = []int32{5, 1}
	dangling.Tasks = append(dangling.Tasks, &profile.TaskRecord{
		ID: "R.9.1", Parent: 3, Depth: 2, StartTime: 70, EndTime: 80,
		Fragments: []profile.Fragment{{Start: 70, End: 80, Core: 1}},
	})

	selfParent = seedTrace()
	selfParent.Tasks[1].Parent = 1

	cycle = seedTrace()
	cycle.Tasks[1].Parent = 2
	cycle.Tasks = append(cycle.Tasks, &profile.TaskRecord{
		ID: "R.1", Parent: 1, Depth: 1, StartTime: 70, EndTime: 80,
		Fragments: []profile.Fragment{{Start: 70, End: 80, Core: 1}},
	})
	return dangling, selfParent, cycle
}

// unrecorded names the tasks a hostile trace references past its records.
var unrecorded = []profile.GrainID{"R.9", "R.7", "R.8"}

// splitTraces are seedTrace with a worker whose busy plus overhead time
// exceeds the trace span, which would make its idle time negative: once
// by one cycle, once by an overhead that wraps the uint64 sum to a small
// number. Both must be rejected.
func splitTraces() (over, wrap *profile.Trace) {
	over = seedTrace()
	over.Workers[0].Overhead++
	wrap = seedTrace()
	wrap.Workers[1].Overhead = math.MaxUint64 - 5
	return over, wrap
}

// workerTraces are seedTrace with worker ids that name no worker in each
// of Fragment.Core, CreatedBy and Chunk.Thread — negative, one past the
// last worker, and the int32 extremes — plus a trace that records no
// worker at all. The spawned task is not inlined, so its creator also
// pushes it and its first core steals or pops it. Validate bounds none of
// these ids, so all of them decode, and the stats report
// (profile.Trace.WorkerCounts) must neither index nor size its per-worker
// table by them.
func workerTraces() (negative, past, giant, none *profile.Trace) {
	negative = seedTrace()
	negative.Tasks[1].Inlined = false
	negative.Tasks[0].Fragments[1].Core = -1
	negative.Tasks[1].CreatedBy = -3
	negative.Chunks[0].Thread = -2

	past = seedTrace()
	past.Tasks[1].Inlined = false
	past.Tasks[1].CreatedBy = 2
	past.Tasks[1].Fragments[0].Core = 2
	past.Chunks[2].Thread = 2

	giant = seedTrace()
	giant.Tasks[1].Inlined = false
	giant.Tasks[0].Fragments[3].Core = math.MaxInt32
	giant.Tasks[1].CreatedBy = math.MinInt32
	giant.Chunks[1].Thread = math.MaxInt32

	none = seedTrace()
	none.Workers = nil
	return negative, past, giant, none
}

// encodeBoth writes tr as a v1 stream and as a v2 artifact, naming a
// reference to task len(tr.Tasks)+i unrecorded[i].
func encodeBoth(t testing.TB, tr *profile.Trace) (v1, v2 []byte) {
	t.Helper()
	var ids []profile.GrainID
	for _, task := range tr.Tasks {
		ids = append(ids, task.ID)
	}
	v1, v2, err := ggp.EncodeNaming(tr, append(ids, unrecorded...))
	if err != nil {
		t.Fatal(err)
	}
	return v1, v2
}

// TestHostileReferences pins what the reader does with each hostile seed,
// in both formats. Every accepted one renders its stats report (grainview
// -stats) without a panic, to the bytes the trace renders before encoding.
func TestHostileReferences(t *testing.T) {
	dangling, selfParent, cycle := hostileTraces()
	over, wrap := splitTraces()
	negative, past, giant, none := workerTraces()
	for _, tc := range []struct {
		name   string
		tr     *profile.Trace
		reject string
	}{
		{"dangling", dangling, `task "R": child "R.7" names no recorded task`},
		{"self-parent", selfParent, "before its parent"},
		{"parent cycle", cycle, "before its parent"},
		{"worker time split", over, "exceeds the trace span"},
		{"worker time split wrapping", wrap, "exceeds the trace span"},
		{"negative worker ids", negative, ""},
		{"worker ids past the last worker", past, ""},
		{"int32-extreme worker ids", giant, ""},
		{"no workers", none, ""},
	} {
		var want bytes.Buffer
		if tc.reject == "" {
			if err := timeline.StatsFromTrace(tc.tr).Render(&want); err != nil {
				t.Fatal(err)
			}
		}
		v1, v2 := encodeBoth(t, tc.tr)
		for version, data := range map[string][]byte{"v1": v1, "v2": v2} {
			dec, err := ggp.Decode(data, nil, nil)
			switch {
			case tc.reject == "" && err != nil:
				t.Errorf("%s %s: rejected: %v", tc.name, version, err)
			case tc.reject != "" && (err == nil || !strings.Contains(err.Error(), tc.reject)):
				t.Errorf("%s %s: err = %v, want one mentioning %q", tc.name, version, err, tc.reject)
			case tc.reject == "":
				var got bytes.Buffer
				if err := timeline.StatsFromTrace(dec.Trace).Render(&got); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s %s: stats report (err %v):\n%s\nwant:\n%s", tc.name, version, err, got.Bytes(), want.Bytes())
				}
				if got, want := dec.Trace.WorkerCounts(), tc.tr.WorkerCounts(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s: worker counts %+v, want %+v", tc.name, version, got, want)
				}
			}
		}
	}
}

// TestDanglingReferencesRejected: decode is the gate for the references
// between task records. A reference that names no recorded task, a second
// task without a parent, and a task recorded before the task that spawned
// it are each a decode error, from both formats, that names the task.
func TestDanglingReferencesRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		bend func(tr *profile.Trace)
		want string
	}{
		{"dangling parent", func(tr *profile.Trace) { tr.Tasks[1].Parent = 2 }, `task "R.0": parent "R.9" names no recorded task`},
		{"dangling fork child", func(tr *profile.Trace) { tr.Tasks[0].Boundaries[0].Child = 2 }, `task "R": child "R.9" names no recorded task`},
		{"dangling joined grain", func(tr *profile.Trace) { tr.Tasks[0].Boundaries[1].Joined = []int32{1, 2} }, `task "R": joined grain "R.9" names no recorded task`},
		{"second parentless task", func(tr *profile.Trace) { tr.Tasks[1].Parent = -1 }, `task "R.0" is recorded before its parent, task -1`},
		{"child recorded before its spawner", func(tr *profile.Trace) {
			tr.Tasks[1].Parent = 2
			tr.Tasks = append(tr.Tasks, &profile.TaskRecord{ID: "R.1", Parent: 0, Depth: 1, StartTime: 70, EndTime: 80,
				Fragments: []profile.Fragment{{Start: 70, End: 80, Core: 1}}})
		}, `task "R.0" is recorded before its parent, task 2`},
	} {
		tr := seedTrace()
		tc.bend(tr)
		v1, v2 := encodeBoth(t, tr)
		for version, data := range map[string][]byte{"v1": v1, "v2": v2} {
			if _, err := ggp.Decode(data, nil, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s %s: err = %v, want one containing %q", tc.name, version, err, tc.want)
			}
		}
	}
}

// FuzzGGPReader throws arbitrary bytes at the artifact readers. The
// invariant is purely defensive: ggp.Decode, over v1 and columnar v2, must
// return a result or an error, never panic or OOM, for any input. The seed corpus covers the interesting corruption classes —
// valid artifacts of both versions, truncations (including mid-column),
// a flipped version byte, a v2 header on a v1 body, corrupted section and
// sidecar checksums, oversized section lengths, and older artifacts: one
// with stored graph and level-index sections, one whose stored graph
// closes a cycle.
func FuzzGGPReader(f *testing.F) {
	tr := seedTrace()
	var buf bytes.Buffer
	if err := ggp.WriteTrace(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)/2])   // truncated mid-stream
	f.Add(valid[:len(ggp.Magic)]) // header cut before version
	f.Add([]byte{})               // empty input
	f.Add([]byte("GGPX\x01"))     // wrong magic
	flipped := bytes.Clone(valid)
	flipped[len(ggp.Magic)] = 0xEE // future version
	f.Add(flipped)
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-2] ^= 0xFF // corrupted trailer checksum
	f.Add(badCRC)
	oversized := append(bytes.Clone(valid[:len(ggp.Magic)+1]), ggp.SecTask,
		0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // section claims ~34 GB
	f.Add(oversized)
	zeroLen := append(bytes.Clone(valid[:len(ggp.Magic)+1]), ggp.SecTrailer, 0x00)
	f.Add(zeroLen) // trailer with empty payload

	// v2 seeds: a valid columnar artifact with sidecars, a mid-column
	// truncation, a sidecar with a flipped payload byte (checksum
	// mismatch), and a v2 version byte on a v1 event-stream body.
	v2, err := ggp.EncodeV2(tr, nil, []ggp.Sidecar{
		{Kind: ggp.SidecarLod, Data: []byte("fuzz-lod-sidecar")},
		{Kind: ggp.SidecarQuery, Data: []byte("fuzz-query-sidecar")},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(v2[:2*len(v2)/3]) // truncated mid-column
	sideFlip := bytes.Clone(v2)
	sideFlip[bytes.LastIndex(sideFlip, []byte("fuzz-lod-sidecar"))] ^= 0xFF
	f.Add(sideFlip) // CRC-flipped sidecar
	v2HdrV1Body := bytes.Clone(valid)
	v2HdrV1Body[len(ggp.Magic)] = 2 // v2 header, v1 body
	f.Add(v2HdrV1Body)

	// Hostile references, both formats: dangling ones, a self-parent and a
	// Parent cycle are rejected (see hostileTraces), and so are worker time
	// splits that overrun the span (see splitTraces); worker ids that name
	// no worker decode (see workerTraces).
	dangling, selfParent, cycle := hostileTraces()
	over, wrap := splitTraces()
	negative, past, giant, none := workerTraces()
	for _, tr := range []*profile.Trace{dangling, selfParent, cycle, over, wrap, negative, past, giant, none} {
		v1, v2 := encodeBoth(f, tr)
		f.Add(v1)
		f.Add(v2)
	}
	// Artifacts as older writers left them: with graph sections and a
	// level-index sidecar, and with valid checksums over graph edges that
	// close a cycle.
	for _, name := range []string{"seed.v2s.ggp", "seed.v2-cyclic.ggp"} {
		old, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, derr := ggp.Decode(data, nil, nil)
		if derr == nil && (dec == nil || dec.Trace == nil) {
			t.Fatal("ggp.Decode returned no result and no error")
		}
		if derr == nil {
			// An accepted artifact must satisfy the profile invariants —
			// that is what the validation wiring guarantees.
			if verr := dec.Trace.Validate(); verr != nil {
				t.Fatalf("ggp.Decode accepted an invalid trace: %v", verr)
			}
			// What grainview -stats does with an accepted artifact.
			if err := timeline.StatsFromTrace(dec.Trace).Render(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	})
}
