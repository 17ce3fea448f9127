package ggp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"graingraph/internal/cache"
	"graingraph/internal/colenc"
	"graingraph/internal/profile"
)

// wideTasks is the v2 tasks section with its depth and creating-worker
// columns read at full int width, so a test can store values a task record
// cannot hold.
type wideTasks struct {
	v2Tasks
	depth, createdBy []int
}

func (t *wideTasks) schema() []colenc.Col {
	return []colenc.Col{
		colenc.SameRows(
			colenc.Strs(&t.ids),
			colenc.Strs(&t.parents),
			colenc.Strs(&t.locFile),
			colenc.Ivar(&t.locLine),
			colenc.Strs(&t.locFunc),
			colenc.Ivar(&t.depth),
			colenc.U64(&t.createTime),
			colenc.U64(&t.createCost),
			colenc.Ivar(&t.createdBy),
			colenc.U64(&t.startTime),
			colenc.U64(&t.endTime),
			colenc.Bool(&t.inlined),
		),
		colenc.SameRows(colenc.U32(&t.fragOff), colenc.U32(&t.boundOff)),
	}
}

// oneTask is a valid one-task trace.
func oneTask() *profile.Trace {
	return &profile.Trace{
		Program: "wide", Cores: 1, Sockets: 1, Scheduler: "work-stealing", Flavor: "MIR", End: 10,
		Tasks: []*profile.TaskRecord{{ID: profile.RootID, Parent: -1, Loc: profile.Loc("w.c", 1, "main"),
			EndTime: 10, Fragments: []profile.Fragment{{End: 10}}}},
		Workers: []profile.WorkerStat{{Busy: 10}},
	}
}

// v1OneTask is oneTask as a v1 artifact whose task stores depth and
// createdBy.
func v1OneTask(t *testing.T, depth, createdBy int) []byte {
	t.Helper()
	tr := oneTask()
	var b bytes.Buffer
	w, err := NewWriter(&b)
	if err != nil {
		t.Fatal(err)
	}
	w.Meta(tr)
	w.buf = w.buf[:0]
	task := tr.Tasks[0]
	w.str(string(task.ID))
	w.str("")
	w.loc(task.Loc)
	w.i(depth)
	w.u(task.CreateTime)
	w.u(task.CreateCost)
	w.i(createdBy)
	w.u(task.StartTime)
	w.u(task.EndTime)
	w.buf = append(w.buf, 0) // not inlined
	w.u(1)                   // one fragment
	w.u(0)
	w.u(10)
	w.i(0)
	w.counters(cache.Counters{})
	w.u(0) // no boundaries
	w.section(secTask)
	w.Workers(tr.Workers)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// v2OneTask is oneTask as a v2 artifact whose tasks section stores depth
// and createdBy: the section is re-encoded and the artifact re-framed with
// the section CRC and content key that payload has.
func v2OneTask(t *testing.T, depth, createdBy int) []byte {
	t.Helper()
	tr := oneTask()
	var b bytes.Buffer
	if err := writeV2(&b, tr, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	secs, _, err := walkV2(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	wide := &wideTasks{v2Tasks: *gatherTasks(tr.Tasks, tr.Numbering().IDs), depth: []int{depth}, createdBy: []int{createdBy}}
	out := append([]byte(Magic), Version2)
	var crcs []byte
	n := 0
	for _, s := range secs {
		if s.id == secV2Trailer {
			continue
		}
		p := s.payload
		if s.id == secV2Tasks {
			p = colenc.Append(nil, wide.schema()...)
		}
		crc := crc32.Checksum(p, castagnoli)
		crcs = binary.LittleEndian.AppendUint32(crcs, crc)
		out = binary.AppendUvarint(append(out, s.id), uint64(len(p)))
		out = binary.LittleEndian.AppendUint32(append(out, p...), crc)
		n++
	}
	trailer := binary.AppendUvarint(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(crcs, castagnoli)), uint64(n))
	out = binary.AppendUvarint(append(out, secV2Trailer), uint64(len(trailer)))
	return binary.LittleEndian.AppendUint32(append(out, trailer...), crc32.Checksum(trailer, castagnoli))
}

// TestDecodeRejectsWideTaskFields: a task record holds its depth and
// creating worker as int32, so a v1 or v2 artifact that stores a wider
// value fails to decode instead of wrapping; in range, the same artifacts
// decode to those values.
func TestDecodeRejectsWideTaskFields(t *testing.T) {
	for _, tc := range []struct {
		name             string
		depth, createdBy int
		field            string // the v1 error names it; "" decodes
	}{
		{"in range", -1 << 31, 1<<31 - 1, ""},
		{"wide depth", 1 << 31, 0, "depth 2147483648"},
		{"wide creating worker", 0, -1<<31 - 1, "creating worker -2147483649"},
	} {
		for format, data := range map[string][]byte{
			"v1": v1OneTask(t, tc.depth, tc.createdBy),
			"v2": v2OneTask(t, tc.depth, tc.createdBy),
		} {
			dec, err := Decode(data, nil, nil)
			switch {
			case tc.field == "" && err != nil:
				t.Errorf("%s %s: %v", tc.name, format, err)
			case tc.field == "":
				if task := dec.Trace.Tasks[0]; int(task.Depth) != tc.depth || int(task.CreatedBy) != tc.createdBy {
					t.Errorf("%s %s: decoded depth %d, creating worker %d", tc.name, format, task.Depth, task.CreatedBy)
				}
			case err == nil:
				t.Errorf("%s %s: decoded", tc.name, format)
			case format == "v1" && !strings.Contains(err.Error(), tc.field+" is outside int32"):
				t.Errorf("%s v1: error %q does not name the %s", tc.name, err, tc.field)
			case format == "v2" && !errors.Is(err, colenc.ErrCorrupt):
				t.Errorf("%s v2: error %q is not a corrupt column", tc.name, err)
			}
		}
	}
}
