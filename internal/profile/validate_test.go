package profile

import (
	"strings"
	"testing"
)

func validTrace() *Trace {
	return &Trace{
		Program: "t", Cores: 2, Start: 0, End: 100,
		Tasks: []*TaskRecord{
			{ID: RootID, Parent: -1, Fragments: []Fragment{{Start: 0, End: 40}, {Start: 60, End: 100}},
				Boundaries: []Boundary{{Kind: BoundaryLoop, At: 40, Loop: 0}}},
		},
		Loops: []*LoopRecord{{ID: 0, Lo: 0, Hi: 8, Start: 40, End: 60, Threads: []int{0, 1}}},
		Chunks: []*ChunkRecord{
			{Loop: 0, Seq: 0, Lo: 0, Hi: 8, Start: 45, End: 58, Bookkeep: 5},
		},
		Bookkeeps: []*BookkeepRecord{{Loop: 0, Thread: 0, Grabs: 1, Total: 5}},
	}
}

func TestValidateAcceptsWellFormedTrace(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatalf("Validate rejected a well-formed trace: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Trace)
		errPart string
	}{
		{"negative trace span", func(tr *Trace) { tr.Start, tr.End = 10, 5 }, "negative"},
		{"worker time split", func(tr *Trace) { tr.Workers = []WorkerStat{{Busy: tr.Makespan(), Overhead: 1}} }, "exceeds the trace span"},
		{"wrapping worker time split", func(tr *Trace) { tr.Workers = []WorkerStat{{Busy: 2, Overhead: ^Time(0)}} }, "exceeds the trace span"},
		{"backwards fragment", func(tr *Trace) { tr.Tasks[0].Fragments[0] = Fragment{Start: 50, End: 40} }, "runs backwards"},
		{"overlapping fragments", func(tr *Trace) { tr.Tasks[0].Fragments[1].Start = 30 }, "overlap"},
		{"duplicate task", func(tr *Trace) { tr.Tasks = append(tr.Tasks, &TaskRecord{ID: RootID}) }, "duplicate task"},
		{"empty grain ID", func(tr *Trace) { tr.Tasks[0].ID = "" }, "empty grain"},
		{"second parentless task", func(tr *Trace) { tr.Tasks = append(tr.Tasks, &TaskRecord{ID: "R.0", Parent: -1}) }, "before its parent, task -1"},
		{"parent of the first task", func(tr *Trace) { tr.Tasks[0].Parent = 0 }, "before its parent"},
		{"parent recorded later", func(tr *Trace) { tr.Tasks = append(tr.Tasks, &TaskRecord{ID: "R.0", Parent: 1}) }, "before its parent"},
		{"fork of an earlier task", func(tr *Trace) { tr.Tasks[0].Boundaries[0] = Boundary{Kind: BoundaryFork} }, "forks task 0, not a later record"},
		{"joined grain no task carries", func(tr *Trace) {
			tr.Tasks[0].Boundaries[0] = Boundary{Kind: BoundaryJoin, Joined: []int32{7}}
		}, "joins task 7"},
		{"excess boundaries", func(tr *Trace) {
			tr.Tasks[0].Boundaries = append(tr.Tasks[0].Boundaries,
				Boundary{Kind: BoundaryJoin}, Boundary{Kind: BoundaryJoin})
		}, "boundaries"},
		{"backwards chunk", func(tr *Trace) { tr.Chunks[0].Start, tr.Chunks[0].End = 58, 45 }, "runs backwards"},
		{"chunk bookkeep underflow", func(tr *Trace) { tr.Chunks[0].Bookkeep = 500 }, "precedes time zero"},
		{"chunk unknown loop", func(tr *Trace) { tr.Chunks[0].Loop = 9 }, "unknown loop"},
		{"boundary unknown loop", func(tr *Trace) { tr.Tasks[0].Boundaries[0].Loop = 9 }, "unknown loop"},
		{"bookkeep unknown loop", func(tr *Trace) { tr.Bookkeeps[0].Loop = 9 }, "unknown loop"},
		{"duplicate loop", func(tr *Trace) { tr.Loops = append(tr.Loops, &LoopRecord{ID: 0}) }, "duplicate loop"},
		{"negative loop span", func(tr *Trace) { tr.Loops[0].Start, tr.Loops[0].End = 60, 40 }, "negative"},
		{"wrapping core count", func(tr *Trace) { tr.Cores = 1 << 31 }, "core count"},
		{"wrapping fragment core", func(tr *Trace) { tr.Tasks[0].Fragments[1].Core = 1 << 31 }, "fragment 1 core"},
		{"wrapping chunk thread", func(tr *Trace) { tr.Chunks[0].Thread = 1 << 32 }, "chunk 0 thread"},
		{"wrapping bookkeep thread", func(tr *Trace) { tr.Bookkeeps[0].Thread = 1 << 31 }, "book-keeping record 0 thread"},
		{"wrapping loop start thread", func(tr *Trace) { tr.Loops[0].StartThread = 1 << 31 }, "start thread"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := validTrace()
			tc.mutate(tr)
			err := tr.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a trace with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}
}
