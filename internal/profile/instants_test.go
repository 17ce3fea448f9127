package profile

import (
	"reflect"
	"testing"
)

func frag(start, end Time, core int) Fragment {
	return Fragment{Start: start, End: end, Core: core}
}

// instantsTrace is a hand-built work-stealing run on two workers: the root
// forks R.0 (stolen by worker 1) and R.1 (inlined), then joins both,
// suspending for 40 cycles. R.0's join did not suspend (zero Suspended),
// so it is no park.
func instantsTrace() *Trace {
	return &Trace{
		Program: "instants", Cores: 2, Scheduler: SchedulerWorkStealing, End: 200,
		Tasks: []*TaskRecord{
			{ID: RootID, Parent: -1, StartTime: 0, EndTime: 200,
				Fragments: []Fragment{frag(0, 10, 0), frag(20, 30, 0), frag(30, 40, 0), frag(80, 200, 0)},
				Boundaries: []Boundary{
					{Kind: BoundaryFork, At: 10, Child: 1},
					{Kind: BoundaryFork, At: 20, Child: 2},
					{Kind: BoundaryJoin, At: 40, Joined: []int32{1, 2}, Suspended: 40},
				}},
			{ID: "R.0", Parent: 0, CreatedBy: 0, StartTime: 15, EndTime: 70,
				Fragments:  []Fragment{frag(15, 50, 1), frag(60, 70, 1)},
				Boundaries: []Boundary{{Kind: BoundaryJoin, At: 50, Wait: 10}}},
			{ID: "R.1", Parent: 0, CreatedBy: 0, StartTime: 12, EndTime: 18, Inlined: true,
				Fragments: []Fragment{frag(12, 18, 0)}},
		},
	}
}

func TestSchedInstants(t *testing.T) {
	tr := instantsTrace()
	want := []SchedInstant{
		{Kind: SchedSteal, At: 15, Worker: 1, Victim: 0, Grain: 1},
		{Kind: SchedResume, At: 30, Worker: 0, Victim: -1, Grain: 0}, // after the inlined fork
		{Kind: SchedPark, At: 40, Worker: 0, Victim: -1, Grain: 0},
		{Kind: SchedResume, At: 80, Worker: 0, Victim: -1, Grain: 0},
	}
	if got := tr.SchedInstants(); !reflect.DeepEqual(got, want) {
		t.Errorf("instants:\n got %+v\nwant %+v", got, want)
	}

	// A central-queue run hands tasks out without stealing.
	tr = instantsTrace()
	tr.Scheduler = "central-queue"
	for _, in := range tr.SchedInstants() {
		if in.Kind == SchedSteal {
			t.Errorf("central-queue run derived a steal: %+v", in)
		}
	}

	// Ties order by worker, then kind, then grain.
	tr = instantsTrace()
	tr.Tasks[1].StartTime = 40
	got := tr.SchedInstants()
	if got[1].Kind != SchedPark || got[2].Kind != SchedSteal || got[2].At != 40 {
		t.Errorf("tie at 40: got %+v, want the worker-0 park before the worker-1 steal", got)
	}

	// A fork of a child that was not inlined is no resume.
	tr = instantsTrace()
	tr.Tasks[2].Inlined = false
	for _, in := range tr.SchedInstants() {
		if in.Kind == SchedResume && in.At == 30 {
			t.Errorf("a deferred fork child derived a resume: %+v", in)
		}
	}
}

func TestSchedKindStrings(t *testing.T) {
	for k, want := range map[SchedKind]string{SchedSteal: "steal", SchedPark: "park", SchedResume: "resume", 9: "unknown"} {
		if got := k.String(); got != want {
			t.Errorf("SchedKind(%d) = %q, want %q", k, got, want)
		}
	}
}

func TestWorkerCounts(t *testing.T) {
	counts := func(sched string, edit func(*Trace)) []WorkerCounts {
		tr := instantsTrace()
		tr.Scheduler = sched
		tr.Workers = make([]WorkerStat, 2)
		if edit != nil {
			edit(tr)
		}
		return tr.WorkerCounts()
	}
	for _, tc := range []struct {
		name  string
		sched string
		edit  func(*Trace)
		want  []WorkerCounts
	}{
		{"work-stealing", SchedulerWorkStealing, nil, []WorkerCounts{
			{Spawns: 2, Inlined: 1, Pushes: 1, Parks: 1, Resumes: 2},
			{Steals: 1}}},
		{"popped by its creator", SchedulerWorkStealing, func(tr *Trace) { tr.Tasks[1].CreatedBy = 1 }, []WorkerCounts{
			{Spawns: 1, Inlined: 1, Parks: 1, Resumes: 2},
			{Spawns: 1, Pushes: 1, Pops: 1}}},
		{"central-queue", SchedulerCentralQueue, nil, []WorkerCounts{
			{Spawns: 2, Inlined: 1, QueueOps: 1, Parks: 1, Resumes: 2},
			{QueueOps: 1}}},
		{"other scheduler", "work-stealing(native)", nil, []WorkerCounts{
			{Spawns: 2, Inlined: 1, Parks: 1, Resumes: 2},
			{}}},
		// Worker ids outside the table count for nobody.
		{"creator past the last worker", SchedulerWorkStealing, func(tr *Trace) { tr.Tasks[1].CreatedBy = 2 }, []WorkerCounts{
			{Spawns: 1, Inlined: 1, Parks: 1, Resumes: 2},
			{Steals: 1}}},
		{"negative thief", SchedulerWorkStealing, func(tr *Trace) {
			for i := range tr.Tasks[1].Fragments {
				tr.Tasks[1].Fragments[i].Core = -1
			}
		}, []WorkerCounts{
			{Spawns: 2, Inlined: 1, Pushes: 1, Parks: 1, Resumes: 2},
			{}}},
		{"no workers", SchedulerWorkStealing, func(tr *Trace) { tr.Workers = nil }, []WorkerCounts{}},
	} {
		if got := counts(tc.sched, tc.edit); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}
