// Package profile defines the grain-level performance records produced by
// the simulated runtime (or read back from an artifact) and consumed by the
// grain-graph builder and the metric derivations.
//
// The record set mirrors what the paper's MIR profiler captures at
// OMPT-like events: per-task fragments delimited by fork and join points,
// per-chunk execution records for parallel for-loops, book-keeping costs,
// timestamps, executing cores, and hardware-counter readings (here produced
// by the simulated cache hierarchy).
package profile

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"graingraph/internal/cache"
)

// Time is virtual time in simulated cycles. All records in one Trace use
// the same clock.
type Time = uint64

// SrcLoc identifies the source definition of a task or loop, in the style
// the paper uses to label grains ("sparselu.c:246(bmod)").
type SrcLoc struct {
	File string
	Line int
	Func string
}

// String renders the location like the paper: file:line(func).
//
// Exporters call this once per node per figure, so it is built with a
// sized append chain rather than fmt — Sprintf's interface boxing showed
// up in rendering profiles.
func (l SrcLoc) String() string {
	return string(l.Append(make([]byte, 0, len(l.File)+len(l.Func)+8)))
}

// Append appends the location as String renders it.
func (l SrcLoc) Append(b []byte) []byte {
	b = append(b, l.File...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(l.Line), 10)
	if l.Func != "" {
		b = append(b, '(')
		b = append(b, l.Func...)
		b = append(b, ')')
	}
	return b
}

// Loc is a convenience constructor for SrcLoc.
func Loc(file string, line int, fn string) SrcLoc { return SrcLoc{File: file, Line: line, Func: fn} }

// GrainID identifies a grain independent of scheduling.
//
// Task grains use path enumeration on the spawn tree ("R", "R.0", "R.0.3"):
// the i-th task spawned by a parent, counted in program order, appends ".i".
// For a deterministic program this is identical across machine sizes and
// schedules, which is what makes work deviation computable.
//
// Chunk grains are identified, per the paper, by the thread that started the
// loop, a per-loop sequence counter and the iteration range:
// "L<loop>@t<thread>#<seq>[lo,hi)".
type GrainID string

// RootID is the grain ID of the master (initial) task.
const RootID GrainID = "R"

// IDArena mints task IDs for a runtime. Every spawn mints one and the
// trace keeps them all, so the arena cuts them from shared chunks of
// string, which grow from idChunkMin to idChunkMax bytes, rather than
// allocating each. The zero value is ready to use; one goroutine at a time
// may use it.
type IDArena struct {
	b strings.Builder
}

const (
	idChunkMin = 512
	idChunkMax = 64 << 10
)

// Child returns the path-enumeration ID of the index-th child of parent.
func (a *IDArena) Child(parent GrainID, index int) GrainID {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(index), 10)
	if need := len(parent) + 1 + len(d); a.b.Cap()-a.b.Len() < need {
		// A new chunk: the IDs cut from the old one keep it alive.
		size := max(need, min(2*a.b.Cap(), idChunkMax), idChunkMin)
		a.b = strings.Builder{}
		a.b.Grow(size)
	}
	at := a.b.Len()
	a.b.WriteString(string(parent))
	a.b.WriteByte('.')
	a.b.Write(d)
	return GrainID(a.b.String()[at:])
}

// Kind distinguishes the two grain varieties.
type Kind int

const (
	// KindTask is a task instance.
	KindTask Kind = iota
	// KindChunk is a parallel-for-loop chunk instance.
	KindChunk
)

// String returns "task" or "chunk".
func (k Kind) String() string {
	if k == KindChunk {
		return "chunk"
	}
	return "task"
}

// Fragment is one contiguous execution interval of a task on one core,
// delimited by spawn/join points.
type Fragment struct {
	Start, End Time
	Core       int
	Counters   cache.Counters
}

// Duration returns the fragment's execution time.
func (f *Fragment) Duration() Time { return f.End - f.Start }

// BoundaryKind says what ended a fragment.
type BoundaryKind uint8

const (
	// BoundaryFork marks a task spawn.
	BoundaryFork BoundaryKind = iota
	// BoundaryJoin marks a taskwait synchronization.
	BoundaryJoin
	// BoundaryLoop marks a parallel for-loop executed at this point (only in
	// the master task). The loop is itself a fork-join construct; the
	// builder expands it into bookkeeping/chunk chains.
	BoundaryLoop
)

// Boundary separates Fragments[i] from Fragments[i+1] in a TaskRecord.
// Kind and Child share a word: a boundary is 64 bytes.
type Boundary struct {
	Kind BoundaryKind
	// Child (a fork's spawned task; zero on other kinds) and Joined (a
	// join's children) are grain numbers of later task records.
	Child  int32
	At     Time
	Joined []int32
	// Wait is the synchronization *overhead* the task paid at this join
	// (runtime bookkeeping, not useful work); it feeds the parallel-benefit
	// metric's "time spent by the grain's parent in synchronizing".
	Wait Time
	// Suspended is how long the task was suspended at this join in wall
	// (virtual) time; on a help-first runtime the owning worker usually
	// executes other grains during this interval.
	Suspended Time
	Loop      LoopID // BoundaryLoop: the loop instance
}

// TaskRecord is the complete profile of one task instance. Its four
// narrow fields pack into two words: a record is 152 bytes.
type TaskRecord struct {
	ID        GrainID
	Parent    int32 // the spawning task's grain number, an earlier record; -1 for the root
	Depth     int32 // spawn-tree depth; root is 0
	CreatedBy int32 // worker that spawned it
	// Inlined marks tasks the runtime executed undeferred due to an internal
	// cutoff/throttle (the paper's ICC queue-size cutoff, GCC's 64×threads
	// limit).
	Inlined bool
	Loc     SrcLoc

	CreateTime Time // when the parent spawned it
	CreateCost Time // cycles the parent paid to create it
	StartTime  Time // first fragment start
	EndTime    Time // last fragment end

	Fragments  []Fragment
	Boundaries []Boundary // len == len(Fragments)-1 for a completed task
}

// ExecTime returns the task's total execution time across fragments.
func (t *TaskRecord) ExecTime() Time {
	var sum Time
	for i := range t.Fragments {
		sum += t.Fragments[i].Duration()
	}
	return sum
}

// TotalCounters aggregates the task's fragment counters.
func (t *TaskRecord) TotalCounters() cache.Counters {
	var c cache.Counters
	for i := range t.Fragments {
		c.Add(t.Fragments[i].Counters)
	}
	return c
}

// FirstCore returns the core that executed the task's first fragment, or -1
// for an empty record.
func (t *TaskRecord) FirstCore() int {
	if len(t.Fragments) == 0 {
		return -1
	}
	return t.Fragments[0].Core
}

// LoopID numbers parallel for-loop instances in program order.
type LoopID int

// ScheduleKind is the OpenMP loop schedule.
type ScheduleKind int

const (
	// ScheduleStatic divides iterations into equal contiguous chunks
	// assigned round-robin up front.
	ScheduleStatic ScheduleKind = iota
	// ScheduleDynamic hands out fixed-size chunks from a shared counter.
	ScheduleDynamic
	// ScheduleGuided hands out geometrically shrinking chunks.
	ScheduleGuided
)

// String returns the OpenMP schedule name.
func (s ScheduleKind) String() string {
	switch s {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(s))
	}
}

// LoopRecord is the profile of one parallel for-loop instance.
type LoopRecord struct {
	ID          LoopID
	Loc         SrcLoc
	Schedule    ScheduleKind
	ChunkSize   int
	Lo, Hi      int // iteration space [Lo,Hi)
	Start, End  Time
	StartThread int   // thread that started the loop (constant w/o nesting)
	Threads     []int // workers that participated
}

// ChunkRecord is the profile of one executed chunk.
type ChunkRecord struct {
	Loop     LoopID
	Seq      int // grab order within the loop
	Thread   int // executing worker/core
	Lo, Hi   int // iteration range [Lo,Hi)
	Start    Time
	End      Time
	Bookkeep Time // book-keeping cost paid to obtain this chunk
	Counters cache.Counters
}

// ID returns the paper's chunk identification: starting thread of the loop
// is prepended by the Trace accessor; the record alone identifies by loop,
// sequence and range.
func (c *ChunkRecord) ID(startThread int) GrainID {
	b := append(make([]byte, 0, 24), 'L')
	b = strconv.AppendInt(b, int64(c.Loop), 10)
	b = append(b, '@', 't')
	b = strconv.AppendInt(b, int64(startThread), 10)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(c.Seq), 10)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(c.Lo), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Hi), 10)
	return GrainID(append(b, ')'))
}

// Duration returns the chunk's execution time.
func (c *ChunkRecord) Duration() Time { return c.End - c.Start }

// BookkeepRecord aggregates a worker's book-keeping work for one loop
// (the per-thread grouping reduction the paper applies).
type BookkeepRecord struct {
	Loop   LoopID
	Thread int
	Grabs  int  // how many times the worker entered book-keeping
	Total  Time // total book-keeping cycles
}

// WorkerStat aggregates one worker's time split, the raw material of the
// thread-timeline baseline view (paper Figure 4).
type WorkerStat struct {
	Busy     Time // cycles executing grain code
	Overhead Time // cycles in runtime bookkeeping (spawn, steal, queue ops)
}

// Trace is a complete profiled run.
type Trace struct {
	// Program and environment identification.
	Program    string
	Cores      int
	Sockets    int
	Scheduler  string // "work-stealing" or "central-queue"
	Flavor     string // runtime flavour: "MIR", "GCC", "ICC"
	PagePolicy string

	Start, End Time

	Tasks     []*TaskRecord
	Loops     []*LoopRecord
	Chunks    []*ChunkRecord
	Bookkeeps []*BookkeepRecord
	Workers   []WorkerStat

	// The grain numbering and the loop index, built lazily under indexOnce:
	// a finished trace is immutable and may be shared by concurrently
	// running analyses (the experiment engine memoizes simulation runs
	// across figures), so the build must be race-free.
	indexOnce sync.Once
	numbering *Numbering
	ids       *IDIndex         // a reader's, which the numbering extends
	loopIndex map[LoopID]int32 // loop ID -> index in Loops
}

// buildIndexes numbers the grains and indexes the loops exactly once.
func (tr *Trace) buildIndexes() {
	tr.indexOnce.Do(func() {
		tr.loopIndex = make(map[LoopID]int32, len(tr.Loops))
		for i, l := range tr.Loops {
			tr.loopIndex[l.ID] = int32(i)
		}
		tr.numbering = tr.number(tr.loopIndex)
	})
}

// Makespan returns the total profiled execution time.
func (tr *Trace) Makespan() Time { return tr.End - tr.Start }

// Loop looks up a loop record by ID.
func (tr *Trace) Loop(id LoopID) *LoopRecord {
	tr.buildIndexes()
	if i, ok := tr.loopIndex[id]; ok {
		return tr.Loops[i]
	}
	return nil
}

// NumGrains returns the total grain count (tasks + chunks). The root/master
// task counts as a grain, matching the paper's inclusion of the initial task.
func (tr *Trace) NumGrains() int { return len(tr.Tasks) + len(tr.Chunks) }
