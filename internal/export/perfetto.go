package export

// Chrome-trace-event (Perfetto-compatible) JSON export. The output of
// Perfetto opens directly in ui.perfetto.dev or chrome://tracing: one
// process per run, one thread track per simulated worker, grain slices
// labelled file:line(func), steal/park/resume instant markers, and
// critical-path grains flagged with a distinct colour.

import (
	"encoding/json"
	"fmt"
	"io"

	"graingraph/internal/profile"
)

// PerfettoRun is one profiled run to include in a trace file. Trace
// supplies the grain slices (fragments and chunks) and the scheduler
// instants (steal/park/resume, see profile.Trace.SchedInstants), so a
// live run and an artifact decoded from it export the same bytes.
// Critical flags, by grain number, the grains on the critical path (see
// core.Graph.CriticalGrains); nil means unknown.
type PerfettoRun struct {
	Label    string
	Trace    *profile.Trace
	Critical []bool
}

// chromeEvent is one entry of the Chrome trace-event JSON array.
// Timestamps and durations are emitted in simulated cycles; viewers
// interpret them as microseconds, which only rescales the axis.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   *uint64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`     // instant scope: "t" = thread
	Cname string         `json:"cname,omitempty"` // chrome colour name
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object format.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// criticalCname is the chrome://tracing colour slot used to make
// critical-path grains stand out (rendered as a saturated red).
const criticalCname = "terrible"

// Perfetto writes the runs as one Chrome-trace JSON document. Output is
// byte-stable for identical inputs: slices follow the deterministic
// record order of each profile, instants the derivation's order (time,
// worker, kind, grain), and args maps are marshalled with sorted keys by
// encoding/json.
func Perfetto(w io.Writer, runs []PerfettoRun) error {
	doc := chromeTrace{
		DisplayTimeUnit: "ns",
		OtherData:       map[string]any{"generator": "graingraph", "timeUnit": "simulated cycles"},
	}
	for i := range runs {
		appendRun(&doc, i+1, &runs[i])
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// appendRun emits one run's metadata, slices and instants under pid.
func appendRun(doc *chromeTrace, pid int, r *PerfettoRun) {
	tr := r.Trace
	label := r.Label
	if label == "" && tr != nil {
		label = tr.Program
	}
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": label},
	})
	if tr == nil {
		return
	}
	// One named thread track per simulated worker.
	for t := 0; t < tr.Cores; t++ {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: t,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", t)},
		})
	}

	// Grain slices: task fragments, then loop chunks, in record order.
	critical := func(num int) bool { return num < len(r.Critical) && r.Critical[num] }
	for ti, task := range tr.Tasks {
		critical := critical(ti)
		for fi := range task.Fragments {
			f := &task.Fragments[fi]
			ev := slice(pid, f.Core, task.Loc.String(), "task", f.Start, f.End-f.Start, critical)
			ev.Args = map[string]any{
				"grain":    string(task.ID),
				"fragment": fi,
				"compute":  f.Counters.Compute,
				"stall":    f.Counters.Stall,
				"l1_miss":  f.Counters.L1Miss,
				"l3_miss":  f.Counters.L3Miss,
				"remote":   f.Counters.Remote,
			}
			if critical {
				ev.Args["critical"] = true
			}
			if task.Inlined {
				ev.Args["inlined"] = true
			}
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
	}
	for j, ck := range tr.Chunks {
		id := tr.ChunkID(j)
		critical := critical(len(tr.Tasks) + j)
		loc := ""
		if l := tr.Loop(ck.Loop); l != nil {
			loc = l.Loc.String()
		} else {
			loc = fmt.Sprintf("loop:%d", ck.Loop)
		}
		ev := slice(pid, ck.Thread, loc, "chunk", ck.Start, ck.End-ck.Start, critical)
		ev.Args = map[string]any{
			"grain":   string(id),
			"iters":   fmt.Sprintf("[%d,%d)", ck.Lo, ck.Hi),
			"compute": ck.Counters.Compute,
			"stall":   ck.Counters.Stall,
		}
		if critical {
			ev.Args["critical"] = true
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}

	// Scheduler instants, derived from the task records.
	for _, in := range tr.SchedInstants() {
		ev := chromeEvent{
			Name: in.Kind.String(), Cat: "sched", Ph: "i", Ts: in.At,
			Pid: pid, Tid: in.Worker, Scope: "t",
			Args: map[string]any{"grain": string(tr.Tasks[in.Grain].ID)},
		}
		if in.Kind == profile.SchedSteal {
			ev.Args["victim"] = in.Victim
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
}

// slice builds a complete ("X") slice event.
func slice(pid, tid int, name, cat string, ts, dur uint64, critical bool) chromeEvent {
	d := dur
	ev := chromeEvent{
		Name: name, Cat: cat, Ph: "X", Ts: ts, Dur: &d, Pid: pid, Tid: tid,
	}
	if critical {
		ev.Cname = criticalCname
	}
	return ev
}
