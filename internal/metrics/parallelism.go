package metrics

import (
	"sort"

	"graingraph/internal/profile"
)

// eachSpan calls visit with every grain's execution spans, by grain
// number: a task's fragments in order, then each chunk's whole span. Empty
// spans are skipped.
func eachSpan(tr *profile.Trace, visit func(num int32, start, end profile.Time)) {
	for ti := range tr.Tasks {
		frags := tr.Tasks[ti].Fragments
		for i := range frags {
			if f := &frags[i]; f.End > f.Start {
				visit(int32(ti), f.Start, f.End)
			}
		}
	}
	for j, c := range tr.Chunks {
		if c.End > c.Start {
			visit(int32(len(tr.Tasks)+j), c.Start, c.End)
		}
	}
}

// maxIntervals caps the timeline resolution: a longer run gets wider
// intervals, not more of them.
const maxIntervals = 4096

// instParallelism computes the per-interval parallelism timeline and fills
// the report's Parallelism column (each grain's minimum over overlapping
// intervals).
func instParallelism(tr *profile.Trace, rep *Report, interval profile.Time, opts Options) (profile.Time, []int) {
	makespan := tr.Makespan()
	if makespan == 0 || rep.Len() == 0 {
		return interval, nil
	}
	if interval == 0 {
		interval = 1
	}
	// Cap resolution.
	if n := makespan / interval; n > maxIntervals {
		interval = (makespan + maxIntervals - 1) / maxIntervals
	}
	nIntervals := int((makespan + interval - 1) / interval)
	counts := make([]int, nIntervals)

	// A grain counts once per interval even if several of its fragments
	// overlap the same interval: count per (grain, interval) via sweeping
	// grain spans, deduping with a last-marked stamp per grain, indexed by
	// grain number.
	lastSeen := make([]int32, tr.NumGrains())
	for i := range lastSeen {
		lastSeen[i] = -1
	}

	// For the conservative flavour, a grain counts only in intervals its
	// span fully covers.
	eachSpan(tr, func(num int32, start, end profile.Time) {
		var first, last int
		if opts.Flavor == IPConservative {
			// Intervals [i*iv, (i+1)*iv) fully inside [start,end).
			first = int((start + interval - 1) / interval)
			last = int(end/interval) - 1
		} else {
			first = int(start / interval)
			last = int((end - 1) / interval)
		}
		if first < 0 {
			first = 0
		}
		if last >= nIntervals {
			last = nIntervals - 1
		}
		for i := first; i <= last; i++ {
			if lastSeen[num] == int32(i) {
				continue // already counted this grain in this interval
			}
			counts[i]++
			lastSeen[num] = int32(i)
		}
	})

	// Per-grain minimum over the intervals its *execution* overlaps (its
	// fragments — a task suspended in taskwait is not executing, so thin
	// intervals during its suspension do not count against it).
	ip := rep.Parallelism
	for i := range ip {
		ip[i] = -1
	}
	eachSpan(tr, func(num int32, start, end profile.Time) {
		row := rep.rowOf[num]
		first := int(start / interval)
		last := int((end - 1) / interval)
		if last >= nIntervals {
			last = nIntervals - 1
		}
		for i := first; i <= last; i++ {
			if c := int64(counts[i]); ip[row] == -1 || c < ip[row] {
				ip[row] = c
			}
		}
	})
	for i := range ip {
		if ip[i] == -1 {
			ip[i] = 0
		}
	}
	return interval, counts
}

// LoopLoadBalance computes the paper's load-balance metric for one loop
// instance: the length of the longest grain (chunk) divided by the median
// length of the per-thread chains of consecutive grains.
func LoopLoadBalance(tr *profile.Trace, loop profile.LoopID) float64 {
	var longest profile.Time
	chains := make(map[int]profile.Time)
	l := tr.Loop(loop)
	if l == nil {
		return 0
	}
	for _, th := range l.Threads {
		chains[th] = 0
	}
	for _, c := range tr.Chunks {
		if c.Loop != loop {
			continue
		}
		d := c.Duration()
		if d > longest {
			longest = d
		}
		chains[c.Thread] += d
	}
	med := medianTimes(chains)
	if med == 0 {
		return 0
	}
	return float64(longest) / float64(med)
}

// TaskLoadBalance generalizes load balance to task grains at program level:
// the longest task execution time divided by the median per-core busy time.
func TaskLoadBalance(tr *profile.Trace) float64 {
	var longest profile.Time
	for _, t := range tr.Tasks {
		if e := t.ExecTime(); e > longest {
			longest = e
		}
	}
	chains := make(map[int]profile.Time)
	for i, ws := range tr.Workers {
		chains[i] = ws.Busy
	}
	med := medianTimes(chains)
	if med == 0 {
		return 0
	}
	return float64(longest) / float64(med)
}

func medianTimes(m map[int]profile.Time) profile.Time {
	if len(m) == 0 {
		return 0
	}
	vals := make([]profile.Time, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[len(vals)/2]
}
