package timeline

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"graingraph/internal/cache"
	"graingraph/internal/profile"
)

// DefStats aggregates the grains of one source definition
// ("file:line(func)"), the grouping the paper uses throughout §4.
type DefStats struct {
	Loc    profile.SrcLoc
	Grains uint64       // task and chunk instances
	Exec   profile.Time // total execution cycles
	Cache  cache.Counters
}

// Stats is a run's runtime stats report: the per-thread time split, each
// worker's scheduler event counts and the per-definition rollup. It is
// derived from the profile alone, so a saved artifact reports exactly what
// the live run it recorded does.
type Stats struct {
	*View
	Workers []profile.WorkerCounts
	// Defs is ordered by total execution time, heaviest first (ties by
	// location string, then first appearance in the trace).
	Defs []DefStats
}

// StatsFromTrace derives the stats report of a profiled run. Every task
// and chunk counts for its definition (a chunk for its loop's); the
// scheduler counts follow profile.Trace.WorkerCounts.
func StatsFromTrace(tr *profile.Trace) *Stats {
	s := &Stats{View: FromTrace(tr), Workers: tr.WorkerCounts()}
	index := make(map[profile.SrcLoc]int)
	add := func(loc profile.SrcLoc, exec profile.Time, c cache.Counters) {
		i, ok := index[loc]
		if !ok {
			i = len(s.Defs)
			index[loc] = i
			s.Defs = append(s.Defs, DefStats{Loc: loc})
		}
		d := &s.Defs[i]
		d.Grains++
		d.Exec += exec
		d.Cache.Add(c)
	}
	for _, t := range tr.Tasks {
		add(t.Loc, t.ExecTime(), t.TotalCounters())
	}
	nb := tr.Numbering()
	for j, c := range tr.Chunks {
		var loc profile.SrcLoc
		if li := nb.ChunkLoop[j]; li >= 0 {
			loc = tr.Loops[li].Loc
		}
		add(loc, c.Duration(), c.Counters)
	}
	slices.SortStableFunc(s.Defs, func(a, b DefStats) int {
		if c := cmp.Compare(b.Exec, a.Exec); c != 0 {
			return c
		}
		return cmp.Compare(a.Loc.String(), b.Loc.String())
	})
	return s
}

// Total folds the scheduler counts over all workers.
func (s *Stats) Total() profile.WorkerCounts {
	var t profile.WorkerCounts
	for _, w := range s.Workers {
		t.Spawns += w.Spawns
		t.Inlined += w.Inlined
		t.Pushes += w.Pushes
		t.Pops += w.Pops
		t.Steals += w.Steals
		t.QueueOps += w.QueueOps
		t.Parks += w.Parks
		t.Resumes += w.Resumes
	}
	return t
}

// Cache aggregates the cache/NUMA counters of every grain of the run.
func (s *Stats) Cache() cache.Counters {
	var c cache.Counters
	for i := range s.Defs {
		c.Add(s.Defs[i].Cache)
	}
	return c
}

// cacheHitRates derives per-level hit rates from counters: level i's
// accesses are the misses of level i-1 (L1 sees every access). mem is
// the number of memory accesses and remote the fraction of those served
// by a remote NUMA node.
func cacheHitRates(c cache.Counters) (l1, l2, l3 float64, mem uint64, remote float64) {
	rate := func(hits, accesses uint64) float64 {
		if accesses == 0 {
			return 1
		}
		return float64(hits) / float64(accesses)
	}
	l1 = rate(c.Accesses-c.L1Miss, c.Accesses)
	l2 = rate(c.L1Miss-c.L2Miss, c.L1Miss)
	l3 = rate(c.L2Miss-c.L3Miss, c.L2Miss)
	mem = c.L3Miss
	if mem > 0 {
		remote = float64(c.Remote) / float64(mem)
	}
	return
}

// timeShares returns the busy/overhead/idle fractions of makespan·workers.
func (v *View) timeShares() (busy, over, idle float64) {
	var b, o, id profile.Time
	for i := range v.Rows {
		b += v.Rows[i].Busy
		o += v.Rows[i].Overhead
		id += v.Rows[i].Idle
	}
	total := v.Makespan * profile.Time(len(v.Rows))
	if total == 0 {
		return 0, 0, 0
	}
	return float64(b) / float64(total), float64(o) / float64(total), float64(id) / float64(total)
}

// Summary renders the report as one line — the figure-footer format:
// scheduler counts, time split and per-level cache hit rates.
func (s *Stats) Summary() string {
	t := s.Total()
	busy, over, idle := s.timeShares()
	l1, l2, l3, mem, remote := cacheHitRates(s.Cache())
	return fmt.Sprintf(
		"steals %d, parks %d, resumes %d, spawns %d (%d inlined), "+
			"busy %.1f%% overhead %.1f%% idle %.1f%%, "+
			"L1 %.1f%% L2 %.1f%% L3 %.1f%% hit, mem %d (%.1f%% remote)",
		t.Steals, t.Parks, t.Resumes, t.Spawns, t.Inlined,
		100*busy, 100*over, 100*idle, 100*l1, 100*l2, 100*l3, mem, 100*remote)
}

// Render writes the full multi-line report: scheduler counts, the
// aggregate time split, per-level cache hit rates, and the heaviest grain
// definitions. Output is byte-stable across runs.
func (s *Stats) Render(w io.Writer) error {
	t := s.Total()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "makespan\t%d cycles × %d workers\n", s.Makespan, len(s.Rows))
	fmt.Fprintf(tw, "steals\t%d successful\n", t.Steals)
	fmt.Fprintf(tw, "deque ops\t%d pushes, %d pops\n", t.Pushes, t.Pops)
	if t.QueueOps > 0 {
		fmt.Fprintf(tw, "central-queue ops\t%d\n", t.QueueOps)
	}
	fmt.Fprintf(tw, "parks / resumes\t%d / %d\n", t.Parks, t.Resumes)
	fmt.Fprintf(tw, "spawns\t%d (%d inlined by throttling)\n", t.Spawns, t.Inlined)
	busy, over, idle := s.timeShares()
	fmt.Fprintf(tw, "time split\tbusy %.1f%%, overhead %.1f%%, idle %.1f%%\n",
		100*busy, 100*over, 100*idle)
	c := s.Cache()
	l1, l2, l3, mem, remote := cacheHitRates(c)
	fmt.Fprintf(tw, "cache\tL1 %.1f%%, L2 %.1f%%, L3 %.1f%% hit\n", 100*l1, 100*l2, 100*l3)
	fmt.Fprintf(tw, "memory\t%d line transfers, %.1f%% remote, %d stall cycles\n",
		mem, 100*remote, c.Stall)
	if len(s.Defs) > 0 {
		fmt.Fprintln(tw, "heaviest definitions\tgrains\texec cycles")
		for _, d := range s.Defs[:min(8, len(s.Defs))] {
			fmt.Fprintf(tw, "  %s\t%d\t%d\n", d.Loc, d.Grains, d.Exec)
		}
	}
	return tw.Flush()
}
