package whatif

import (
	"fmt"
	"slices"

	"graingraph/internal/highlight"
	"graingraph/internal/profile"
	"graingraph/internal/query"
	"graingraph/internal/runpool"
)

// RankOptions tunes the ranking.
type RankOptions struct {
	// TopN truncates the ranked result (0 = keep every candidate).
	TopN int
}

// Candidate generation's fixed limits.
const (
	// maxCutoffDepth caps the deepest perfect-cutoff level explored.
	maxCutoffDepth = 12
	// rankScaleFactor is the hypothetical optimization factor applied to
	// threshold-crossing grains: "make it twice as fast".
	rankScaleFactor = 0.5
	// perProblem bounds how many top offenders per problem class get
	// individual hypotheses.
	perProblem = 3
)

// MaxScaleFactor bounds hypothetical scale factors: beyond it a projection
// is numeric noise, not a plausible "optimize this region" probe.
const MaxScaleFactor = 1e6

// Validate rejects a negative TopN.
func (o RankOptions) Validate() error {
	if o.TopN < 0 {
		return fmt.Errorf("whatif: negative TopN %d", o.TopN)
	}
	return nil
}

// Candidates generates the hypothesis set the ranking pass evaluates, in a
// deterministic order:
//
//   - the span bound (infinite cores), as the reference ceiling;
//   - a perfect-cutoff hypothesis per populated spawn depth ("raise the
//     cutoff to depth d"), the fix for broken cutoffs;
//   - de-inflation of all grains plus the top work-inflation offenders
//     individually, when a baseline-backed report is available;
//   - a rankScaleFactor weight scaling per top offender of every highlight
//     problem class — the TASKPROF-style "optimize this region" probe.
//
// a may be nil, which limits generation to the structural hypotheses.
func (e *Engine) Candidates(a *highlight.Assessment) []Hypothesis {
	hs := []Hypothesis{InfiniteCores{}}

	// Perfect cutoffs: one per depth that still has tasks below it. The
	// deepest populated depth was computed once in New — Candidates used to
	// re-scan every node here on each Rank call.
	limit := e.maxTaskDepth - 1 // collapsing at the deepest level is a no-op
	if limit > maxCutoffDepth {
		limit = maxCutoffDepth
	}
	for d := 0; d <= limit; d++ {
		hs = append(hs, CollapseAtDepth{Depth: d})
	}

	if a != nil {
		// Work-inflation removal, when deviations were measured (the engine
		// caches the >1 deviations at construction).
		if e.inflated {
			hs = append(hs, ZeroInflation{All: true})
			for _, row := range a.TopOffenders(highlight.WorkInflation, perProblem) {
				hs = append(hs, ZeroInflation{Grain: a.Report.ID(row)})
			}
		}

		// Scale the worst offender grains of every problem class, deduped.
		var seen []profile.GrainID // a handful: perProblem per problem class
		for _, p := range highlight.AllProblems {
			for _, row := range a.TopOffenders(p, perProblem) {
				id := a.Report.ID(row)
				if slices.Contains(seen, id) {
					continue
				}
				seen = append(seen, id)
				hs = append(hs, ScaleGrain{Grain: id, Factor: rankScaleFactor})
			}
		}
	}
	return hs
}

// Rank generates candidates from the highlighted assessment, evaluates them
// in parallel across the pool, and returns projections ordered by projected
// makespan reduction (largest first; label breaks ties), truncated to
// opt.TopN. The result is deterministic at every pool size. Invalid options
// (negative limits, out-of-range scale factor) return an error instead of
// silently producing nonsense projections.
func (e *Engine) Rank(a *highlight.Assessment, pool *runpool.Runner, opt RankOptions) ([]Projection, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ps := e.EvalAll(pool, e.Candidates(a))
	// Projected makespan ascending, label breaking ties — a total order,
	// so bounded selection (TopN set) and stable sort (full ranking) agree
	// with the sort-and-truncate this replaced.
	above := func(i, j int) bool {
		if ps[i].Makespan != ps[j].Makespan {
			return ps[i].Makespan < ps[j].Makespan
		}
		return ps[i].Label < ps[j].Label
	}
	var order []int32
	if opt.TopN > 0 && len(ps) > opt.TopN {
		order = query.TopK(len(ps), opt.TopN, above)
	} else {
		order = query.SortRows(len(ps), above)
	}
	out := make([]Projection, len(order))
	for i, r := range order {
		out[i] = ps[r]
	}
	return out, nil
}
