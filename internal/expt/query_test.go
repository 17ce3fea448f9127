package expt

import (
	"math"
	"slices"
	"testing"

	"graingraph/internal/query"
	"graingraph/internal/rts"
	"graingraph/internal/runpool"
)

// TestQueryTableAdoptsReportColumns: the "from grains" table's exec,
// metric and stall columns are the report's own slices, not copies, and running a
// plan of every query verb over the table leaves them as they were.
func TestQueryTableAdoptsReportColumns(t *testing.T) {
	prog := randomTreeWithLoops(5)
	base := rts.Run(rts.Config{Program: "adopt", Cores: 1, Seed: 5}, prog)
	tr := rts.Run(rts.Config{Program: "adopt", Cores: 4, Seed: 5}, prog)
	pool := runpool.New(2)
	res := analyze(pool, tr, base, Config{}, nil)
	rep := res.Report
	tab := QueryTable(res, pool)

	floats := map[string][]float64{"benefit": rep.Benefit, "workdev": rep.WorkDev, "util": rep.Util}
	ints := map[string][]int64{"exec": rep.Exec, "parallelism": rep.Parallelism, "scatter": rep.Scatter, "stall": rep.Stall}
	for name, col := range floats {
		c := tab.Col(name)
		if c == nil || c.Kind != query.Float || len(c.F) != rep.Len() || &c.F[0] != &col[0] {
			t.Errorf("query column %s is not the report's slice", name)
		}
	}
	for name, col := range ints {
		c := tab.Col(name)
		if c == nil || c.Kind != query.Int || len(c.I) != rep.Len() || &c.I[0] != &col[0] {
			t.Errorf("query column %s is not the report's slice", name)
		}
	}

	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	wantF := map[string][]uint64{}
	for name, col := range floats {
		wantF[name] = bits(col)
	}
	wantI := map[string][]int64{}
	for name, col := range ints {
		wantI[name] = slices.Clone(col)
	}
	for _, src := range []string{
		"from grains | filter benefit < 1 || workdev > 1 || scatter > 0 || stall > 0",
		"from grains | sort exec desc, util asc",
		"from grains | topk 5 by parallelism asc",
		"from grains | groupby loc,kind | agg count(), sum(exec), mean(benefit), max(scatter), min(parallelism), quantile(workdev,0.5), quantile(util,0.9)",
		"from grains | select exec,benefit,workdev,parallelism,scatter,util",
	} {
		plan, err := query.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if _, err := plan.Run(tab, pool); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for name, col := range floats {
			if !slices.Equal(bits(col), wantF[name]) {
				t.Errorf("%s changed the report's %s column", src, name)
			}
		}
		for name, col := range ints {
			if !slices.Equal(col, wantI[name]) {
				t.Errorf("%s changed the report's %s column", src, name)
			}
		}
	}
}
