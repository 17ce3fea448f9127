package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// cmdSelfcheck runs sets of runs of the current tree back to back and asks
// whether they agree: per metric and workload it prints each set's median
// and quartiles, the spread (interquartile range over median, what the
// driver computes) and the gap between the first and the last set's
// medians against the metric's bound. The sets run the same code, so a gap
// beyond the bound in either direction is disagreement, and the exit status
// is non-zero. Run i of every set uses seed i, as the driver's sets do.
func cmdSelfcheck(args []string) error {
	var sets, runs int
	fs := flag.NewFlagSet("bench selfcheck", flag.ContinueOnError)
	fs.IntVar(&sets, "sets", 2, "sets of runs, back to back")
	fs.IntVar(&runs, "runs", 5, "runs per set and workload, each with another seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if sets < 2 || runs < 2 {
		return &exitError{2, "selfcheck needs at least 2 sets of 2 runs"}
	}
	names := workloadNames()
	self, err := os.Executable()
	if err != nil {
		return err
	}

	// values[set][workload][metric] = one value per run
	values := make([]map[string]map[string][]float64, sets)
	for s := range values {
		values[s] = make(map[string]map[string][]float64)
		for run := 0; run < runs; run++ {
			for _, w := range names {
				res, err := runChild(self, w, "-seed", fmt.Sprint(run+1))
				if err != nil {
					return fmt.Errorf("set %d run %d %s: %w", s+1, run+1, w, err)
				}
				if res.Failed > 0 {
					return &exitError{1, fmt.Sprintf("set %d run %d %s: %d ops failed", s+1, run+1, w, res.Failed)}
				}
				if values[s][w] == nil {
					values[s][w] = make(map[string][]float64)
				}
				for name, m := range res.Metrics {
					values[s][w][name] = append(values[s][w][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %d/%d run %d/%d %s done\n", s+1, sets, run+1, runs, w)
			}
		}
	}

	var over []string
	fmt.Printf("| workload | metric | set | median | q1 | q3 | spread | gap first→last | bound |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range names {
		for _, d := range endToEndMetrics {
			first := meanMedian(values[0][w][d.Name])
			last := meanMedian(values[sets-1][w][d.Name])
			gap := (last - first) / first
			for s := range values {
				xs := values[s][w][d.Name]
				med := meanMedian(xs)
				q1, q3 := quartiles(xs)
				gapCol := ""
				if s == sets-1 {
					gapCol = fmt.Sprintf("%+.1f %%", 100*gap)
				}
				fmt.Printf("| %s | %s | %d | %.4g %s | %.4g | %.4g | %.1f %% | %s | %.0f %% |\n",
					w, d.Name, s+1, med, d.Unit, q1, q3, 100*(q3-q1)/med, gapCol, 100*d.Bound)
			}
			if math.Abs(gap) > d.Bound {
				over = append(over, fmt.Sprintf("%s/%s %+.1f %% (bound ±%.0f %%)", w, d.Name, 100*gap, 100*d.Bound))
			}
		}
	}
	if len(over) > 0 {
		return &exitError{1, "medians disagree beyond their bounds: " + strings.Join(over, "; ")}
	}
	return nil
}

// runChild runs one workload in a child process and reads back the record
// it saved under bench/out/.
func runChild(self, workload string, args ...string) (*result, error) {
	cmd := exec.Command(self, append([]string{"run", workload}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	dir, err := outDir()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, workload+".json"))
	if err != nil {
		return nil, err
	}
	res := new(result)
	return res, json.Unmarshal(data, res)
}
