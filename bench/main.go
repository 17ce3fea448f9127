// Command bench is the repository's benchmark: four user-session workloads
// measured end to end with tracing off, and a separate traced run that
// attributes the same sessions to layers and runs the per-layer probes.
// README.md in this directory has the metric and workload tables.
//
//	go run ./bench run artifact-read -seed 7    # end-to-end metrics, tracing off
//	go run ./bench run all                      # the four workloads, one process each
//	go run ./bench trace serve                  # per-layer metrics + bench/out/serve.spans.json
//	go run ./bench selfcheck -sets 2 -runs 5    # do two sets of runs agree within the bounds?
//
// BENCHMARK.json drives it through run.sh as
// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// options is one invocation's settings, shared by every subcommand.
type options struct {
	workload string
	seed     uint64
	seconds  float64 // wall budget of the measuring loop
	smoke    bool    // tiny inputs and phases, for the go test smoke run
	trace    bool
	driver   bool // run under BENCHMARK.json's contract: failed ops are reported on the result line, not by the exit code
}

const (
	defaultSeconds = 10
	giantDepth     = 8 // G8: 257 142 grains, 899 996 graph nodes; in-process sessions take seconds
	servedDepth    = 7 // G7: 63 518 grains; the artifact grainserved holds next to P5
	smokeDepth     = 5
	smokeSeconds   = 0.5
)

// depth is the giant tree's FullDepth for an input of the given full
// size (giantDepth or servedDepth); only the smoke run shrinks it.
func (o options) depth(full int) int {
	if o.smoke {
		return smokeDepth
	}
	return full
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) (code int) {
	var interrupted atomic.Bool
	defer func() {
		runCleanups()
		if interrupted.Load() {
			code = 130
		}
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		interrupted.Store(true)
		runCleanups()
		os.Exit(130)
	}()

	if len(args) == 0 {
		usage()
		return 2
	}
	cmd := args[0]
	if strings.HasPrefix(cmd, "-") {
		cmd = "driver" // BENCHMARK.json's command line has no subcommand
	} else {
		args = args[1:]
	}
	var err error
	switch cmd {
	case "run", "trace":
		err = cmdRun(args, cmd == "trace")
	case "driver":
		err = cmdDriver(args)
	case "setup":
		err = cmdSetup(args)
	case "hostprobe":
		err = cmdHostProbe()
	case "selfcheck":
		err = cmdSelfcheck(args)
	default:
		usage()
		return 2
	}
	var ee *exitError
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 2
	case errors.As(err, &ee):
		fmt.Fprintln(os.Stderr, "bench:", ee.msg)
		return ee.code
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// exitError carries a specific exit code up to realMain (selfcheck's
// "a gap exceeded its bound", run's "an op failed verification").
type exitError struct {
	code int
	msg  string
}

func (e *exitError) Error() string { return e.msg }

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  bench run   <workload|all> [-seed N] [-seconds S] [-smoke]
  bench trace <workload>     [-seed N] [-seconds S] [-smoke]
  bench selfcheck [-sets 2] [-runs 5]
  bench --workload W --seed N --seconds S --trace 0|1     (BENCHMARK.json contract)
workloads: `+strings.Join(workloadNames(), ", ")+"\n")
}

func addCommonFlags(fs *flag.FlagSet, o *options) {
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: simulated scheduler RNG and request generators")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "wall budget of the measuring loop")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs and phases, for the go test smoke run")
}

func (o *options) applySmoke() {
	if o.smoke {
		o.seconds = smokeSeconds
	}
}

// cmdRun is `bench run <workload|all>` and `bench trace <workload>`.
func cmdRun(args []string, traced bool) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		usage()
		return &exitError{2, "missing workload name"}
	}
	o := options{workload: args[0], trace: traced}
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	addCommonFlags(fs, &o)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	o.applySmoke()
	if o.workload == "all" {
		if traced {
			return &exitError{2, "trace takes one workload"}
		}
		return runAll(o)
	}
	return runOne(o)
}

// cmdDriver is the BENCHMARK.json contract's command line.
func cmdDriver(args []string) error {
	o := options{driver: true}
	var traceFlag int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "wall budget of the measuring loop")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = traceFlag != 0
	return runOne(o)
}

// runOne runs one workload in this process and prints its result.
func runOne(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return &exitError{2, fmt.Sprintf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))}
	}
	if o.seconds <= 0 {
		return &exitError{2, "-seconds must be positive"}
	}
	res, err := execute(w, o)
	if err != nil {
		return err
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if res.Failed > 0 && !o.driver {
		return &exitError{1, fmt.Sprintf("%s: %d of %d ops failed verification", o.workload, res.Failed, res.Attempted)}
	}
	return nil
}

// runAll runs every workload in its own child process, so peak_rss_mb is
// per workload and one workload's heap never warms the next.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, name := range workloadNames() {
		args := []string{"run", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, name)
		}
	}
	if len(failed) > 0 {
		return &exitError{1, "workloads failed: " + strings.Join(failed, ", ")}
	}
	return nil
}

// Cleanups run on every exit path — normal return, failed verification,
// SIGINT/SIGTERM — so no server process or scratch directory outlives the
// benchmark. They run once, newest first; a second caller waits until the
// first has finished, so main cannot exit while the signal handler is still
// cleaning up. A cleanup must not call atExit.
var (
	cleanupMu sync.Mutex
	cleanups  []func()
)

func atExit(f func()) {
	cleanupMu.Lock()
	cleanups = append(cleanups, f)
	cleanupMu.Unlock()
}

func runCleanups() {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	cleanups = nil
}

// scratchDir makes a scratch directory under os.TempDir() that is removed
// when the benchmark exits. run.sh points TMPDIR inside the checkout.
func scratchDir(tag string) (string, error) {
	dir, err := os.MkdirTemp("", "bench-"+tag+"-")
	if err != nil {
		return "", err
	}
	atExit(func() { os.RemoveAll(dir) })
	return dir, nil
}
