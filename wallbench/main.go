// Command wallbench is the repository's wall-clock benchmark. It drives the
// collectives and the training loop through their public functions on four
// closed-loop workloads, checks every output, and prints one JSON result
// line whose metrics are the end-to-end set (untraced run, -trace 0) or the
// per-layer set (traced run, -trace 1). README.md in this directory lists
// the workloads, the metrics, and which layer should move which end-to-end
// metric on which workload.
//
// Usage, from the repository root:
//
//	bash wallbench/run.sh --workload ssar-goroutine --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// watchdog bounds a whole run: a hung collective cannot be interrupted from
// outside the program, so the process gives up before the run's deadline
// instead of printing a result.
const watchdog = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wallbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "wallbench"), "directory the traced run writes its Perfetto file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "wallbench: need --workload one of %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "wallbench: %s did not finish within %v\n", wl.name, watchdog)
		os.Exit(3)
	})
	defer timer.Stop()

	cfg := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), log: stderr}
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(wl, cfg, *out)
	} else {
		res, err = untracedRun(wl, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "wallbench: %s: %v\n", wl.name, err)
		return 1
	}
	env := environment(wl.name, *seed, *seconds, *trace, res)
	if err := writeResult(stdout, env, res); err != nil {
		fmt.Fprintf(stderr, "wallbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: the op counts and the metrics, plus
// facts recorded alongside them in the environment line.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	// info holds values recorded with the result that are not metrics:
	// the workload's shape, sample counts, the training loss, the trace
	// file.
	info map[string]any
}

func (r *result) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *result) note(key string, value any) {
	if r.info == nil {
		r.info = make(map[string]any)
	}
	r.info[key] = value
}

// environment records what a result depends on besides the code: the
// toolchain, the processor, the seed and the op counts.
func environment(name string, seed int64, seconds float64, trace int, res result) map[string]any {
	env := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"attempted":  res.attempted,
		"failed":     res.failed,
		"fail_ratio": float64(res.failed) / float64(max(res.attempted, 1)),
	}
	for k, v := range res.info {
		env[k] = v
	}
	return env
}

// writeResult prints the environment line and, last, the result line.
func writeResult(w io.Writer, env map[string]any, res result) error {
	for name, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number", name)
		}
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", envLine, resLine)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
