package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
)

// workload is one closed-loop benchmark workload: a caller that waits for
// each op before issuing the next. An op is one collective call, or one
// training step.
type workload struct {
	name string
	// prepare generates the inputs from the seed and computes the
	// references outputs are checked against. Nothing it does is timed.
	prepare func(seed int64) (bench, error)
}

// bench is a prepared workload.
type bench interface {
	// setup builds a fresh world and runs the warm-up batches: the work
	// setup_s measures.
	setup() error
	// batch runs the next closed-loop unit on the current world — one
	// collective call, or one training episode of several steps — and
	// checks its outputs. tr, when non-nil, receives a span per rank
	// around each layer call.
	batch(tr *obs.Obs) batchResult
	// probe measures each layer's public functions on the workload's own
	// shapes into res, recording a span per probe on track.
	probe(res *result, track *obs.Track)
	// close releases the world.
	close()
	// ranks is the world size the traced spans are laid out over.
	ranks() int
	// describe records the workload's shape and reference values.
	describe(res *result)
}

// batchResult is what one batch did and cost.
type batchResult struct {
	ops int
	// opSec holds each op's slowest-rank entry-to-return time.
	opSec []float64
	// wallSec is the wall time of the batch's comm.Run calls.
	wallSec float64
	// allocBytes and allocObjs are the heap allocations made during them.
	allocBytes, allocObjs uint64
	// msgs and wireBytes are the world's message and modeled byte counts.
	msgs, wireBytes int64
	// err is set when an output check failed: every op of the batch
	// counts as failed.
	err error
}

// opTimeout fails an op that returns later than this, however correct.
const opTimeout = 10 * time.Second

// setups is how many times a run builds its world; setup_s is the median.
const setups = 5

var workloads = []workload{
	{name: "ssar-goroutine", prepare: prepareSSARGoroutine},
	{name: "dsar-tcp", prepare: prepareDSARTCP},
	{name: "sim-p256", prepare: prepareSimP256},
	{name: "topk-train", prepare: prepareTopKTrain},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type runConfig struct {
	seed   int64
	window time.Duration
	log    io.Writer
}

// epoch anchors every span timestamp of a run.
var epoch = time.Now()

func since(t time.Time) float64 { return t.Sub(epoch).Seconds() }

// memSamples are read around every batch; only the main goroutine reads
// them.
var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/goal:bytes"},
}

// memNow returns the cumulative allocated bytes and objects and the
// current heap goal.
func memNow() (bytes, objs, goal uint64) {
	metrics.Read(memSamples)
	return memSamples[0].Value.Uint64(), memSamples[1].Value.Uint64(), memSamples[2].Value.Uint64()
}

// loopStats aggregates the batches of one measured window.
type loopStats struct {
	attempted, failed     int
	ok                    int // ops that passed their checks
	opSec                 []float64
	wallSec               float64
	allocBytes, allocObjs uint64
	msgs, wireBytes       int64
	heapGoal              []float64 // GC heap goal after each batch, bytes
	gcPauseSec            float64
}

// loop runs batches back to back until window has passed, at least one per
// hub. It cycles through hubs batch by batch (a nil hub is an untraced
// batch) and returns one loopStats per hub. Interleaving traced and
// untraced batches exposes both to the same machine load. GC pauses are
// only attributed when there is a single hub.
func loop(b bench, window time.Duration, log io.Writer, hubs ...*obs.Obs) []loopStats {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stats := make([]loopStats, len(hubs))
	start := time.Now()
	for i := 0; i < len(hubs) || time.Since(start) < window; i++ {
		s := &stats[i%len(hubs)]
		r := safeBatch(b, hubs[i%len(hubs)])
		s.attempted += r.ops
		if r.err == nil {
			for _, t := range r.opSec {
				if t > opTimeout.Seconds() {
					r.err = fmt.Errorf("op took %.1fs, over the %v limit", t, opTimeout)
				}
			}
		}
		if r.err != nil {
			s.failed += r.ops
			fmt.Fprintf(log, "wallbench: %d failed ops: %v\n", r.ops, r.err)
			continue
		}
		s.ok += r.ops
		s.opSec = append(s.opSec, r.opSec...)
		s.wallSec += r.wallSec
		s.allocBytes += r.allocBytes
		s.allocObjs += r.allocObjs
		s.msgs += r.msgs
		s.wireBytes += r.wireBytes
		_, _, goal := memNow()
		s.heapGoal = append(s.heapGoal, float64(goal))
	}
	runtime.ReadMemStats(&ms1)
	if len(hubs) == 1 {
		stats[0].gcPauseSec = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	}
	return stats
}

// safeBatch runs one batch, turning a panic (comm.Run re-raises a rank's)
// into a failed batch.
func safeBatch(b bench, tr *obs.Obs) (r batchResult) {
	defer func() {
		if e := recover(); e != nil {
			r = batchResult{ops: max(r.ops, 1), err: fmt.Errorf("panic: %v", e)}
		}
	}()
	return b.batch(tr)
}

// perOp divides a window total by the ops that passed.
func (s loopStats) perOp(total float64) float64 {
	if s.ok == 0 {
		return 0
	}
	return total / float64(s.ok)
}

func (s loopStats) opsPerSec() float64 {
	if s.wallSec == 0 {
		return 0
	}
	return float64(s.ok) / s.wallSec
}

// start prepares the workload and builds its world setups times, returning
// the median setup time.
func start(wl workload, cfg runConfig) (bench, float64, error) {
	b, err := wl.prepare(cfg.seed)
	if err != nil {
		return nil, 0, fmt.Errorf("prepare: %w", err)
	}
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		b.close()
		runtime.GC()
		t := time.Now()
		if err := b.setup(); err != nil {
			b.close()
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return b, median(times), nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(wl workload, cfg runConfig) (result, error) {
	b, setupSec, err := start(wl, cfg)
	if err != nil {
		return result{}, err
	}
	defer b.close()
	s := loop(b, cfg.window, cfg.log, nil)[0]
	res := result{attempted: s.attempted, failed: s.failed}
	res.set("setup_s", setupSec, "s")
	res.set("op_ms_p50", quantile(s.opSec, 0.5)*1e3, "ms")
	res.set("op_ms_p90", quantile(s.opSec, 0.9)*1e3, "ms")
	res.set("ops_per_s", s.opsPerSec(), "1/s")
	res.set("alloc_bytes_per_op", s.perOp(float64(s.allocBytes)), "B")
	res.set("allocs_per_op", s.perOp(float64(s.allocObjs)), "count")
	res.set("peak_heap_mb", quantile(s.heapGoal, 0.9)/(1<<20), "MB")
	res.note("op_samples", len(s.opSec))
	b.describe(&res)
	return res, nil
}

// tracedRun measures the per-layer metrics. Its window alternates
// untraced batches with batches that record a span per rank around each
// layer call; the layer probes follow. The spans are kept in memory and
// written as one Perfetto file at the end. Counts and GC pauses per op
// come from an untraced window of their own.
func tracedRun(wl workload, cfg runConfig, outDir string) (result, error) {
	b, _, err := start(wl, cfg)
	if err != nil {
		return result{}, err
	}
	defer b.close()
	plain := loop(b, cfg.window/2, cfg.log, nil)[0]
	hub := obs.New(b.ranks(), obs.ClockWall)
	ab := loop(b, cfg.window/2, cfg.log, nil, hub)

	res := result{attempted: plain.attempted, failed: plain.failed}
	for _, s := range ab {
		res.attempted += s.attempted
		res.failed += s.failed
	}
	res.set("comm.msgs_per_op", plain.perOp(float64(plain.msgs)), "count")
	res.set("comm.wire_bytes_per_op", plain.perOp(float64(plain.wireBytes)), "B")
	res.set("runtime.gc_pause_ms_per_op", plain.perOp(plain.gcPauseSec*1e3), "ms")
	overhead := 0.0
	if u := ab[0].opsPerSec(); u > 0 {
		overhead = 1 - ab[1].opsPerSec()/u
	}
	res.set("trace.overhead_share", overhead, "ratio")
	b.probe(&res, hub.Named("probes"))
	b.describe(&res)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", wl.name, cfg.seed))
	buf, err := obs.EncodeChromeTrace(hub.ChromeTrace())
	if err != nil {
		return result{}, fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return result{}, err
	}
	res.note("trace_file", path)
	res.note("trace_spans", len(hub.Spans()))
	return res, nil
}
