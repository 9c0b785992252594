// Command sparbench regenerates the Figure 3 micro-benchmarks: sparse
// allreduce time versus node count (left panel; paper: Piz Daint, N=16M,
// d=0.781%) and versus per-node density (right panel; paper: Greina GigE,
// N=16M, P=8), for all six algorithms — plus the hierarchical extensions:
// flat SSAR versus topology-aware HierSSAR on a two-level machine, flat
// DSAR versus HierDSAR under a per-node NIC serialization cap, and the
// ablation sweeps recorded as the BENCH_N.json documents.
//
// Usage:
//
//	sparbench -sweep nodes      [-n 1048576] [-density 0.00781] [-maxp 64] [-profile aries]
//	sparbench -sweep density    [-n 1048576] [-p 8] [-profile gige]
//	sparbench -sweep hier       [-n 1048576] [-density 0.0001] [-maxp 64] [-rpn 4] [-intra nvlink] [-profile aries]
//	sparbench -sweep hierdsar   [-n 262144] [-density 0.6] [-maxp 32] [-rpn 4] [-nic 1] [-intra nvlink] [-profile aries]
//	sparbench -sweep contention [-intra nvlink] [-profile aries] [-json]
//	sparbench -sweep merge      [-json]
//	sparbench -sweep hierlevels [-json]
//	sparbench -sweep adapt      [-json]
//	sparbench -sweep adaptdiv   [-json]
//	sparbench -sweep cluster    [-json]
//	sparbench -sweep transport  [-transport goroutine|tcp|all] [-json]
//	sparbench -sweep overlap    [-json]
//	sparbench -sweep overlapwall [-runs 5] [-json]
//	sparbench -sweep trace      [-n 1048576] [-density 0.00781] [-p 8] [-profile aries]
//	sparbench -csv  # machine-readable output
//
// -json writes the sweep's JSON document instead of its tables; it is an
// error for the sweeps that have none (nodes, density, hier, hierdsar,
// trace). Workload traces are replayed by cmd/sparreplay.
//
// Any invocation also takes -cpuprofile/-memprofile to write pprof
// profiles of the run (inspect with `go tool pprof`).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/simnet"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sparbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/-help: usage already printed, exit 0
		}
		log.Fatal(err)
	}
}

// options holds the parsed flags every sweep reads from.
type options struct {
	sweep, transport, intra, profile string
	n, maxP, p, rpn, nic, gens, runs int
	density                          float64
	csv, json                        bool
	cpuProf, memProf                 string
	set                              map[string]bool // flags given explicitly
}

// A sweep is one sparbench mode. run measures it and returns what the
// dispatcher prints.
type sweep struct {
	name string
	run  func(o *options) (*result, error)
}

// result is a sweep's output: header text, its tables (aligned or CSV)
// and footer text, or with -json the document alone — nil for the sweeps
// that have none.
type result struct {
	header string
	tables []*report.Table
	footer string
	doc    any
}

// benchDoc is the layout shared by the BENCH_N.json documents; BENCH_6–8
// embed it ahead of their extra fields, so the JSON field order stays
// id, note, cells, extras.
type benchDoc struct {
	ID    string `json:"id,omitempty"`
	Note  string `json:"note"`
	Cells any    `json:"cells"`
}

func run(args []string, stdout io.Writer) error {
	names := make([]string, len(sweeps))
	for i, s := range sweeps {
		names[i] = s.name
	}
	o := options{set: map[string]bool{}}
	fs := flag.NewFlagSet("sparbench", flag.ContinueOnError)
	fs.StringVar(&o.sweep, "sweep", "nodes", "sweep to run: "+strings.Join(names, " | "))
	fs.StringVar(&o.transport, "transport", "goroutine", "real backend(s) for the transport sweep: goroutine | tcp | all")
	fs.IntVar(&o.n, "n", 1<<20, "vector dimension N (paper uses 16M; 2^20 default keeps memory modest)")
	fs.Float64Var(&o.density, "density", 0.00781, "per-node density d for the nodes and trace sweeps")
	fs.IntVar(&o.maxP, "maxp", 64, "largest node (rank) count for the nodes, hier and hierdsar sweeps")
	fs.IntVar(&o.p, "p", 8, "node count for the density and trace sweeps")
	fs.IntVar(&o.rpn, "rpn", 4, "ranks per node for the hier/hierdsar sweeps")
	fs.IntVar(&o.nic, "nic", 1, "per-node NIC serialization cap for the hierdsar sweep (0 disables contention)")
	fs.StringVar(&o.intra, "intra", "nvlink", "intra-node profile for the hier/hierdsar/contention sweeps")
	fs.StringVar(&o.profile, "profile", "", "network profile: aries | ib-fdr | gige | spark | nvlink (default: aries, gige for density)")
	fs.IntVar(&o.gens, "gens", 2, "data generations per cell (paper: 5)")
	fs.IntVar(&o.runs, "runs", 3, "runs per generation (paper: 10; overlapwall: wall runs per arm)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of an aligned table")
	fs.BoolVar(&o.json, "json", false, "emit the sweep's JSON document (the BENCH_N.json format where one is recorded) instead of its tables")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a pprof CPU profile of the run here")
	fs.StringVar(&o.memProf, "memprofile", "", "write a pprof heap profile (after the run) here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	for _, f := range []struct {
		name   string
		v, min int
	}{{"n", o.n, 1}, {"p", o.p, 1}, {"maxp", o.maxP, 1}, {"gens", o.gens, 1}, {"runs", o.runs, 1}, {"rpn", o.rpn, 1}, {"nic", o.nic, 0}} {
		if f.v < f.min {
			return fmt.Errorf("-%s must be >= %d, got %d", f.name, f.min, f.v)
		}
	}
	i := slices.Index(names, o.sweep)
	if i < 0 {
		return fmt.Errorf("unknown sweep %q (want %s)", o.sweep, strings.Join(names, " | "))
	}

	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProf != "" {
		defer func() {
			f, err := os.Create(o.memProf)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	res, err := sweeps[i].run(&o)
	if err != nil {
		return err
	}
	if o.json {
		if res.doc == nil {
			return fmt.Errorf("sweep %q has no JSON document; drop -json", o.sweep)
		}
		return report.WriteJSON(stdout, res.doc)
	}
	if _, err := io.WriteString(stdout, res.header); err != nil {
		return err
	}
	for _, tb := range res.tables {
		if err := tb.Emit(stdout, o.csv); err != nil {
			return err
		}
	}
	_, err = io.WriteString(stdout, res.footer)
	return err
}

// sweeps is the registry: -sweep picks an entry by name, and the -sweep
// help text and unknown-sweep error list them in this order.
var sweeps = []sweep{
	{"nodes", func(o *options) (*result, error) {
		prof, err := profileOrDefault(o.profile, "aries")
		if err != nil {
			return nil, err
		}
		rows := experiments.Fig3NodeSweep(o.n, o.density, report.Pow2Range(2, o.maxP), prof, o.gens, o.runs)
		return &result{
			header: fmt.Sprintf("# Figure 3 (left): reduction time vs node count; N=%d d=%.4f%% profile=%s\n", o.n, o.density*100, prof.Name),
			tables: []*report.Table{microbenchTable(rows)},
		}, nil
	}},
	{"density", func(o *options) (*result, error) {
		prof, err := profileOrDefault(o.profile, "gige")
		if err != nil {
			return nil, err
		}
		densities := []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}
		rows := experiments.Fig3DensitySweep(o.n, o.p, densities, prof, o.gens, o.runs)
		return &result{
			header: fmt.Sprintf("# Figure 3 (right): reduction time vs density; N=%d P=%d profile=%s\n", o.n, o.p, prof.Name),
			tables: []*report.Table{microbenchTable(rows)},
		}, nil
	}},
	{"hier", func(o *options) (*result, error) { return runHier(o, false) }},
	{"hierdsar", func(o *options) (*result, error) { return runHier(o, true) }},
	// BENCH_2: the contention-model sweep with modeled and simulated
	// seconds per algorithm per cell. Every metric is simulated virtual
	// time (deterministic given the seeded inputs), so the file is
	// reproducible byte-for-byte — scripts/ci.sh regenerates it.
	{"contention", func(o *options) (*result, error) {
		intra, inter, err := machine(o)
		if err != nil {
			return nil, err
		}
		rows := experiments.ContentionSweep(intra, inter)
		tb := report.NewTable("N", "P", "rpn", "nic", "density%", "auto", "old-heuristic", "cheapest-sim", "auto-ok", "old-ok")
		for _, r := range rows {
			tb.AddRowRaw(
				fmt.Sprint(r.N), fmt.Sprint(r.P), fmt.Sprint(r.RanksPerNode), fmt.Sprint(r.NICSerial),
				fmt.Sprintf("%.4f", r.Density*100),
				r.AutoChoice, r.OldChoice, r.CheapestSim,
				fmt.Sprint(r.AutoMatchesCheapest), fmt.Sprint(r.OldMatchesCheapest),
			)
		}
		return &result{tables: []*report.Table{tb}, doc: benchDoc{
			ID: "BENCH_2",
			Note: "contention-model sweep: per-algorithm modeled vs simulated time on two-level " +
				"topologies with the per-node NIC serialization cap on/off; auto_choice is the " +
				"cost-model Auto, old_heuristic_choice the replaced topology-presence rule, " +
				"cheapest_sim the empirically cheapest algorithm",
			Cells: rows,
		}}, nil
	}},
	// BENCH_3: the k-way merge / scratch ablation. Allocation counts
	// (testing.AllocsPerRun on deterministic single-goroutine reductions)
	// and simulated seconds are reproducible byte-for-byte, so
	// scripts/ci.sh regenerates the file and hard-fails on drift, exactly
	// like BENCH_2. Wall-clock ns/op for the same cells lives in the note
	// as a one-time snapshot (wall time is machine-dependent and cannot be
	// drift-gated; re-measure with `go test -bench BenchmarkAblationKWayMerge`).
	{"merge", func(o *options) (*result, error) {
		rows := experiments.MergeSweep()
		tb := report.NewTable("P", "N", "k", "pattern", "chained-allocs", "kway-allocs", "kway+scratch", "reduction%", "bit-identical", "split-sim")
		for _, r := range rows {
			tb.AddRowRaw(
				fmt.Sprint(r.P), fmt.Sprint(r.N), fmt.Sprint(r.K), r.Pattern,
				fmt.Sprintf("%.0f", r.ChainedAllocs),
				fmt.Sprintf("%.0f", r.KWayAllocs),
				fmt.Sprintf("%.0f", r.KWayScratchAllocs),
				fmt.Sprintf("%.1f", r.AllocReduction*100),
				fmt.Sprint(r.BitIdentical),
				report.FormatSeconds(r.SplitSimSeconds),
			)
		}
		return &result{tables: []*report.Table{tb}, doc: benchDoc{
			ID: "BENCH_3",
			Note: "k-way merge + scratch ablation: allocations per P-stream reduction for chained " +
				"two-way Add vs one-pass MergeK vs MergeK with a warm Scratch pool, bitwise equivalence, " +
				"and the deterministic simulated time of SSAR_Split_allgather at each shape. " +
				"Wall-clock snapshot at recording time (go1.24, one shared machine, k=2000, N=2^18): " +
				"chained 1.48ms/op vs k-way+scratch 0.95ms/op at P=16; 17.5ms/op vs 5.9ms/op at P=64 " +
				"(see BenchmarkAblationKWayMerge).",
			Cells: rows,
		}}, nil
	}},
	// BENCH_4: the hierarchy-depth ablation (flat vs 2-level vs 3-level
	// schemes on a DragonflyLike machine). Every metric is simulated
	// virtual time on seeded inputs, so the file is reproducible
	// byte-for-byte — scripts/ci.sh regenerates it and hard-fails on
	// drift, exactly like BENCH_2 and BENCH_3.
	{"hierlevels", func(o *options) (*result, error) {
		rows := experiments.HierLevelsSweep()
		tb := report.NewTable("family", "N", "P", "density%", "flat", "2-level", "3-level", "vs-flat", "vs-2level", "auto", "auto-ok")
		for _, r := range rows {
			auto := r.AutoChoice
			if r.AutoLevels > 0 {
				auto = fmt.Sprintf("%s@%d", r.AutoChoice, r.AutoLevels)
			}
			tb.AddRowRaw(
				r.Family, fmt.Sprint(r.N), fmt.Sprint(r.P),
				fmt.Sprintf("%.4f", r.Density*100),
				report.FormatSeconds(r.FlatSim),
				report.FormatSeconds(r.TwoLevelSim),
				report.FormatSeconds(r.ThreeLevelSim),
				fmt.Sprintf("%.2f", r.SpeedupOverFlat),
				fmt.Sprintf("%.2f", r.SpeedupOverTwoLevel),
				auto,
				fmt.Sprint(r.AutoMatchesCheapest),
			)
		}
		return &result{tables: []*report.Table{tb}, doc: benchDoc{
			ID: "BENCH_4",
			Note: "hierarchy-depth ablation on DragonflyLike(4,4): the same allreduce instance run " +
				"flat, with the 2-level (node-only) hierarchical scheme, and with the full 3-level " +
				"recursion on one world; auto_choice/auto_levels is what the level-aware cost model " +
				"(ChooseAutoLevels) resolves to, cheapest_sim the empirically cheapest depth",
			Cells: rows,
		}}, nil
	}},
	// BENCH_5: the runtime-adaptation ablation (static-uniform vs
	// static-clustered vs adaptive Auto on stationary and drifting
	// workloads). Every metric is simulated virtual time on seeded inputs,
	// so the file is reproducible byte-for-byte — scripts/ci.sh
	// regenerates it and hard-fails on drift, exactly like BENCH_2–4.
	{"adapt", func(o *options) (*result, error) {
		rows := experiments.AdaptSweep()
		return &result{tables: []*report.Table{experiments.AdaptTable(rows)}, doc: benchDoc{
			ID: "BENCH_5",
			Note: "runtime-adaptation ablation: the same call schedule run under static-uniform Auto " +
				"(the default), static-clustered Auto (Options.Support pinned to the 10%/70% default " +
				"shape), and the adaptive controller (internal/adapt: ShapeSketch support detection + " +
				"LinkCalibrator + hysteresis). Acceptance: adaptive_vs_uniform > 1 on the clustered and " +
				"drifting cells, within agreement-overhead noise (~1%, two tiny allreduces per call) of " +
				"1 on stationary uniform, and adaptive_vs_best_static within the same noise of >= 1 on " +
				"the drifting cells. Sketch overhead wall-clock snapshot at recording time (go1.24, one " +
				"shared machine): ~8us per observed call vs ~1.3ms per P=16 k-way split-phase merge " +
				"(~0.6%, within the 2% budget; ~0.1% at P=64) — see BenchmarkAblationSketchOverhead, " +
				"re-measure with go test -bench (wall time is machine-dependent and cannot be drift-gated).",
			Cells: rows,
		}}, nil
	}},
	// Snapshot-only: unlike BENCH_5 this document is NOT drift-gated (and
	// carries no id) — the library grows, and each new scenario
	// legitimately adds a row.
	{"adaptdiv", func(o *options) (*result, error) {
		rows := experiments.AdaptDiversitySweep()
		return &result{tables: []*report.Table{experiments.AdaptTable(rows)}, doc: benchDoc{
			Note: "scenario-diversity check: the adaptation ablation arms run over the entire " +
				"scenario library (not just the BENCH_5 cells). Snapshot-only, NOT drift-gated.",
			Cells: rows,
		}}, nil
	}},
	// BENCH_8: the multi-tenant cluster sweep (per-job slowdown and
	// per-policy summaries across placement policies on shared
	// ingress-capped machines) plus the pinned scenario-diversity
	// adaptation cells promoted from the snapshot-only adaptdiv sweep.
	// Every metric is simulated virtual time on seed-isolated streams, so
	// the file is reproducible byte-for-byte — scripts/ci.sh regenerates it
	// and hard-fails on drift like BENCH_2–5 and 7, and
	// TestBench8AcceptanceCriteria enforces the acceptance invariants
	// against the committed file.
	{"cluster", func(o *options) (*result, error) {
		rows, summaries := experiments.ClusterSweep()
		tb := report.NewTable("scale", "policy", "job", "P", "steps", "sim", "isolated", "slowdown", "predicted-job", "algorithm", "switches")
		for _, r := range rows {
			tb.AddRowRaw(
				r.Scale, r.Policy, r.Job, fmt.Sprint(r.P), fmt.Sprint(r.Steps),
				report.FormatSeconds(r.SimSeconds),
				report.FormatSeconds(r.IsolatedSim),
				fmt.Sprintf("%.3f", r.Slowdown),
				report.FormatSeconds(r.PredictedJob),
				r.Algorithm, fmt.Sprint(r.Switches),
			)
		}
		st := report.NewTable("scale", "policy", "jobs", "peak", "mean-slowdown", "max-slowdown", "mean-predicted-job", "makespan")
		for _, s := range summaries {
			st.AddRowRaw(
				s.Scale, s.Policy, fmt.Sprint(s.Jobs), fmt.Sprint(s.ConcurrentPeak),
				fmt.Sprintf("%.3f", s.MeanSlowdown),
				fmt.Sprintf("%.3f", s.MaxSlowdown),
				report.FormatSeconds(s.MeanPredictedJob),
				report.FormatSeconds(s.MakespanSeconds),
			)
		}
		res := &result{tables: []*report.Table{tb, st}}
		if o.json { // the adapt cells are only part of the document
			res.doc = struct {
				benchDoc
				Policies   []experiments.ClusterPolicySummary `json:"policy_summary"`
				AdaptCells []experiments.AdaptRow             `json:"adapt_cells"`
			}{benchDoc{
				ID: "BENCH_8",
				Note: "multi-tenant cluster sweep: the same eight-job mix (uniform and clustered workloads, " +
					"densities cycling around the regime gate) gang-scheduled onto a shared ingress-capped " +
					"three-level machine under each placement policy — packed, spread, random, cost-aware — " +
					"at two scales (64 slots the mix fills exactly, 128 slots with headroom). slowdown is " +
					"sim_seconds over the job's isolated baseline (alone on the idle machine, packed, no " +
					"jitter); contention is dynamic, from the in-flight flow counters the cluster serves " +
					"through the comm ActivitySource seam. Acceptance (TestBench8AcceptanceCriteria): the " +
					"full mix runs concurrently (concurrent_peak = jobs), no job runs faster than isolated, " +
					"packed slowdown stays 1.0 on exclusive groups, and the cost-aware policy's " +
					"mean_predicted_job_seconds strictly beats random's at every scale. adapt_cells are the " +
					"scenario-diversity adaptation rows (Bench8AdaptNames: the whole library, pinned by " +
					"name so library growth never drifts this file) on the BENCH_5 machine shape and key — " +
					"the four shared workloads reproduce the BENCH_5 rows exactly, and the gate extends " +
					"adaptive >= static-uniform (within noise) to the clustered/drifting diversity cells.",
				Cells: rows,
			}, summaries, experiments.ClusterAdaptCells()}
		}
		return res, nil
	}},
	// BENCH_6: the execution-backend comparison plus the wall-clock
	// calibration demo. Unlike BENCH_2–5 this file is NOT drift-gated
	// byte-for-byte: wall_seconds, alpha_seconds, and
	// beta_seconds_per_byte are measured on whatever machine recorded it
	// and vary run to run. The deterministic claims — every real backend's
	// results bit-identical to the simulator's, a usable measured link
	// fit, all ranks agreeing on the Auto resolution — are what CI
	// enforces (via the equivalence and calibration tests); the committed
	// file is a one-time snapshot, re-record with
	// `sparbench -sweep transport -json`.
	{"transport", func(o *options) (*result, error) {
		var backends []string
		switch o.transport {
		case "goroutine", "tcp":
			backends = []string{o.transport}
		case "all":
			backends = []string{"goroutine", "tcp"}
		default:
			return nil, fmt.Errorf("unknown -transport %q (want goroutine, tcp, or all)", o.transport)
		}
		rows, demo, err := experiments.TransportSweep(backends)
		if err != nil {
			return nil, err
		}
		tb := report.NewTable("transport", "algorithm", "N", "P", "k", "sim", "wall", "bit-identical")
		for _, r := range rows {
			tb.AddRowRaw(
				r.Transport, r.Algorithm,
				fmt.Sprint(r.N), fmt.Sprint(r.P), fmt.Sprint(r.K),
				report.FormatSeconds(r.SimSeconds),
				report.FormatSeconds(r.WallSeconds),
				fmt.Sprint(r.BitIdenticalToSim),
			)
		}
		return &result{
			tables: []*report.Table{tb},
			footer: fmt.Sprintf("# calibration demo (%s, P=%d N=%d k=%d, %d adaptive calls): samples=%d fit_ok=%v alpha=%.3gs beta=%.3gs/B choice=%s ranks_agree=%v bit_identical=%v\n",
				demo.Transport, demo.P, demo.N, demo.K, demo.Calls, demo.Samples, demo.FitOK,
				demo.AlphaSeconds, demo.BetaSecondsPerByte, demo.Choice, demo.RanksAgree, demo.BitIdenticalToStatic),
			doc: struct {
				benchDoc
				Calib experiments.CalibDemo `json:"calibration_demo"`
			}{benchDoc{
				ID: "BENCH_6",
				Note: "execution-backend comparison: the same seeded allreduce instances on the simulator " +
					"(virtual time) and the real transports (goroutine channels / loopback TCP, measured " +
					"wall time), with bit-identity of every rank's result against the simulator; plus the " +
					"calibration demo — the adaptive controller on the goroutine backend fitting alpha-beta " +
					"link constants from measured transfer durations and resolving Auto from them. " +
					"wall_seconds / alpha_seconds / beta_seconds_per_byte are machine-dependent snapshots " +
					"and are NOT drift-gated (unlike BENCH_2-5); the deterministic fields are enforced by " +
					"TestCrossTransportEquivalence and TestControllerOnGoroutineTransport instead.",
				Cells: rows,
			}, demo},
		}, nil
	}},
	// BENCH_7: the overlap/bucketing ablation (fused vs per-layer
	// nonblocking vs bucket-fusion scheduler on the layered workloads)
	// plus the pipelining-term validation cells. Every numeric field is
	// simulated virtual time on seeded inputs, so the file is reproducible
	// byte-for-byte — scripts/ci.sh regenerates it and hard-fails on drift
	// like BENCH_2–5. The wall-clock side of the story (where bucketing
	// beats per-layer issue) is machine-dependent and lives in the note as
	// a recorded snapshot; re-measure with `sparbench -sweep overlapwall`.
	{"overlap", func(o *options) (*result, error) {
		rows := experiments.OverlapSweep()
		pm := experiments.PipeModelSweep()
		tb := report.NewTable("workload", "N", "P", "calls", "layers", "buckets", "bucket-coords", "fused", "layerwise", "bucketed", "layerwise-nb", "bucketed-vs-fused", "bucketed-vs-layerwise")
		for _, r := range rows {
			tb.AddRowRaw(
				r.Workload, fmt.Sprint(r.N), fmt.Sprint(r.P), fmt.Sprint(r.Calls),
				fmt.Sprint(r.Layers), fmt.Sprint(r.Buckets), fmt.Sprint(r.BucketCoords),
				report.FormatSeconds(r.FusedSim),
				report.FormatSeconds(r.LayerwiseSim),
				report.FormatSeconds(r.BucketedSim),
				report.FormatSeconds(r.LayerwiseNBSim),
				fmt.Sprintf("%.3f", r.BucketedVsFused),
				fmt.Sprintf("%.3f", r.BucketedVsLayerwise),
			)
		}
		pt := report.NewTable("N", "P", "k", "chunks", "sim", "model", "model/sim")
		for _, r := range pm {
			pt.AddRowRaw(
				fmt.Sprint(r.N), fmt.Sprint(r.P), fmt.Sprint(r.K), fmt.Sprint(r.Chunks),
				report.FormatSeconds(r.SimSeconds),
				report.FormatSeconds(r.ModelSeconds),
				fmt.Sprintf("%.3f", r.ModelOverSim),
			)
		}
		return &result{tables: []*report.Table{tb, pt}, doc: struct {
			benchDoc
			PipeModel []experiments.PipeModelRow `json:"pipeline_model_cells"`
		}{benchDoc{
			ID: "BENCH_7",
			Note: "overlap/bucketing ablation: the library's layered workload profiles at N=2^20 run as " +
				"(1) one fused blocking allreduce per call, (2) one blocking allreduce per model layer — " +
				"the naive layer-wise loop, and (3) the bucket-fusion scheduler (core.BucketScheduler, " +
				"BucketCoords-sized buckets issued nonblocking in backprop order, AutoChunks pipelining). " +
				"bucketed_vs_layerwise > 1 is the drift-gated headline; bucketed_vs_fused > 1 shows " +
				"model-sized buckets also beat the monolithic exchange. " +
				"layerwise_nonblocking_sim_seconds records per-layer nonblocking issue for comparison: " +
				"on the simulator outstanding collectives max-compose at zero per-call cost, so at equal " +
				"per-collective options it is a virtual-time lower bound — chunked pipelining is how the " +
				"bucketed arm still undercuts it, and the per-call issue cost it hides is a wall " +
				"phenomenon. Wall snapshot at recording time (goroutine transport, go1.24, one " +
				"shared machine, median of 5, pinned SSAR_Split_allgather): " + wallSnapshot + " — " +
				"machine-dependent, NOT drift-gated, re-measure with `sparbench -sweep overlapwall`. " +
				"pipeline_model_cells validate the cost model's chunked-pipelining term: the same " +
				"seeded instance simulated at chunks 1/2/4/8 vs PredictSeconds; model_over_sim stays " +
				"within the band asserted by TestBench7PipelineModelBand.",
			Cells: rows,
		}, pm}}, nil
	}},
	{"overlapwall", func(o *options) (*result, error) {
		rows := experiments.OverlapWallSweep(o.runs)
		tb := report.NewTable("workload", "calls", "layers", "buckets", "runs", "layerwise-wall", "bucketed-wall", "bucketed-vs-layerwise")
		for _, r := range rows {
			tb.AddRowRaw(
				r.Workload, fmt.Sprint(r.Calls), fmt.Sprint(r.Layers), fmt.Sprint(r.Buckets),
				fmt.Sprint(r.Runs),
				report.FormatSeconds(r.LayerwiseWall),
				report.FormatSeconds(r.BucketedWall),
				fmt.Sprintf("%.3f", r.BucketedVsLayerwise),
			)
		}
		return &result{tables: []*report.Table{tb}, doc: rows}, nil
	}},
	// trace runs one recursive-doubling sparse allreduce with tracing
	// enabled and prints the virtual-time message timeline (the Figure 2
	// schedule, observable directly).
	{"trace", func(o *options) (*result, error) {
		prof, err := profileOrDefault(o.profile, "aries")
		if err != nil {
			return nil, err
		}
		world := comm.NewWorld(o.p, prof)
		tr := world.EnableTrace()
		rng := rand.New(rand.NewSource(1))
		k := max(int(o.density*float64(o.n)), 1)
		inputs := make([]*stream.Vector, o.p)
		for r := range inputs {
			seen := map[int32]bool{}
			idx := make([]int32, 0, k)
			val := make([]float64, 0, k)
			for len(idx) < k {
				ix := int32(rng.Intn(o.n))
				if !seen[ix] {
					seen[ix] = true
					idx = append(idx, ix)
					val = append(val, rng.NormFloat64())
				}
			}
			inputs[r] = stream.NewSparse(o.n, idx, val, stream.OpSum)
		}
		comm.Run(world, func(p *comm.Proc) any {
			return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARRecDouble})
		})
		var b strings.Builder
		fmt.Fprintf(&b, "# SSAR_Recursive_double message timeline: N=%d d=%.4f%% P=%d profile=%s\n",
			o.n, o.density*100, o.p, prof.Name)
		tr.Dump(&b)
		counts, bytes := tr.Rounds()
		fmt.Fprintf(&b, "\n# rounds: %d; per-round messages %v\n", len(counts), counts)
		fmt.Fprintf(&b, "# per-round bytes %v (geometric growth under low overlap)\n", bytes)
		return &result{header: b.String()}, nil
	}},
}

// runHier is the hier (flat SSAR vs SSAR_Hierarchical, latency-bound
// density) and, with dsar, the hierdsar (flat DSAR vs DSAR_Hierarchical
// under the NIC cap, dense regime at a moderate dimension) sweep from two
// rpn-rank nodes up to -maxp ranks. Explicit -n/-density flags override
// the sweep's defaults.
func runHier(o *options, dsar bool) (*result, error) {
	intra, inter, err := machine(o)
	if err != nil {
		return nil, err
	}
	n, d := o.n, 1e-4
	if dsar {
		d = 0.6
		if !o.set["n"] {
			n = 1 << 18
		}
	}
	if o.set["density"] {
		d = o.density
	}
	// Start at two nodes: single-node shapes (P ≤ rpn) carry no hierarchy
	// and are skipped by the sweeps anyway.
	ranks := report.Pow2Range(2*o.rpn, o.maxP)
	if len(ranks) == 0 {
		return nil, fmt.Errorf("-maxp %d yields no multi-node shapes (need at least %d ranks for 2 nodes of %d)",
			o.maxP, 2*o.rpn, o.rpn)
	}
	var header string
	var rows []experiments.HierRow
	if dsar {
		header = fmt.Sprintf("# hierarchical DSAR under NIC contention: flat DSAR vs DSAR_Hierarchical on %d×%s/%s nodes, nic=%d; N=%d d=%.2f%%\n",
			o.rpn, intra.Name, inter.Name, o.nic, n, d*100)
		rows = experiments.HierDSARNodeSweep(n, d, ranks, o.rpn, o.nic, intra, inter, o.gens, o.runs)
	} else {
		header = fmt.Sprintf("# hierarchical crossover: flat SSAR_Split_allgather on %s vs SSAR_Hierarchical on %d×%s/%s nodes; N=%d d=%.4f%%\n",
			inter.Name, o.rpn, intra.Name, inter.Name, n, d*100)
		rows = experiments.HierNodeSweep(n, d, ranks, o.rpn, intra, inter, o.gens, o.runs)
	}
	tb := report.NewTable("P", "ranks/node", "flat-median", "hier-median", "speedup", "flat-msgs", "hier-msgs")
	for _, r := range rows {
		tb.AddRowRaw(
			fmt.Sprint(r.P),
			fmt.Sprint(r.RanksPerNode),
			report.FormatSeconds(r.FlatMedian),
			report.FormatSeconds(r.HierMedian),
			fmt.Sprintf("%.2f", r.Speedup),
			fmt.Sprint(r.FlatMsgs),
			fmt.Sprint(r.HierMsgs),
		)
	}
	return &result{header: header, tables: []*report.Table{tb}}, nil
}

// microbenchTable renders the Figure 3 rows of the nodes and density sweeps.
func microbenchTable(rows []experiments.MicrobenchRow) *report.Table {
	tb := report.NewTable("algorithm", "P", "density%", "median", "q25", "q75", "result_nnz", "dense?")
	for _, r := range rows {
		tb.AddRowRaw(
			r.Algorithm.String(),
			fmt.Sprint(r.P),
			fmt.Sprintf("%.4f", r.Density*100),
			report.FormatSeconds(r.Median),
			report.FormatSeconds(r.Q25),
			report.FormatSeconds(r.Q75),
			fmt.Sprint(r.ResultNNZ),
			fmt.Sprint(r.ResultDense),
		)
	}
	return tb
}

// wallSnapshot is the recorded one-machine wall measurement quoted in the
// BENCH_7 note (static text so the document stays byte-gateable).
const wallSnapshot = "lstm-1m (3 layers -> 3 buckets) layerwise 222ms vs bucketed 208ms (1.07x), " +
	"transformer-1m (4 layers -> 3 buckets) 173ms vs 172ms (1.00x); the wall margin is modest " +
	"because P=8 rank goroutines already saturate the recording machine's cores, so overlapped " +
	"merges add little throughput — the latency floors bucketing removes are what the simulated " +
	"cells isolate"

// machine resolves the two-level machine of the hier, hierdsar and
// contention sweeps: -intra within a node, -profile (default aries)
// between nodes.
func machine(o *options) (intra, inter simnet.Profile, err error) {
	if inter, err = profileOrDefault(o.profile, "aries"); err != nil {
		return
	}
	intra, err = profileOrDefault(o.intra, "nvlink")
	return
}

func profileOrDefault(name, fallback string) (simnet.Profile, error) {
	if name == "" {
		name = fallback
	}
	return simnet.ProfileByName(name)
}
