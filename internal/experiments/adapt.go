package experiments

import (
	"fmt"
	"math"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// This file holds the runtime-adaptation ablation recorded as
// BENCH_5.json: the same call sequence run with static-uniform Auto (the
// default), static-clustered Auto (Options.Support pinned), and the
// adaptive controller (internal/adapt), on stationary uniform, stationary
// clustered, and two drifting workloads — one drifting into clustering
// (where the uniform support model flips the δ gate wrongly) and one
// drifting into density under mild clustering (where the clustered model
// with its default shape is the wrong one). The workloads are the
// declarative BENCH_5 cells of internal/scenario; every metric is
// simulated virtual time on seed-isolated inputs, so the document is
// reproducible byte-for-byte and scripts/ci.sh drift-gates it like
// BENCH_2–4. Any cell can be recorded to a trace (scenario.Record) and
// re-run byte-identically from the file via ReplayAdaptCell.

// AdaptRow is one workload cell of the adaptation ablation.
type AdaptRow struct {
	Workload     string `json:"workload"`
	N            int    `json:"n"`
	P            int    `json:"p"`
	RanksPerNode int    `json:"ranks_per_node"`
	NICSerial    int    `json:"nic_serial"`
	Calls        int    `json:"calls"`
	// KStart and KEnd are the per-rank non-zero counts of the first and
	// last call (equal on stationary workloads).
	KStart int `json:"k_start"`
	KEnd   int `json:"k_end"`
	// Simulated total time of the whole call sequence per arm.
	StaticUniformSim   float64 `json:"static_uniform_sim_seconds"`
	StaticClusteredSim float64 `json:"static_clustered_sim_seconds"`
	AdaptiveSim        float64 `json:"adaptive_sim_seconds"`
	// AdaptiveVsUniform is StaticUniformSim/AdaptiveSim (the acceptance
	// headline: > 1 means adaptive beats the default static Auto);
	// AdaptiveVsBestStatic compares against the better static arm.
	AdaptiveVsUniform    float64 `json:"adaptive_vs_uniform"`
	AdaptiveVsBestStatic float64 `json:"adaptive_vs_best_static"`
	// AdaptiveSwitches counts post-adoption algorithm/depth switches
	// (bounded by hysteresis); AdaptiveClusteredCalls counts decided calls
	// that selected the clustered support model; FinalChoice is the
	// algorithm (and depth, when hierarchical) the controller ended on.
	AdaptiveSwitches       int    `json:"adaptive_switches"`
	AdaptiveClusteredCalls int    `json:"adaptive_clustered_calls"`
	FinalChoice            string `json:"final_choice"`
}

// AdaptTable renders adaptation-cell rows as the table the adapt and
// adaptdiv sweeps of cmd/sparbench and cmd/sparreplay print.
func AdaptTable(rows []AdaptRow) *report.Table {
	tb := report.NewTable("workload", "N", "P", "calls", "k-range", "static-uniform", "static-clustered", "adaptive", "vs-uniform", "vs-best", "switches", "clustered-calls", "final")
	for _, r := range rows {
		tb.AddRowRaw(
			r.Workload, fmt.Sprint(r.N), fmt.Sprint(r.P), fmt.Sprint(r.Calls),
			fmt.Sprintf("%d..%d", r.KStart, r.KEnd),
			report.FormatSeconds(r.StaticUniformSim),
			report.FormatSeconds(r.StaticClusteredSim),
			report.FormatSeconds(r.AdaptiveSim),
			fmt.Sprintf("%.3f", r.AdaptiveVsUniform),
			fmt.Sprintf("%.3f", r.AdaptiveVsBestStatic),
			fmt.Sprint(r.AdaptiveSwitches),
			fmt.Sprint(r.AdaptiveClusteredCalls),
			r.FinalChoice,
		)
	}
	return tb
}

// RunAdaptCell measures one scenario cell: the schedule generated under
// key, run under the three arms on identical fresh worlds. Simulated
// times are deterministic, so one run per arm suffices.
func RunAdaptCell(rpn, nic int, sc scenario.Scenario, key scenario.SimulationKey) AdaptRow {
	row, _ := runAdaptSchedule(rpn, nic, sc.Name, sc.N, sc.P, sc.Generator(key).All(), false)
	return row
}

// RunAdaptCellObs is RunAdaptCell with observability attached to the
// adaptive arm's world: the returned hub carries per-rank send and
// collective-phase spans plus the adapt decision instants, ready for
// WriteChrome/WriteMetrics. The static arms stay uninstrumented, so the
// row itself is byte-identical to RunAdaptCell's.
func RunAdaptCellObs(rpn, nic int, sc scenario.Scenario, key scenario.SimulationKey) (AdaptRow, *obs.Obs) {
	return runAdaptSchedule(rpn, nic, sc.Name, sc.N, sc.P, sc.Generator(key).All(), true)
}

// ReplayAdaptCell re-runs a cell from a recorded trace. Because the trace
// codec reconstructs every input vector field-exact and the arms are
// deterministic given their inputs, the returned row is byte-identical to
// the live run that recorded the trace.
func ReplayAdaptCell(rpn, nic int, tr *scenario.Trace) AdaptRow {
	row, _ := runAdaptSchedule(rpn, nic, tr.Name, tr.N, tr.P, tr.Steps, false)
	return row
}

// ReplayAdaptCellObs is ReplayAdaptCell with observability attached, the
// replay-side twin of RunAdaptCellObs: replaying a recorded trace yields
// a hub whose exported timeline is byte-identical to the live run's,
// because the simulator's virtual clocks are deterministic given the
// reconstructed inputs.
func ReplayAdaptCellObs(rpn, nic int, tr *scenario.Trace) (AdaptRow, *obs.Obs) {
	return runAdaptSchedule(rpn, nic, tr.Name, tr.N, tr.P, tr.Steps, true)
}

// runAdaptSchedule is the shared measurement core of the live and replay
// paths: both reduce to "run this exact schedule under the three arms".
// When observe is set, the adaptive arm's world gets an obs hub (returned
// to the caller); the hooks only read the virtual clocks, so the row is
// identical either way.
func runAdaptSchedule(rpn, nic int, name string, n, P int, sched [][]*stream.Vector, observe bool) (AdaptRow, *obs.Obs) {
	topo := simnet.TwoLevel(rpn, simnet.NVLinkLike, simnet.Aries, nic)
	row := AdaptRow{
		Workload: name, N: n, P: P, RanksPerNode: rpn, NICSerial: nic,
		Calls: len(sched), KStart: sched[0][0].NNZ(), KEnd: sched[len(sched)-1][0].NNZ(),
	}

	static := func(opts core.Options) float64 {
		w := comm.NewWorldHier(P, topo)
		comm.Run(w, func(p *comm.Proc) any {
			for _, inputs := range sched {
				core.Allreduce(p, inputs[p.Rank()], opts)
			}
			return nil
		})
		return w.MaxTime()
	}
	row.StaticUniformSim = static(core.Options{})
	row.StaticClusteredSim = static(core.Options{Support: core.SupportClustered})

	w := comm.NewWorldHier(P, topo)
	var hub *obs.Obs
	if observe {
		hub = w.EnableObservability()
	}
	tr := w.EnableTrace()
	tr.LimitPerRank(4096)
	ctrls := make([]*adapt.Controller, P)
	for r := range ctrls {
		ctrls[r] = adapt.NewController(adapt.Config{})
		ctrls[r].AttachTracer(tr, r)
	}
	comm.Run(w, func(p *comm.Proc) any {
		for _, inputs := range sched {
			ctrls[p.Rank()].Allreduce(p, inputs[p.Rank()], core.Options{})
		}
		return nil
	})
	row.AdaptiveSim = w.MaxTime()
	row.AdaptiveSwitches = ctrls[0].Switches()
	row.AdaptiveClusteredCalls = ctrls[0].ClusteredCalls()
	alg, levels := ctrls[0].Choice()
	row.FinalChoice = alg.String()
	if levels > 0 {
		row.FinalChoice = fmt.Sprintf("%s@%d", alg, levels)
	}

	if row.AdaptiveSim > 0 {
		row.AdaptiveVsUniform = row.StaticUniformSim / row.AdaptiveSim
		row.AdaptiveVsBestStatic = math.Min(row.StaticUniformSim, row.StaticClusteredSim) / row.AdaptiveSim
	}
	return row, hub
}

// AdaptSeed seeds the BENCH_5 sweep; cmd/sparreplay records its traces
// under the same key so a recorded cell replays the committed document
// rows exactly.
const AdaptSeed = 701

// AdaptSweep runs the BENCH_5 scenario cells (scenario.Bench5Names) on a
// 32-rank, 4-ranks-per-node contended topology at N = 2^18. Densities sit
// around the δ regime gate, where the support model actually flips
// decisions: at P = 32 the uniform worst case routes to the dense-result
// family from d ≈ 3.4%, while a 5%-wide hot block holding ~90% of the
// mass keeps the true union around a fifth of the space — where the
// sparse-result family simulates ~20% faster than the dense one the
// uniform model picks.
func AdaptSweep() []AdaptRow {
	const (
		rpn = 4
		nic = 1
	)
	key := scenario.NewKey(AdaptSeed)
	names := scenario.Bench5Names()
	rows := make([]AdaptRow, 0, len(names))
	for _, name := range names {
		sc, err := scenario.ByName(name)
		if err != nil {
			panic(err) // the library always carries its own cells
		}
		rows = append(rows, RunAdaptCell(rpn, nic, sc, key))
	}
	return rows
}

// AdaptDiversitySweep runs the adaptation ablation across the *entire*
// scenario library (scenario.Names) rather than the four BENCH_5 cells:
// the same three arms per workload, on the same machine shape. Library
// scenarios vary P, N, and call counts, so this sweep is a
// scenario-diversity check (does the controller ever lose badly to the
// static arms on shapes it was not tuned on?) and is reported
// snapshot-only — it is NOT drift-gated, because adding a library entry
// legitimately adds a row.
func AdaptDiversitySweep() []AdaptRow {
	key := scenario.NewKey(AdaptSeed)
	names := scenario.Names()
	rows := make([]AdaptRow, 0, len(names))
	for _, name := range names {
		sc, err := scenario.ByName(name)
		if err != nil {
			panic(err)
		}
		rows = append(rows, RunAdaptCell(4, 1, sc, key))
	}
	return rows
}
