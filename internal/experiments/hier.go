package experiments

import (
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/simnet"
)

// The hierarchical micro-benchmark measures the flat-vs-hierarchical
// crossover the paper's flat α–β analysis cannot see: the same sparse
// allreduce instance run once with flat SSAR_Split_allgather on a world
// priced entirely by the inter-node profile, and once with HierSSAR on a
// two-level topology (cheap intra-node links, same inter-node network).
// The flat latency term (P−1)·α shrinks to (P/r−1)·α, so the hierarchical
// scheme wins in the latency-bound regime and converges to flat as the
// data grows bandwidth-bound.

// HierRow is one flat-vs-hierarchical measurement cell.
type HierRow struct {
	N, P, RanksPerNode int
	Density            float64
	// FlatMedian and HierMedian are simulated allreduce times in seconds.
	FlatMedian, HierMedian float64
	// Speedup is FlatMedian / HierMedian.
	Speedup float64
	// FlatMsgs and HierMsgs are total message counts for one allreduce.
	FlatMsgs, HierMsgs int64
}

// RunHierCell measures one configuration: flat SSAR_Split_allgather on the
// inter profile versus HierSSAR on TwoLevel(rpn, intra, inter, 0).
func RunHierCell(n int, density float64, P, rpn int, intra, inter simnet.Profile, gens, runs int, seed int64) HierRow {
	if gens <= 0 {
		gens = 2
	}
	if runs <= 0 {
		runs = 3
	}
	row := HierRow{N: n, P: P, RanksPerNode: rpn, Density: density}
	topo := simnet.TwoLevel(rpn, intra, inter, 0)
	var flat, hier report.Sample
	for g := 0; g < gens; g++ {
		rng := rand.New(rand.NewSource(seed + int64(g)*6151))
		inputs := uniformInputs(rng, n, density, P)
		for r := 0; r < runs; r++ {
			fw := comm.NewWorld(P, inter)
			comm.Run(fw, func(p *comm.Proc) any {
				return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.SSARSplitAllgather})
			})
			flat.Add(fw.MaxTime())
			row.FlatMsgs = fw.TotalMessages()

			hw := comm.NewWorldHier(P, topo)
			comm.Run(hw, func(p *comm.Proc) any {
				return core.Allreduce(p, inputs[p.Rank()], core.Options{Algorithm: core.HierSSAR})
			})
			hier.Add(hw.MaxTime())
			row.HierMsgs = hw.TotalMessages()
		}
	}
	row.FlatMedian = flat.Median()
	row.HierMedian = hier.Median()
	if row.HierMedian > 0 {
		row.Speedup = row.FlatMedian / row.HierMedian
	}
	return row
}

// HierNodeSweep measures the flat-vs-hierarchical comparison across total
// rank counts at fixed ranks-per-node and density (the issue's acceptance
// scenario P=32, 4 ranks/node, NVLink-like intra + Aries inter is one
// cell of the default sweep). Single-node shapes (P ≤ rpn) are skipped:
// there the "hierarchical" run degrades to flat SSAR with every link
// intra-priced, so its speedup would measure the profile price ratio, not
// the algorithm.
func HierNodeSweep(n int, density float64, ranks []int, rpn int, intra, inter simnet.Profile, gens, runs int) []HierRow {
	var rows []HierRow
	for _, P := range ranks {
		if P <= rpn {
			continue
		}
		rows = append(rows, RunHierCell(n, density, P, rpn, intra, inter, gens, runs, int64(P)*7529))
	}
	return rows
}

// HierDensitySweep measures the comparison across per-rank densities at a
// fixed world shape, locating the latency→bandwidth crossover.
func HierDensitySweep(n int, densities []float64, P, rpn int, intra, inter simnet.Profile, gens, runs int) []HierRow {
	var rows []HierRow
	for _, d := range densities {
		rows = append(rows, RunHierCell(n, d, P, rpn, intra, inter, gens, runs, int64(d*1e7)+29))
	}
	return rows
}
