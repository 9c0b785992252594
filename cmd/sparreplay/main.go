// Command sparreplay records and replays deterministic workload traces.
// A trace is the per-step, per-rank input schedule one scenario generation
// emitted, serialized field-exact (internal/scenario); replaying it
// through the adaptation cell runner reproduces the live run's decisions
// and simulated times byte for byte.
//
// Usage:
//
//	sparreplay -list
//	sparreplay -scenario clustered [-seed 701] [-rpn 4] [-nic 1] [-json]   # live run
//	sparreplay -record -scenario clustered -out clustered.trace [-seed 701]
//	sparreplay -replay clustered.trace [-rpn 4] [-nic 1] [-json]
//	sparreplay -scenario lstm -obs trace.json [-obsmetrics metrics.txt]
//
// A live run and a replay of its recorded trace emit identical bytes —
// scripts/ci.sh diffs exactly that, including the -obs Perfetto export:
// replaying a recorded trace reproduces the live timeline byte for byte.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sparreplay: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sparreplay", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list the scenario library and exit")
		name    = fs.String("scenario", "", "library scenario to run or record")
		record  = fs.Bool("record", false, "record the scenario's trace to -out instead of running it")
		out     = fs.String("out", "", "output path for -record")
		replay  = fs.String("replay", "", "trace file to replay instead of generating live")
		seed    = fs.Int64("seed", experiments.AdaptSeed, "generation seed (the BENCH_5 sweep's default)")
		rpn     = fs.Int("rpn", 4, "ranks per node of the simulated topology")
		nic     = fs.Int("nic", 1, "per-node NIC serialization cap")
		jsonOut = fs.Bool("json", false, "emit the cell row as JSON instead of a table")
		obsOut  = fs.String("obs", "", "write the adaptive arm's Chrome trace-event JSON (Perfetto) here")
		obsMet  = fs.String("obsmetrics", "", "write the adaptive arm's plain-text metrics dump here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		tb := report.NewTable("scenario", "N", "P", "calls", "blocks", "layers", "zipf", "ragged")
		for _, sc := range scenario.Library() {
			tb.AddRowRaw(
				sc.Name, fmt.Sprint(sc.N), fmt.Sprint(sc.P), fmt.Sprint(sc.Calls),
				fmt.Sprint(len(sc.Blocks)), fmt.Sprint(len(sc.Layers)),
				fmt.Sprintf("%.2f", sc.ZipfS), fmt.Sprintf("%.2f", sc.Ragged),
			)
		}
		return tb.Emit(stdout, false)
	}

	if *replay != "" {
		tr, err := scenario.ReadFile(*replay)
		if err != nil {
			return err
		}
		if *obsOut != "" || *obsMet != "" {
			row, hub := experiments.ReplayAdaptCellObs(*rpn, *nic, tr)
			if err := writeObs(hub, *obsOut, *obsMet); err != nil {
				return err
			}
			return emitRow(stdout, row, *jsonOut)
		}
		return emitRow(stdout, experiments.ReplayAdaptCell(*rpn, *nic, tr), *jsonOut)
	}

	if *name == "" {
		return fmt.Errorf("need -scenario (or -replay / -list); see -h")
	}
	sc, err := scenario.ByName(*name)
	if err != nil {
		return err
	}
	key := scenario.NewKey(*seed)

	if *record {
		if *out == "" {
			return fmt.Errorf("-record needs -out")
		}
		tr := scenario.Record(sc, key)
		if err := tr.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %s: %d steps x %d ranks, N=%d, key=%#x -> %s\n",
			sc.Name, len(tr.Steps), tr.P, tr.N, uint64(key), *out)
		return nil
	}

	if *obsOut != "" || *obsMet != "" {
		row, hub := experiments.RunAdaptCellObs(*rpn, *nic, sc, key)
		if err := writeObs(hub, *obsOut, *obsMet); err != nil {
			return err
		}
		return emitRow(stdout, row, *jsonOut)
	}
	return emitRow(stdout, experiments.RunAdaptCell(*rpn, *nic, sc, key), *jsonOut)
}

// writeObs exports the hub's Chrome trace and/or metrics dump to the
// given paths (empty path = skip).
func writeObs(hub *obs.Obs, tracePath, metricsPath string) error {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := hub.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := hub.WriteMetrics(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// emitRow prints one adaptation-cell row. The JSON form is byte-stable:
// a live run and a replay of its trace must produce identical output.
func emitRow(w io.Writer, row experiments.AdaptRow, jsonOut bool) error {
	if jsonOut {
		return report.WriteJSON(w, row)
	}
	return experiments.AdaptTable([]experiments.AdaptRow{row}).Emit(w, false)
}
