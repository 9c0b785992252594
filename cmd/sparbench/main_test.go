package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunNodesSweepTiny(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-sweep", "nodes", "-n", "4096", "-maxp", "4", "-gens", "1", "-runs", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "SSAR_Recursive_double") || !strings.Contains(out, "Figure 3") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunHierSweepTiny(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-sweep", "hier", "-n", "16384", "-maxp", "8", "-rpn", "4", "-gens", "1", "-runs", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hierarchical crossover") || !strings.Contains(out, "speedup") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunTraceTiny(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-sweep", "trace", "-n", "1024", "-p", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "message timeline") {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}
}

func TestRunCSVAndErrors(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-sweep", "density", "-n", "1024", "-p", "2", "-gens", "1", "-runs", "1", "-csv"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "algorithm,P") {
		t.Fatalf("want CSV header, got:\n%s", buf.String())
	}
	if err := run([]string{"-sweep", "bogus"}, &buf); err == nil || !strings.Contains(err.Error(), "overlapwall | trace") {
		t.Fatalf("unknown sweep must error and list the registry, got %v", err)
	}
	if err := run([]string{"-sweep", "nodes", "-profile", "bogus"}, &buf); err == nil {
		t.Fatal("unknown profile must error")
	}
	// Regression: -rpn 0 used to hang in Pow2Range(0, maxp).
	if err := run([]string{"-sweep", "hier", "-rpn", "0"}, &buf); err == nil {
		t.Fatal("rpn < 1 must error")
	}
	// Regression: -json used to be ignored by the sweeps without a JSON
	// document, printing the table and exiting 0.
	tiny := []string{"-n", "1024", "-p", "2", "-maxp", "8", "-gens", "1", "-runs", "1", "-json"}
	for _, sw := range []string{"nodes", "density", "hier", "hierdsar", "trace"} {
		err := run(append([]string{"-sweep", sw}, tiny...), &buf)
		if err == nil || !strings.Contains(err.Error(), sw) {
			t.Errorf("-sweep %s -json: want an error naming the sweep, got %v", sw, err)
		}
	}
	// Regression: non-positive sizes used to panic deep in the simulator.
	for _, args := range [][]string{
		{"-sweep", "density", "-p", "0"},
		{"-sweep", "nodes", "-n", "0"},
		{"-sweep", "trace", "-n", "1024", "-p", "0"},
		{"-sweep", "nodes", "-maxp", "0"},
		{"-sweep", "nodes", "-gens", "0"},
		{"-sweep", "overlapwall", "-runs", "-1"},
	} {
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), "must be >= 1") {
			t.Errorf("%v: want a flag error, got %v", args, err)
		}
	}
}

func TestRunHierDSARSweepTiny(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-sweep", "hierdsar", "-n", "4096", "-maxp", "8", "-rpn", "4", "-gens", "1", "-runs", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hierarchical DSAR under NIC contention") || !strings.Contains(out, "speedup") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if err := run([]string{"-sweep", "hierdsar", "-nic", "-1"}, &buf); err == nil {
		t.Fatal("nic < 0 must error")
	}
	if err := run([]string{"-sweep", "hierdsar", "-rpn", "0"}, &buf); err == nil {
		t.Fatal("rpn < 1 must error")
	}
}

func TestRunContentionSweepJSON(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-sweep", "contention", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID    string `json:"id"`
		Cells []struct {
			AutoChoice          string `json:"auto_choice"`
			OldChoice           string `json:"old_heuristic_choice"`
			AutoMatchesCheapest bool   `json:"auto_matches_cheapest"`
			OldMatchesCheapest  bool   `json:"old_matches_cheapest"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("BENCH_2 output is not valid JSON: %v", err)
	}
	if doc.ID != "BENCH_2" || len(doc.Cells) == 0 {
		t.Fatalf("unexpected document: %+v", doc)
	}
	demonstrated := false
	for _, c := range doc.Cells {
		if c.AutoMatchesCheapest && !c.OldMatchesCheapest {
			demonstrated = true
		}
	}
	if !demonstrated {
		t.Fatal("BENCH_2 must contain a cell where Auto beats the old heuristic")
	}

	// The human-readable table form must render too.
	var tbl strings.Builder
	if err := run([]string{"-sweep", "contention"}, &tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "old-heuristic") {
		t.Fatalf("unexpected table output:\n%s", tbl.String())
	}
}
