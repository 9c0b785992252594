package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "scenario") || !strings.Contains(out, "clustered") || !strings.Contains(out, "lstm") {
		t.Fatalf("unexpected -list output:\n%s", out)
	}
}

// record writes the lstm scenario's trace into dir and returns its path.
func record(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "lstm.trace")
	var buf strings.Builder
	if err := run([]string{"-record", "-scenario", "lstm", "-out", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "recorded lstm:") {
		t.Fatalf("unexpected -record output: %q", buf.String())
	}
	return path
}

func TestReplayJSONMatchesLive(t *testing.T) {
	path := record(t, t.TempDir())
	var live, replayed bytes.Buffer
	if err := run([]string{"-scenario", "lstm", "-json"}, &live); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-replay", path, "-json"}, &replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(live.Bytes(), []byte("{\n  \"workload\": \"lstm\"")) {
		t.Fatalf("unexpected live JSON:\n%s", live.String())
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatalf("replay diverged from the live run:\nlive:\n%s\nreplay:\n%s", live.String(), replayed.String())
	}

	// The table form renders the same row.
	var tbl strings.Builder
	if err := run([]string{"-replay", path}, &tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tbl.String(), "workload") || !strings.Contains(tbl.String(), "lstm") {
		t.Fatalf("unexpected table output:\n%s", tbl.String())
	}
}

func TestReplayObsMatchesLive(t *testing.T) {
	dir := t.TempDir()
	path := record(t, dir)
	export := func(prefix string, args ...string) (trace, metrics []byte) {
		t.Helper()
		tracePath := filepath.Join(dir, prefix+".json")
		metricsPath := filepath.Join(dir, prefix+".txt")
		var out strings.Builder
		if err := run(append(args, "-obs", tracePath, "-obsmetrics", metricsPath), &out); err != nil {
			t.Fatal(err)
		}
		var err error
		if trace, err = os.ReadFile(tracePath); err != nil {
			t.Fatal(err)
		}
		if metrics, err = os.ReadFile(metricsPath); err != nil {
			t.Fatal(err)
		}
		return trace, metrics
	}
	liveTrace, liveMetrics := export("live", "-scenario", "lstm")
	replayTrace, replayMetrics := export("replay", "-replay", path)
	if len(liveTrace) == 0 || len(liveMetrics) == 0 {
		t.Fatal("empty obs export")
	}
	if !bytes.Equal(liveTrace, replayTrace) {
		t.Fatal("replay produced a different Perfetto export than the live run")
	}
	if !bytes.Equal(liveMetrics, replayMetrics) {
		t.Fatal("replay produced a different metrics dump than the live run")
	}
}

func TestRunErrors(t *testing.T) {
	var buf strings.Builder
	for name, args := range map[string][]string{
		"record without -out": {"-record", "-scenario", "lstm"},
		"missing -scenario":   {},
		"unknown scenario":    {"-scenario", "bogus"},
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}
