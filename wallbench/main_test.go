package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// declared reads the metric names BENCHMARK.json promises for one mode.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced, and
// checks the result line: no failed op, and exactly the metrics and units
// BENCHMARK.json declares. The traced run must leave a Perfetto file.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		for trace, key := range []string{"end_to_end", "per_layer"} {
			want := declared(t, key)
			t.Run(wl.name+"/"+key, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", wl.name, "--seed", "7", "--seconds", "0.3",
					"--trace", []string{"0", "1"}[trace], "--out", dir}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d; stderr: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
					}
				}
				if trace == 1 {
					files, _ := filepath.Glob(filepath.Join(dir, "trace-*.json"))
					if len(files) != 1 {
						t.Fatalf("traced run left %d Perfetto files", len(files))
					}
					buf, err := os.ReadFile(files[0])
					if err != nil {
						t.Fatal(err)
					}
					doc, err := obs.DecodeChromeTrace(buf)
					if err != nil || len(doc.TraceEvents) == 0 {
						t.Fatalf("Perfetto file: %d events, err %v", len(doc.TraceEvents), err)
					}
				}
			})
		}
	}
}

// TestCorruptReferenceFails corrupts each kind of reference an op is
// checked against and requires the measured window to count failures.
func TestCorruptReferenceFails(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(int64) (bench, error)
		corrupt func(bench)
	}{
		{"collective digest", prepareSSARGoroutine, func(b bench) {
			for j := range b.(*collective).refDigest {
				b.(*collective).refDigest[j] ^= 1
			}
		}},
		{"simulator virtual time", prepareSimP256, func(b bench) {
			for j := range b.(*collective).refVTime {
				b.(*collective).refVTime[j] *= 1.5
			}
		}},
		{"training final loss", prepareTopKTrain, func(b bench) {
			b.(*training).refLoss += 1e-9
		}},
		{"training parameters", prepareTopKTrain, func(b bench) {
			b.(*training).refDigest ^= 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := tc.prepare(3)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if err := b.setup(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(b)
			s := loop(b, 100*time.Millisecond, io.Discard, nil)[0]
			if s.attempted == 0 || s.failed != s.attempted {
				t.Fatalf("attempted %d, failed %d: want every op failed", s.attempted, s.failed)
			}
			var out bytes.Buffer
			res := result{attempted: s.attempted, failed: s.failed}
			if err := writeResult(&out, nil, res); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), `"correct":false`) {
				t.Fatalf("result line does not report the failure: %s", out.String())
			}
		})
	}
}
