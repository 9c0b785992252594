#!/usr/bin/env bash
# CI floor for the repo: build everything, vet (the root module and the
# nested wallbench module), enforce the documentation
# floor (godoc coverage on the exported API packages + docs-vs-code drift),
# race-check the concurrency hot spots (the message-passing substrate with
# its real transports, the collectives and parallel merge that run on it),
# smoke the real execution backends (goroutine + loopback TCP) through the
# sparbench transport sweep, run the full test suite, fuzz the transports'
# payload decoder for 5 s (FuzzDecodePayload: bytes from other processes
# must never crash or exhaust memory), prove the
# record/replay contract end to end (record a scenario trace with
# sparreplay, replay it through sparreplay -replay, diff the rows byte for
# byte),
# prove the observability contract the same way (live vs replay Perfetto
# exports byte-identical, the pinned lstm export matching its committed
# golden under internal/experiments/testdata),
# smoke-run the k-way merge ablation benchmarks, then record the
# deterministic sweeps as
# BENCH_2.json (contention model), BENCH_3.json (k-way merge/scratch),
# BENCH_4.json (hierarchy-depth ablation), BENCH_5.json (runtime
# adaptation ablation), BENCH_7.json (overlap/bucketing ablation plus
# the chunked-pipeline cost-model validation), and BENCH_8.json (the
# multi-tenant cluster sweep plus the pinned adapt-diversity cells),
# hard-failing if any drifts
# from the committed files. BENCH_5's acceptance invariants (adaptive
# beats static-uniform on clustered/drifting workloads, within noise
# elsewhere) are enforced by TestBench5AcceptanceCriteria against the
# committed file during the test phase, BENCH_7's (bucketed beats
# per-layer and fused on both workloads, pipeline model within its error
# band) by TestBench7AcceptanceCriteria/TestBench7PipelineModelBand, and
# BENCH_8's (full mix concurrent, cost-aware strictly beats random on
# mean predicted job time, packed holds slowdown 1.0 on exclusive
# groups) by TestBench8AcceptanceCriteria/TestBench8AdaptDiversity, so a
# drift that regresses any fails twice. BENCH_6.json (the
# execution-backend comparison) carries measured wall times, so it is NOT
# drift-gated; the transport smoke plus the equivalence/calibration tests
# enforce its deterministic claims instead. BENCH_7's wall-clock overlap
# snapshot lives in its note as static text for the same reason.
#
# Usage: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go vet (wallbench module; root ./... skips nested modules)"
go -C wallbench vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== doccheck (exported symbols need doc comments)"
go run ./tools/doccheck . ./internal/simnet ./internal/comm ./internal/core ./internal/adapt ./internal/scenario ./internal/cluster ./internal/obs

echo "== docdrift (docs tables must name real identifiers)"
go run ./tools/docdrift -root . docs/COLLECTIVES.md docs/ARCHITECTURE.md

echo "== go test -race (comm + core + adapt + stream + scenario + train + cluster + obs: real transports, parallel merge, lazy RNG streams, chunked pipelines + bucket scheduler, multi-tenant event loop, sharded metrics + concurrent span tracks)"
go test -race ./internal/comm/... ./internal/core/... ./internal/adapt/... ./internal/stream/... ./internal/scenario/... ./internal/train/... ./internal/cluster/... ./internal/obs/...

echo "== transport smoke (goroutine + loopback TCP backends, wall clock)"
go run ./cmd/sparbench -sweep transport -transport all > /dev/null

echo "== overlap wall smoke (bucketed vs per-layer on the goroutine backend, 1 run)"
go run ./cmd/sparbench -sweep overlapwall -runs 1 > /dev/null

echo "== go test ./..."
go test ./...

echo "== fuzz smoke (transport payload decoder, 5 s)"
go test -run '^$' -fuzz '^FuzzDecodePayload$' -fuzztime 5s ./internal/comm > /dev/null

tmp_bench=$(mktemp)
tmp_bench3=$(mktemp)
tmp_bench4=$(mktemp)
tmp_bench5=$(mktemp)
tmp_bench7=$(mktemp)
tmp_bench8=$(mktemp)
tmp_replay=$(mktemp -d)
trap 'rm -f "$tmp_bench" "$tmp_bench3" "$tmp_bench4" "$tmp_bench5" "$tmp_bench7" "$tmp_bench8"; rm -rf "$tmp_replay"' EXIT

echo "== replay determinism (record a scenario trace, replay it, diff against the live run)"
go run ./cmd/sparreplay -record -scenario clustered -out "$tmp_replay/t.trace"
go run ./cmd/sparreplay -scenario clustered -json > "$tmp_replay/live.json"
go run ./cmd/sparreplay -replay "$tmp_replay/t.trace" -json > "$tmp_replay/replay.json"
if ! cmp -s "$tmp_replay/live.json" "$tmp_replay/replay.json"; then
  echo "replaying the recorded trace diverged from the live run:" >&2
  diff "$tmp_replay/live.json" "$tmp_replay/replay.json" >&2 || true
  exit 1
fi

echo "== obs export determinism (live run vs trace replay must emit identical Perfetto JSON + metrics, and the pinned lstm export must match its committed golden)"
go run ./cmd/sparreplay -scenario clustered -obs "$tmp_replay/live_obs.json" -obsmetrics "$tmp_replay/live_obs.txt" > /dev/null
go run ./cmd/sparreplay -replay "$tmp_replay/t.trace" -obs "$tmp_replay/replay_obs.json" -obsmetrics "$tmp_replay/replay_obs.txt" > /dev/null
if ! cmp -s "$tmp_replay/live_obs.json" "$tmp_replay/replay_obs.json"; then
  echo "replaying the recorded trace produced a different observability timeline:" >&2
  diff "$tmp_replay/live_obs.json" "$tmp_replay/replay_obs.json" >&2 || true
  exit 1
fi
if ! cmp -s "$tmp_replay/live_obs.txt" "$tmp_replay/replay_obs.txt"; then
  echo "replaying the recorded trace produced a different metrics dump:" >&2
  diff "$tmp_replay/live_obs.txt" "$tmp_replay/replay_obs.txt" >&2 || true
  exit 1
fi
go run ./cmd/sparreplay -scenario lstm -obs "$tmp_replay/lstm_obs.json" > /dev/null
if ! cmp -s "$tmp_replay/lstm_obs.json" internal/experiments/testdata/obs_lstm_golden.json; then
  echo "the lstm Perfetto export drifted from the committed golden (regenerate with go test ./internal/experiments -run TestGoldenObsExport -update):" >&2
  diff "$tmp_replay/lstm_obs.json" internal/experiments/testdata/obs_lstm_golden.json >&2 || true
  exit 1
fi

echo "== bench smoke (k-way merge + scratch + sketch-overhead ablations, 1 iteration each)"
go test -run '^$' -bench 'BenchmarkAblationKWayMerge|BenchmarkAblationScratchAllreduce|BenchmarkAblationSketchOverhead' -benchtime 1x . > /dev/null

echo "== record BENCH_2.json (contention-model sweep; simulated metrics only, deterministic)"
go run ./cmd/sparbench -sweep contention -json > "$tmp_bench"
if ! cmp -s "$tmp_bench" BENCH_2.json; then
  cp "$tmp_bench" BENCH_2.json
  echo "BENCH_2.json drifted from the committed sweep — regenerated it; commit the update" >&2
  exit 1
fi

echo "== record BENCH_3.json (k-way merge/scratch ablation; deterministic alloc + sim metrics)"
go run ./cmd/sparbench -sweep merge -json > "$tmp_bench3"
if ! cmp -s "$tmp_bench3" BENCH_3.json; then
  cp "$tmp_bench3" BENCH_3.json
  echo "BENCH_3.json drifted from the committed sweep — regenerated it; commit the update" >&2
  exit 1
fi

echo "== record BENCH_4.json (hierarchy-depth ablation; simulated metrics only, deterministic)"
go run ./cmd/sparbench -sweep hierlevels -json > "$tmp_bench4"
if ! cmp -s "$tmp_bench4" BENCH_4.json; then
  cp "$tmp_bench4" BENCH_4.json
  echo "BENCH_4.json drifted from the committed sweep — regenerated it; commit the update" >&2
  exit 1
fi

echo "== record BENCH_5.json (runtime-adaptation ablation; simulated metrics only, deterministic)"
go run ./cmd/sparbench -sweep adapt -json > "$tmp_bench5"
if ! cmp -s "$tmp_bench5" BENCH_5.json; then
  cp "$tmp_bench5" BENCH_5.json
  echo "BENCH_5.json drifted from the committed sweep — regenerated it; commit the update" >&2
  exit 1
fi

echo "== record BENCH_7.json (overlap/bucketing ablation + pipeline cost-model cells; simulated metrics only, deterministic)"
go run ./cmd/sparbench -sweep overlap -json > "$tmp_bench7"
if ! cmp -s "$tmp_bench7" BENCH_7.json; then
  cp "$tmp_bench7" BENCH_7.json
  echo "BENCH_7.json drifted from the committed sweep — regenerated it; commit the update" >&2
  exit 1
fi

echo "== record BENCH_8.json (multi-tenant cluster sweep + pinned adapt-diversity cells; simulated metrics only, deterministic — doubles as the cluster sweep smoke)"
go run ./cmd/sparbench -sweep cluster -json > "$tmp_bench8"
if ! cmp -s "$tmp_bench8" BENCH_8.json; then
  cp "$tmp_bench8" BENCH_8.json
  echo "BENCH_8.json drifted from the committed sweep — regenerated it; commit the update" >&2
  exit 1
fi

echo "CI green."
