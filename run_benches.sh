#!/bin/bash
# Checkpointing bench runner: each bench's output is cached in
# bench_results/<name>.txt (plus a machine-readable report in
# bench_results/BENCH_<name>.json for the bench_* binaries); completed
# benches are skipped, so the script can be re-invoked until everything is
# done.
#
#   ./run_benches.sh            run all benches (cached)
#   ./run_benches.sh --check    run the check phases, then a summary table:
#     TSan over the parallel runner, determinism and telemetry tests;
#     ASan+UBSan over the checker, fuzz, relayer, store-property,
#     packet-index (IndexedTxSearch, RpcFixture), packet-event
#     (PacketEventOracle, PacketEventSharing), sim::Task (SimTask) and
#     handshake-pin (HandshakePinned) tests;
#     chaos campaigns; the golden-figure suite; a fig12 --trace smoke;
#     bench reports (mitigations --smoke: schema, self and same-seed
#     compare, perturbed copy, strict flags); the bench_scale smoke; the
#     mitigations and mesh-routing smokes vs bench/baselines/; and
#     observability (series, flight dump, relayer-sweep --series identity
#     across --jobs, -DIBC_TELEMETRY=OFF CSV identity)
cd "$(dirname "$0")"

if [ "$1" = "--check" ]; then
  set -e

  PHASES=()
  PHASE_STATUS=()
  phase() {
    PHASES+=("$1")
    PHASE_STATUS+=("FAIL")
    echo
    echo "== $1 =="
  }
  phase_ok() {
    PHASE_STATUS[$((${#PHASE_STATUS[@]} - 1))]="ok"
  }
  print_summary() {
    echo
    echo "== check summary =="
    printf '%-60s %s\n' "phase" "status"
    printf '%-60s %s\n' "-----" "------"
    local all_ok=0
    for i in "${!PHASES[@]}"; do
      printf '%-60s %s\n' "${PHASES[$i]}" "${PHASE_STATUS[$i]}"
      [ "${PHASE_STATUS[$i]}" = "ok" ] || all_ok=1
    done
    if [ ${#PHASES[@]} -gt 0 ] && [ "$all_ok" -eq 0 ]; then
      echo "all checks passed"
    fi
  }
  trap print_summary EXIT

  phase "ThreadSanitizer: parallel runner + determinism + telemetry"
  cmake -B build-tsan -S . -DTHREAD_SANITIZER=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j --target test_parallel test_relayer_behavior test_telemetry
  (cd build-tsan && ctest --output-on-failure \
    -R 'Parallel|Determinism|Telemetry|Tracer|Registry|Counter|Gauge|Histogram|StepLog|DisabledMode')
  phase_ok

  phase "ASan+UBSan: invariant checker + fuzz scenarios + relayer + store property + packet index + packet events + tasks"
  cmake -B build-asan -S . -DADDRESS_SANITIZER=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j --target test_invariants test_faults fuzz_scenarios \
    test_relayer_behavior test_query_cache test_rpc_relayer test_campaigns test_lifecycle \
    test_mitigations test_packet_events test_foundation
  # StoreModelProperty/StoreProperty run the randomized-op store model tests
  # (hash index, arena, spill values, compaction) under ASan.
  # IndexedTxSearch/RpcFixture cover the ledger's lazily built packet-event
  # rows, which const accessors write on a block's first query.
  # PacketEventOracle/PacketEventSharing cover the packet-event payloads the
  # ledger, RPC pages, WebSocket frames and QueryCache entries share.
  # SimTask covers the coroutine frames the relayer and the channel handshake
  # run on (abandoned chains must free every frame: LeakSanitizer is on), and
  # HandshakePinned the handshake's schedule.
  (cd build-asan && ctest --output-on-failure \
    -R 'InvariantChecker|NetworkFault|TimeoutPath|CodecProperty|RelayerFixture|QueryCache|StoreModelProperty|StoreProperty|Campaign|ClientLifecycleFixture|RestartFixture|FrameFixture|IndexedTxSearch|RpcFixture|PacketEventOracle|PacketEventSharing|SimTask|HandshakePinned')
  ./build-asan/src/check/fuzz_scenarios --seeds=40
  phase_ok

  phase "chaos campaigns: families under ASan+UBSan, identity diff, TSan pool"
  # Short horizon per family (the 1000-block versions are ctest targets);
  # ASan+UBSan catches lifetime bugs in the fault/recovery paths.
  for f in halt-restart client-expiry client-freeze relayer-crash \
           censorship frame-storm; do
    ./build-asan/src/check/fuzz_scenarios --campaign="$f" --blocks=160
  done
  # The planted expired-client bug must be detected.
  ./build-asan/src/check/fuzz_scenarios --campaign=client-expiry --blocks=300 \
    --mutate=skip-expiry-check --expect-violation
  # Same-seed reruns must be byte-identical (CSV incl. final app hashes),
  # independent of worker count.
  cdir=$(mktemp -d)
  ./build-asan/src/check/fuzz_scenarios --campaign=all --blocks=160 --jobs=2 \
    | grep -v 'worker(s)\|^ran ' > "$cdir/a.txt"
  ./build-asan/src/check/fuzz_scenarios --campaign=all --blocks=160 --jobs=6 \
    | grep -v 'worker(s)\|^ran ' > "$cdir/b.txt"
  diff "$cdir/a.txt" "$cdir/b.txt"
  rm -rf "$cdir"
  # All families through the parallel runner under TSan.
  cmake --build build-tsan -j --target fuzz_scenarios
  ./build-tsan/src/check/fuzz_scenarios --campaign=all --blocks=160 --jobs=4
  phase_ok

  phase "golden-figure regression suite"
  cmake --build build -j --target test_golden
  (cd build && ctest --output-on-failure -R 'GoldenFigures')
  phase_ok

  phase "trace smoke: fig12 with --trace"
  cmake --build build -j --target bench_fig12_latency_breakdown
  # In a temp directory: the bench writes its CSV and fig12_report.md to
  # the working directory, and the committed copies must stay untouched.
  tdir=$(mktemp -d -t ibc_trace_XXXXXX)
  root=$PWD
  (cd "$tdir" && "$root/build/bench/bench_fig12_latency_breakdown" \
    --trace trace.json >/dev/null)
  python3 - "$tdir/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
phases = {e["ph"] for e in events}
assert "b" in phases and "e" in phases, "missing async packet lifecycle spans"
assert any(e["ph"] == "X" and e["name"] == "queue_wait" for e in events), \
    "missing rpc queue_wait spans"
print(f"trace OK: {len(events)} events parse, packet + queue_wait spans present")
EOF
  rm -rf "$tdir"
  phase_ok

  phase "bench reports: schema + self-compare + same-seed + perturbed"
  cmake --build build -j --target bench_ablation_mitigations bench_compare
  jdir=$(mktemp -d -t ibc_json_XXXXXX)
  ./build/bench/bench_ablation_mitigations --smoke \
    --csv "$jdir/a.csv" --json "$jdir/BENCH_a.json" >/dev/null
  ./build/bench/bench_ablation_mitigations --smoke \
    --csv "$jdir/b.csv" --json "$jdir/BENCH_b.json" >/dev/null
  # Every emitted report (the fresh pair plus anything cached from a full
  # bench run) must satisfy schema v1.
  cached_reports=$(ls bench_results/BENCH_*.json 2>/dev/null || true)
  # shellcheck disable=SC2086
  python3 tools/bench_report_schema.py "$jdir/BENCH_a.json" "$jdir/BENCH_b.json" $cached_reports
  # Self-compare: a report diffed against itself must be clean (exit 0).
  ./build/tools/bench_compare "$jdir/BENCH_a.json" "$jdir/BENCH_a.json" >/dev/null
  echo "self-compare clean"
  # Two independent same-seed runs: the virtual sections must match exactly
  # (the determinism contract); host time gets a generous noise band.
  ./build/tools/bench_compare --noise 10 "$jdir/BENCH_a.json" "$jdir/BENCH_b.json"
  # Surface the peak-RSS delta explicitly: memory regressions hide inside
  # the blanket noise band above, so print the numbers where CI logs show
  # them even when the compare passes.
  python3 - "$jdir/BENCH_a.json" "$jdir/BENCH_b.json" <<'EOF'
import json, sys
rss = []
for path in sys.argv[1:3]:
    with open(path) as f:
        rss.append(json.load(f)["host"]["peak_rss_bytes"])
delta = (rss[1] - rss[0]) / rss[0] * 100 if rss[0] else 0.0
print(f"peak RSS: {rss[0] / 2**20:.1f} MiB vs {rss[1] / 2**20:.1f} MiB "
      f"({delta:+.1f}%)")
EOF
  # A perturbed virtual cell must be caught as drift (exit 2).
  python3 - "$jdir/BENCH_a.json" "$jdir/BENCH_perturbed.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
doc["virtual"]["points"][0][2] = "999.99"
with open(sys.argv[2], "w") as f:
    json.dump(doc, f)
EOF
  if ./build/tools/bench_compare "$jdir/BENCH_a.json" "$jdir/BENCH_perturbed.json" >/dev/null; then
    echo "ERROR: bench_compare accepted a perturbed virtual section"
    exit 1
  else
    rc=$?
    [ "$rc" -eq 2 ] || { echo "ERROR: expected exit 2 for virtual drift, got $rc"; exit 1; }
  fi
  echo "perturbed report rejected with exit 2"
  # Strict flag parsing: unknown flags must be rejected with usage, and
  # --help must succeed.
  if ./build/bench/bench_ablation_mitigations --no-such-flag >/dev/null 2>&1; then
    echo "ERROR: unknown --no-such-flag was accepted"
    exit 1
  fi
  ./build/bench/bench_ablation_mitigations --help | grep -q -- "--json" \
    || { echo "ERROR: --help does not list --json"; exit 1; }
  echo "strict flag parsing OK (unknown flag rejected, --help lists flags)"
  rm -rf "$jdir"
  phase_ok

  phase "bench_scale smoke: 10^5 tier, schema + same-seed identity + RSS"
  cmake --build build -j --target bench_scale_transfers bench_compare
  sdir=$(mktemp -d -t ibc_scale_XXXXXX)
  ./build/bench/bench_scale_transfers --smoke \
    --csv "$sdir/a.csv" --json "$sdir/BENCH_a.json" >/dev/null
  ./build/bench/bench_scale_transfers --smoke \
    --csv "$sdir/b.csv" --json "$sdir/BENCH_b.json" >/dev/null
  python3 tools/bench_report_schema.py "$sdir/BENCH_a.json" "$sdir/BENCH_b.json"
  # Same-seed byte-identity of the result table (open-loop workload,
  # Zipf sampler and bulk genesis are all on this path).
  diff "$sdir/a.csv" "$sdir/b.csv"
  echo "scale smoke CSV byte-identical across two same-seed runs"
  ./build/tools/bench_compare --noise 10 "$sdir/BENCH_a.json" "$sdir/BENCH_b.json"
  # Surface the tier's host-side scaling numbers in the CI log.
  python3 - "$sdir/BENCH_a.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    tiers = json.load(f)["host"]["scale_tiers"]
for t in tiers:
    print(f"tier {t['transfers']}: {t['sim_seconds_per_host_second']:.1f} "
          f"sim-s/host-s, {t['events_per_second'] / 1e3:.0f}k events/s, "
          f"peak RSS {t['peak_rss_bytes'] / 2**20:.1f} MiB")
EOF
  rm -rf "$sdir"
  phase_ok

  phase "mitigations: ablation smoke ASan, coordination TSan, baseline compare"
  # The stacked-ablation matrix (RPC worker pool x indexed tx_search x
  # relayer coordination) under ASan+UBSan: every mitigation code path runs
  # sanitized, and the bench's own self-checks must pass.
  cmake --build build-asan -j --target bench_ablation_mitigations
  mdir=$(mktemp -d -t ibc_mitig_XXXXXX)
  ./build-asan/bench/bench_ablation_mitigations --smoke --csv "$mdir/asan.csv" \
    >/dev/null
  echo "ablation-matrix smoke passed under ASan+UBSan"
  # Two-relayer coordination regression, worker-pool determinism and the
  # indexed-equivalence property under TSan (the worker pool and the
  # parallel sweep both exercise the threaded runner).
  cmake --build build-tsan -j --target test_mitigations
  (cd build-tsan && ctest --output-on-failure \
    -R 'CoordinationPolicy|CoordinationRegression|WorkerPoolDeterminism|IndexedTxSearch')
  # Invariant checker stays green when the worker pool reorders query
  # completions, with and without coordination sharding on top.
  ./build-asan/src/check/fuzz_scenarios --seeds=20 --rpc-workers=4
  ./build-asan/src/check/fuzz_scenarios --seeds=12 --rpc-workers=4 --coordination=shard
  # Fresh smoke report vs the committed reference: the virtual sections are
  # seed-deterministic, so any drift (exit 2) is a behaviour change in a
  # mitigation path; host-time noise across machines only warns (exit 1).
  cmake --build build -j --target bench_ablation_mitigations bench_compare
  ./build/bench/bench_ablation_mitigations --smoke --csv "$mdir/fresh.csv" \
    --json "$mdir/BENCH_fresh.json" >/dev/null
  rc=0
  ./build/tools/bench_compare --noise 10 \
    bench/baselines/BENCH_ablation_mitigations.json "$mdir/BENCH_fresh.json" || rc=$?
  if [ "$rc" -ge 2 ]; then
    echo "ERROR: mitigation smoke report drifted from bench/baselines (rc=$rc)"
    exit 1
  fi
  [ "$rc" -eq 1 ] && echo "note: host-time noise vs baseline (expected across machines)"
  rm -rf "$mdir"
  phase_ok

  phase "mesh routing: bench smoke ASan, multi-hop fuzz TSan, baseline compare"
  # The mesh-routing bench (hub vs full mesh, hop sweep, relayer placement)
  # under ASan+UBSan: the forward middleware's escrow/mint/unwind paths and
  # the bench's own self-checks all run sanitized.
  cmake --build build-asan -j --target bench_mesh_routing
  xdir=$(mktemp -d -t ibc_mesh_XXXXXX)
  ./build-asan/bench/bench_mesh_routing --smoke --csv "$xdir/asan.csv" \
    >/dev/null
  echo "mesh-routing smoke passed under ASan+UBSan"
  # Multi-hop forwarding under TSan with a parallel fuzz sweep: the per-hop
  # relayer fleet and the threaded runner race against each other.
  cmake --build build-tsan -j --target fuzz_scenarios
  ./build-tsan/src/check/fuzz_scenarios --seeds=8 --jobs=4 --topology=line3
  # Invariant checker across topology shapes (line / hub / full mesh) on the
  # ASan build: trace prefixing, refund unwinding and per-channel
  # coordination all fuzz clean.
  ./build-asan/src/check/fuzz_scenarios --seeds=10 --topology=hub4
  ./build-asan/src/check/fuzz_scenarios --seeds=10 --topology=mesh4 --coordination=shard
  # Fresh smoke report vs the committed reference: seed-deterministic
  # virtual sections, so drift (exit 2) is a routing behaviour change.
  cmake --build build -j --target bench_mesh_routing bench_compare
  ./build/bench/bench_mesh_routing --smoke --csv "$xdir/fresh.csv" \
    --json "$xdir/BENCH_fresh.json" >/dev/null
  rc=0
  ./build/tools/bench_compare --noise 10 \
    bench/baselines/BENCH_mesh_routing.json "$xdir/BENCH_fresh.json" || rc=$?
  if [ "$rc" -ge 2 ]; then
    echo "ERROR: mesh-routing smoke report drifted from bench/baselines (rc=$rc)"
    exit 1
  fi
  [ "$rc" -eq 1 ] && echo "note: host-time noise vs baseline (expected across machines)"
  rm -rf "$xdir"
  phase_ok

  phase "observability: series TSan, planted-bug flight dump, schema, OFF build"
  # Sampler + watchdogs under TSan: the sampled experiment runs inside a
  # 4-worker sweep (SeriesDeterminism), and the campaign dump path runs its
  # whole testbed with journaling armed.
  cmake --build build-tsan -j --target test_observability
  (cd build-tsan && ctest --output-on-failure \
    -R 'SeriesDeterminism|PlantedAnomaly|CampaignFlightDump')
  # Planted invariant violation -> the run must auto-dump a flight record
  # that tools/run_report parses and renders end to end.
  cmake --build build -j --target fuzz_scenarios run_report \
    bench_relayer_sweep
  odir=$(mktemp -d -t ibc_obs_XXXXXX)
  ./build/src/check/fuzz_scenarios --campaign=client-expiry --blocks=300 \
    --mutate=skip-expiry-check --expect-violation \
    --flight="$odir/expiry.flight" --sample-blocks=50
  [ -s "$odir/expiry.flight" ] || {
    echo "ERROR: planted violation produced no flight dump"; exit 1; }
  ./build/tools/run_report --flight "$odir/expiry.flight" \
    --out "$odir/expiry.md"
  grep -q '^## Failure' "$odir/expiry.md"
  grep -q 'campaign-phase:' "$odir/expiry.md"
  echo "flight dump renders: $(wc -l < "$odir/expiry.md") markdown lines"
  # --series at two worker counts must be byte-identical, and with --json
  # the report grows a virtual.series section the schema validator accepts.
  ./build/bench/bench_relayer_sweep --reps 1 --jobs 1 --csv "$odir/s1" \
    --series "$odir/s1.csv" --json "$odir/BENCH_series.json" >/dev/null
  ./build/bench/bench_relayer_sweep --reps 1 --jobs 4 --csv "$odir/s4" \
    --series "$odir/s4.csv" >/dev/null
  diff "$odir/s1.csv" "$odir/s4.csv"
  echo "series CSV byte-identical at --jobs 1 vs --jobs 4"
  python3 tools/bench_report_schema.py "$odir/BENCH_series.json"
  python3 - "$odir/BENCH_series.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
series = doc["virtual"]["series"]
assert series["samples"] > 0 and series["columns"], "empty series section"
print(f"series section OK: {series['samples']} samples, "
      f"{len(series['columns'])} columns, "
      f"{len(series['warnings'])} warning(s)")
EOF
  # The compile-time kill switch: an -DIBC_TELEMETRY=OFF build must stay
  # green (unit suites for the pillar's passive classes included) and its
  # bench CSVs must be byte-identical to the instrumented build's.
  cmake -B build-notel -S . -DIBC_TELEMETRY=OFF
  cmake --build build-notel -j --target bench_relayer_sweep \
    test_observability
  (cd build-notel && ctest --output-on-failure \
    -R 'FlightRecorder|Watchdog|Sampler')
  ./build/bench/bench_relayer_sweep --reps 1 --csv "$odir/on" >/dev/null
  ./build-notel/bench/bench_relayer_sweep --reps 1 --csv "$odir/off" >/dev/null
  diff -r "$odir/on" "$odir/off"
  echo "relayer-sweep CSVs byte-identical with telemetry compiled out"
  rm -rf "$odir"
  phase_ok

  exit 0
fi

mkdir -p bench_results
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
  out="bench_results/$name.txt"
  # bench_* binaries also emit the machine-readable report; calibrate's
  # output is host-dependent probing with no result table, so it stays
  # text-only.
  json=""
  case "$name" in
    bench_*) json="bench_results/BENCH_${name#bench_}.json" ;;
  esac
  if [ -s "$out" ] && grep -q "__DONE__" "$out" && { [ -z "$json" ] || [ -s "$json" ]; }; then
    continue
  fi
  echo "running $name..."
  if [ -n "$json" ]; then
    { echo "=== $name ==="; timeout 3000 "$b" --json "$json" 2>/dev/null; echo; echo "__DONE__"; } > "$out"
  else
    { echo "=== $name ==="; timeout 3000 "$b" 2>/dev/null; echo; echo "__DONE__"; } > "$out"
  fi
done
echo "all benches complete"
