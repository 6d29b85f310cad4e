#!/usr/bin/env bash
# Tier-1 verification, three times: a plain Release build (warnings are
# errors), an ASan+UBSan build, and a TSan build running the
# concurrency-heavy suites (the thread pool and its users: the ML kernels,
# the tuner, the fleet engine and the job server).
# Usage: scripts/check.sh [--fast]
#   --fast   skip the sanitized passes (plain build + tests only)
set -euo pipefail

cd "$(dirname "$0")/.."

run_pass() {
  local name="$1" build_dir="$2"
  shift 2
  echo "=== ${name}: configure (${build_dir}) ==="
  cmake -B "${build_dir}" -S . "$@"
  echo "=== ${name}: build ==="
  cmake --build "${build_dir}" -j "$(nproc)"
  echo "=== ${name}: ctest ==="
  (cd "${build_dir}" && ctest --output-on-failure -j "$(nproc)")
}

# Sink guard: stage engines report instrumentation through a perf::Sink
# taken by value (DESIGN.md "Perf counters"), never a raw Instrument or
# EventLog pointer, so no engine grows a fourth reporting idiom.
echo "=== sink guard: no Instrument*/EventLog* in the stage engines ==="
if grep -rnE '\b(perf::)?(Instrument|EventLog)[[:space:]]*\*' \
    src/synth src/place src/route src/sta src/sim; then
  echo "sink guard: take a perf::Sink instead (lines above)" >&2
  exit 1
fi

# The plain leg is the Release tree everyone builds: keep it warning-free.
run_pass "plain" build -DEDACLOUD_WERROR=ON

# Kernel smoke: every micro-benchmark runs once on a short budget (about a
# second in all), so a kernel that throws or crashes fails tier-1. Timings
# are not checked.
echo "=== kernel smoke: micro_kernels ==="
build/bench/micro_kernels --benchmark_min_time=0.01 > /dev/null

# Observability smoke-run: emit a trace + metrics dump from the real CLI and
# fail tier-1 if the telemetry is malformed or the same seed stops producing
# byte-identical virtual-clock traces (docs/OBSERVABILITY.md).
trace_smoke() {
  local cli="build/examples/edacloud_cli"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  echo "=== trace smoke: flow --trace/--metrics ==="
  "${cli}" flow adder 64 --trace "${tmp}/flow_trace.json" \
    --metrics "${tmp}/flow_metrics.json" > /dev/null
  python3 -m json.tool "${tmp}/flow_trace.json" > /dev/null
  python3 -m json.tool "${tmp}/flow_metrics.json" > /dev/null
  for stage in synth place route sta; do
    grep -q "\"${stage}/" "${tmp}/flow_trace.json" || {
      echo "trace smoke: no ${stage}/ spans in flow trace" >&2
      return 1
    }
  done

  echo "=== trace smoke: fleet-sim same-seed byte-identity ==="
  for run in 1 2; do
    "${cli}" fleet-sim --seed 42 --duration 3600 \
      --trace "${tmp}/fleet_${run}.json" \
      --metrics "${tmp}/fleet_m${run}.json" > /dev/null
  done
  python3 -m json.tool "${tmp}/fleet_1.json" > /dev/null
  cmp "${tmp}/fleet_1.json" "${tmp}/fleet_2.json"
  cmp "${tmp}/fleet_m1.json" "${tmp}/fleet_m2.json"

  echo "=== fault smoke: injected faults stay byte-identical ==="
  # Spot reclaims + crashes + boot failures + checkpointed retries, twice
  # with the same seed and once more at a different worker-pool width: all
  # three runs must serialize identical telemetry (DESIGN.md §10).
  local fault_flags=(--seed 42 --duration 3600 --spot 0.6
    --interruption-rate 3 --crash-rate 0.5 --boot-fail 0.1
    --restart checkpoint --checkpoint-interval 300 --checkpoint-overhead 15)
  "${cli}" fleet-sim "${fault_flags[@]}" --threads 1 \
    --trace "${tmp}/fault_1.json" --metrics "${tmp}/fault_m1.json" > /dev/null
  "${cli}" fleet-sim "${fault_flags[@]}" --threads 1 \
    --trace "${tmp}/fault_2.json" --metrics "${tmp}/fault_m2.json" > /dev/null
  "${cli}" fleet-sim "${fault_flags[@]}" --threads 8 \
    --trace "${tmp}/fault_3.json" --metrics "${tmp}/fault_m3.json" > /dev/null
  python3 -m json.tool "${tmp}/fault_1.json" > /dev/null
  cmp "${tmp}/fault_1.json" "${tmp}/fault_2.json"
  cmp "${tmp}/fault_m1.json" "${tmp}/fault_m2.json"
  cmp "${tmp}/fault_1.json" "${tmp}/fault_3.json"
  cmp "${tmp}/fault_m1.json" "${tmp}/fault_m3.json"
  grep -q '/attempt-' "${tmp}/fault_1.json" || {
    echo "fault smoke: no attempt spans in fault trace" >&2
    return 1
  }
  grep -q 'fleet.retries' "${tmp}/fault_m1.json" || {
    echo "fault smoke: no retry counter in fault metrics" >&2
    return 1
  }

  echo "=== cli smoke: bad input is rejected loudly ==="
  "${cli}" no-such-command > /dev/null 2>&1 && {
    echo "cli smoke: unknown subcommand exited 0" >&2
    return 1
  }
  "${cli}" fleet-sim --no-such-flag 1 > /dev/null 2>&1 && {
    echo "cli smoke: unknown flag exited 0" >&2
    return 1
  }
  "${cli}" fleet-sim --help > /dev/null || return 1
}

trace_smoke

# Flow smoke-run: a mid-sized design (grid 48, three rip-up rounds)
# flowed twice; the QoR tables, STA's slack and power lines included, must
# be byte-identical. No flow stage takes a width, so the in-process 1-vs-8
# check is FlowDeterminismTest's (DESIGN.md "How each engine stays
# bit-identical").
flow_smoke() {
  local cli="build/examples/edacloud_cli"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  echo "=== flow smoke: two flow runs print the same QoR ==="
  "${cli}" flow multiplier 16 > "${tmp}/flow_1.txt"
  "${cli}" flow multiplier 16 > "${tmp}/flow_2.txt"
  cmp "${tmp}/flow_1.txt" "${tmp}/flow_2.txt"
}

flow_smoke

# Figures smoke-run: the paper-figure drivers most readers run first, in
# --fast mode in a scratch directory; each must exit 0 and write its CSV.
# fig6 exits nonzero when an optimized plan costs more than a baseline that
# meets its deadline, and ablation_mckp when the paper's integer-second DP
# and the exact frontier disagree; the other drivers' values are not
# checked here.
figures_smoke() {
  local bench_dir tmp
  bench_dir="$(pwd)/build/bench"
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  echo "=== figures smoke: fig2, fig3, table1, fig6 and ablation_mckp in --fast mode ==="
  local name
  for name in fig2_characterization fig3_routing_speedup table1_deployment \
      fig6_cost_savings ablation_mckp; do
    (cd "${tmp}" && "${bench_dir}/${name}" --fast > "${name}.out" 2>&1) || {
      echo "figures smoke: ${name} --fast exited nonzero" >&2
      cat "${tmp}/${name}.out" >&2
      return 1
    }
    [[ -s "${tmp}/experiment_results/${name}.csv" ]] || {
      echo "figures smoke: ${name} wrote no ${name}.csv" >&2
      return 1
    }
  done
}

figures_smoke

# Serving smoke-run: bring up the real job server on an ephemeral port,
# drive it with the seeded loadgen, and fail tier-1 if same-seed exports
# stop being byte-identical — including across server thread counts — or if
# a signal no longer drains cleanly (docs/SERVING.md).
serving_smoke() {
  local cli="build/examples/edacloud_cli"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  # Tiny training corpus: the smoke checks the serving path, not the model.
  local train_flags=(--train-designs 2 --train-epochs 2)

  start_server() {
    local log="$1" threads="$2"
    shift 2
    "${cli}" serve --port 0 --threads "${threads}" "${train_flags[@]}" "$@" \
      > "${log}" 2>&1 &
    server_pid=$!
    # The server prints "listening on host:port" before training and
    # "ready" after; wait for the latter so loadgen never races startup.
    for _ in $(seq 1 300); do
      grep -q '^ready$' "${log}" 2>/dev/null && break
      kill -0 "${server_pid}" 2>/dev/null || {
        echo "serving smoke: server died during startup" >&2
        cat "${log}" >&2
        return 1
      }
      sleep 0.1
    done
    grep -q '^ready$' "${log}" || {
      echo "serving smoke: server never became ready" >&2
      return 1
    }
    server_port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' \
      "${log}" | head -n 1)"
    [[ -n "${server_port}" ]] || {
      echo "serving smoke: could not parse port from server log" >&2
      return 1
    }
  }

  stop_server() {
    # SIGTERM first; some environments reserve it (wait reports 143 with no
    # drain), so fall back to SIGINT — both trigger the same graceful drain.
    local pid="$1" log="$2" status=0
    kill -TERM "${pid}" 2>/dev/null || true
    wait "${pid}" || status=$?
    if [[ "${status}" -ne 0 && "${status}" -ne 143 ]]; then
      echo "serving smoke: server exited ${status} on SIGTERM" >&2
      return 1
    fi
    if [[ "${status}" -eq 143 ]]; then
      echo "serving smoke: SIGTERM not delivered (143); retrying SIGINT"
      start_server "${log}" 2 || return 1
      kill -INT "${server_pid}" 2>/dev/null || true
      wait "${server_pid}" || {
        echo "serving smoke: server exited nonzero on SIGINT" >&2
        return 1
      }
      pid="${server_pid}"
    fi
    grep -q '^drained:' "${log}" || {
      echo "serving smoke: no drain line in server log" >&2
      cat "${log}" >&2
      return 1
    }
  }

  echo "=== serving smoke: same-seed loadgen byte-identity ==="
  start_server "${tmp}/serve_a.log" 2 || return 1
  for run in 1 2; do
    "${cli}" loadgen --port "${server_port}" --mode closed --conns 3 \
      --requests 40 --seed 7 --mix mixed \
      --export "${tmp}/load_${run}.json" > /dev/null
  done
  python3 -m json.tool "${tmp}/load_1.json" > /dev/null
  cmp "${tmp}/load_1.json" "${tmp}/load_2.json"
  "${cli}" loadgen --port "${server_port}" --mode open --qps 400 --conns 3 \
    --requests 40 --seed 7 --mix mixed \
    --export "${tmp}/load_open.json" > /dev/null
  cmp "${tmp}/load_1.json" "${tmp}/load_open.json"
  stop_server "${server_pid}" "${tmp}/serve_a.log" || return 1

  echo "=== serving smoke: thread-count byte-identity + signal drain ==="
  start_server "${tmp}/serve_b.log" 8 || return 1
  "${cli}" loadgen --port "${server_port}" --mode closed --conns 3 \
    --requests 40 --seed 7 --mix mixed \
    --export "${tmp}/load_t8.json" > /dev/null
  cmp "${tmp}/load_1.json" "${tmp}/load_t8.json"
  stop_server "${server_pid}" "${tmp}/serve_b.log" || return 1

  echo "=== serving smoke: micro-batching byte-identity ==="
  # Micro-batching is pure scheduling: the same predict-heavy stream must
  # export identical bytes from an unbatched server and a batched one
  # (docs/SERVING.md).
  start_server "${tmp}/serve_nb.log" 2 --batch-max 1 || return 1
  "${cli}" loadgen --port "${server_port}" --mode closed --conns 4 \
    --requests 32 --seed 9 --mix predict-heavy \
    --export "${tmp}/load_nb.json" > /dev/null
  stop_server "${server_pid}" "${tmp}/serve_nb.log" || return 1
  start_server "${tmp}/serve_mb.log" 2 --batch-max 8 --predict-cache 512 \
    || return 1
  for run in 1 2; do
    "${cli}" loadgen --port "${server_port}" --mode closed --conns 4 \
      --requests 32 --seed 9 --mix predict-heavy \
      --export "${tmp}/load_mb_${run}.json" > /dev/null
  done
  stop_server "${server_pid}" "${tmp}/serve_mb.log" || return 1
  python3 -m json.tool "${tmp}/load_mb_1.json" > /dev/null
  cmp "${tmp}/load_nb.json" "${tmp}/load_mb_1.json"
  cmp "${tmp}/load_mb_1.json" "${tmp}/load_mb_2.json"

  echo "=== serving smoke: loadgen flag validation ==="
  "${cli}" loadgen --no-such-flag 1 > /dev/null 2>&1 && {
    echo "serving smoke: unknown loadgen flag exited 0" >&2
    return 1
  }
  "${cli}" serve --help > /dev/null || return 1
  "${cli}" loadgen --help > /dev/null || return 1
}

serving_smoke

# Batched-inference smoke-run: the CLI predict subcommand trains a tiny
# predictor, runs the same queries serially and through the merged-batch
# path, and --verify exits nonzero unless every prediction is bit-identical
# (DESIGN.md §12).
batch_smoke() {
  local cli="build/examples/edacloud_cli"

  echo "=== batched inference smoke: serial-vs-batched bit-identity ==="
  "${cli}" predict adder 48 --batch 8 --verify --cache 64 --threads 2 \
    --train-designs 2 --train-epochs 2 > /dev/null
  # The tuner's path: mapped-netlist graphs, as the placement, routing and
  # STA models see them.
  "${cli}" predict adder 48 --job placement --batch 8 --verify --cache 64 \
    --threads 2 --train-designs 2 --train-epochs 2 > /dev/null

  echo "=== batched inference smoke: predict flag validation ==="
  "${cli}" predict adder 48 --no-such-flag 1 > /dev/null 2>&1 && {
    echo "batch smoke: unknown predict flag exited 0" >&2
    return 1
  }
  "${cli}" predict --help > /dev/null || return 1
}

batch_smoke

# Recipe-tuner smoke-run: the determinism contract from the CLI side — the
# same seed must export byte-identical TuneResults at thread counts 1 vs 8
# and predict batch sizes 3 vs 64 — plus strict flag validation
# (docs/TUNING.md, DESIGN.md §14).
tune_smoke() {
  local cli="build/examples/edacloud_cli"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  echo "=== tune smoke: same-seed byte-identity across threads and batch ==="
  local tune_flags=(adder 16 --deadline 60 --samples 4 --seed 5
    --train-designs 2 --train-epochs 2)
  "${cli}" tune "${tune_flags[@]}" --threads 1 --batch 3 \
    --export "${tmp}/tune_t1.txt" > /dev/null
  "${cli}" tune "${tune_flags[@]}" --threads 8 --batch 64 \
    --export "${tmp}/tune_t8.txt" > /dev/null
  cmp "${tmp}/tune_t1.txt" "${tmp}/tune_t8.txt"
  # cavlc's rewrite reaches a fixpoint, so deep recipes share lattice
  # leaves with shallow ones.
  local fixpoint_flags=(cavlc 16 --deadline 60 --samples 8 --seed 5
    --train-designs 2 --train-epochs 2)
  "${cli}" tune "${fixpoint_flags[@]}" --threads 1 --batch 3 \
    --export "${tmp}/fixpoint_t1.txt" > /dev/null
  "${cli}" tune "${fixpoint_flags[@]}" --threads 8 --batch 64 \
    --export "${tmp}/fixpoint_t8.txt" > /dev/null
  cmp "${tmp}/fixpoint_t1.txt" "${tmp}/fixpoint_t8.txt"
  grep -q '^edacloud-tune-export v1$' "${tmp}/tune_t1.txt" || {
    echo "tune smoke: export missing version header" >&2
    return 1
  }

  echo "=== tune smoke: flag validation ==="
  "${cli}" tune adder 16 --no-such-flag 1 > /dev/null 2>&1 && {
    echo "tune smoke: unknown tune flag exited 0" >&2
    return 1
  }
  "${cli}" tune adder 16 --samples 9999 > /dev/null 2>&1 && {
    echo "tune smoke: out-of-range --samples exited 0" >&2
    return 1
  }
  "${cli}" tune --designs "badformat" > /dev/null 2>&1 && {
    echo "tune smoke: malformed --designs exited 0" >&2
    return 1
  }
  "${cli}" tune no-such-family 16 > /dev/null 2>&1 && {
    echo "tune smoke: unknown family exited 0" >&2
    return 1
  }
  "${cli}" tune --help > /dev/null || return 1
}

tune_smoke

# Sharded-simulator smoke-run: the determinism contract from the CLI side —
# the same seed at 1 and 8 shards (and across thread counts) must export
# byte-identical metrics (docs/SIMULATION.md, DESIGN.md §13).
shard_smoke() {
  local cli="build/examples/edacloud_cli"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  echo "=== shard smoke: shards-1-vs-8 byte-identity ==="
  # Faults on, so the per-pool RNG streams are actually exercised; traces
  # on the virtual clock must match byte-for-byte too.
  local sim_flags=(--seed 11 --duration 3600 --mix bursty --spot 0.5
    --interruption-rate 2 --crash-rate 0.3 --boot-fail 0.05
    --restart checkpoint --checkpoint-interval 300 --handoff-latency 2)
  "${cli}" fleet-sim "${sim_flags[@]}" --shards 1 --threads 1 \
    --trace "${tmp}/shard_1.json" --metrics "${tmp}/shard_m1.json" > /dev/null
  "${cli}" fleet-sim "${sim_flags[@]}" --shards 8 --threads 1 \
    --trace "${tmp}/shard_8.json" --metrics "${tmp}/shard_m8.json" > /dev/null
  "${cli}" fleet-sim "${sim_flags[@]}" --shards 8 --threads 4 \
    --trace "${tmp}/shard_8t4.json" --metrics "${tmp}/shard_m8t4.json" \
    > /dev/null
  python3 -m json.tool "${tmp}/shard_m1.json" > /dev/null
  cmp "${tmp}/shard_m1.json" "${tmp}/shard_m8.json"
  cmp "${tmp}/shard_m1.json" "${tmp}/shard_m8t4.json"
  cmp "${tmp}/shard_1.json" "${tmp}/shard_8.json"
  cmp "${tmp}/shard_1.json" "${tmp}/shard_8t4.json"

  echo "=== shard smoke: engine banner, stats, flag validation ==="
  "${cli}" fleet-sim --seed 11 --duration 1800 --shards 4 --shard-stats \
    --metrics "${tmp}/stats_m.json" > "${tmp}/stats.out"
  grep -q 'sharded engine, 4 shard(s)' "${tmp}/stats.out"
  grep -q 'shard 0:' "${tmp}/stats.out"
  grep -q 'pooled), events total:' "${tmp}/stats.out"
  grep -q '"fleet_shard.pooled_windows"' "${tmp}/stats_m.json"
  # The window is always the handoff latency; there is no knob to widen it.
  "${cli}" fleet-sim --lookahead 1 > /dev/null 2>&1 && {
    echo "shard smoke: removed --lookahead flag exited 0" >&2
    return 1
  }
  "${cli}" fleet-sim --shards 13 > /dev/null 2>&1 && {
    echo "shard smoke: out-of-range --shards exited 0" >&2
    return 1
  }
  "${cli}" fleet-sim --shards 0 > /dev/null 2>&1 && {
    echo "shard smoke: --shards 0 exited 0" >&2
    return 1
  }
  # The rejected command above is the last one run; without this the
  # function would return its nonzero status and set -e would stop here.
  return 0
}

shard_smoke

# Market smoke-run: the dynamic spot-price layer from the CLI side — the
# same seed must export byte-identical metrics under a moving market with
# the re-bid policy on (including across shard counts), the static market
# must stay deterministic, and the market/mix flag vocabulary must be
# validated loudly (docs/MARKETS.md, DESIGN.md §15).
market_smoke() {
  local cli="build/examples/edacloud_cli"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  echo "=== market smoke: same-seed byte-identity, static and storm ==="
  for run in 1 2; do
    "${cli}" fleet-sim --seed 13 --duration 3600 --spot 0.6 \
      --metrics "${tmp}/static_m${run}.json" > /dev/null
    "${cli}" fleet-sim --seed 13 --duration 3600 --spot 0.6 \
      --market storm --rebid --mix diurnal \
      --metrics "${tmp}/storm_m${run}.json" > /dev/null
  done
  python3 -m json.tool "${tmp}/storm_m1.json" > /dev/null
  cmp "${tmp}/static_m1.json" "${tmp}/static_m2.json"
  cmp "${tmp}/storm_m1.json" "${tmp}/storm_m2.json"
  grep -q 'market' "${tmp}/storm_m1.json" || {
    echo "market smoke: no market.* gauges in storm metrics" >&2
    return 1
  }

  echo "=== market smoke: storm shards-1-vs-8-vs-4x2 byte-identity ==="
  local storm_flags=(--seed 13 --duration 3600 --spot 0.6 --market storm
    --rebid --mix flash --handoff-latency 2)
  "${cli}" fleet-sim "${storm_flags[@]}" --shards 1 --threads 1 \
    --metrics "${tmp}/storm_s1.json" > /dev/null
  "${cli}" fleet-sim "${storm_flags[@]}" --shards 8 --threads 1 \
    --metrics "${tmp}/storm_s8.json" > /dev/null
  "${cli}" fleet-sim "${storm_flags[@]}" --shards 8 --threads 4 \
    --metrics "${tmp}/storm_s8t4.json" > /dev/null
  # 4 shards x 2 threads is the benchmark's fleet shape.
  "${cli}" fleet-sim "${storm_flags[@]}" --shards 4 --threads 2 \
    --metrics "${tmp}/storm_s4t2.json" > /dev/null
  cmp "${tmp}/storm_s1.json" "${tmp}/storm_s8.json"
  cmp "${tmp}/storm_s1.json" "${tmp}/storm_s8t4.json"
  cmp "${tmp}/storm_s1.json" "${tmp}/storm_s4t2.json"

  echo "=== market smoke: flag validation ==="
  "${cli}" fleet-sim --market hurricane > /dev/null 2>&1 && {
    echo "market smoke: unknown --market exited 0" >&2
    return 1
  }
  "${cli}" fleet-sim --mix lumpy > /dev/null 2>&1 && {
    echo "market smoke: unknown --mix exited 0" >&2
    return 1
  }
  "${cli}" fleet-sim --bid -1 > /dev/null 2>&1 && {
    echo "market smoke: negative --bid exited 0" >&2
    return 1
  }
  "${cli}" fleet-sim --market storm --market-trace /dev/null \
    > /dev/null 2>&1 && {
    echo "market smoke: --market plus --market-trace exited 0" >&2
    return 1
  }
  "${cli}" loadgen --mix junk --port 1 > /dev/null 2>&1 && {
    echo "market smoke: unknown loadgen --mix exited 0" >&2
    return 1
  }
  # The rejected command above is the last one run; without this the
  # function would return its nonzero status and set -e would stop here.
  return 0
}

market_smoke

# Docs drift: every subcommand answers --help, and every --flag named in the
# first cell of a docs table row is a flag of the subcommand that table
# documents — and the other way round, so a flag cannot be added, renamed
# or dropped without its docs.
docs_smoke() {
  local cli="build/examples/edacloud_cli"

  echo "=== docs smoke: every subcommand answers --help ==="
  local cmd
  for cmd in gen synth flow plan lib fleet-sim predict tune serve loadgen; do
    "${cli}" "${cmd}" --help > /dev/null || {
      echo "docs smoke: ${cmd} --help exited nonzero" >&2
      return 1
    }
  done

  # The --flags in the first cell of each table row of FILE, only in the
  # section whose heading contains SECTION when one is given.
  table_flags() {
    awk -v section="$2" '
      BEGIN { inside = (section == "") }
      /^#/ { inside = (section == "" || index($0, section) > 0) }
      inside && /^\| `/ { split($0, cells, "|"); print cells[2] }' "$1" |
      { grep -o -- '--[a-z][a-z-]*' || true; } | sort -u
  }

  # check_docs CMD FILE [SECTION] [FILE [SECTION]]...: the flags documented
  # across those tables must equal the flags CMD --help lists.
  check_docs() {
    local cmd="$1" documented="" listed
    shift
    while [[ $# -gt 0 ]]; do
      documented+="$(table_flags "$1" "$2")"$'\n'
      shift 2
    done
    documented="$(sort -u <<< "${documented}" | sed '/^$/d')"
    listed="$("${cli}" "${cmd}" --help | sed -n 's/^  \(--[a-z][a-z-]*\).*/\1/p' |
      sort -u)"
    [[ -n "${documented}" ]] || {
      echo "docs smoke: no ${cmd} flags parsed from the docs" >&2
      return 1
    }
    if [[ "${documented}" != "${listed}" ]]; then
      echo "docs smoke: ${cmd} docs and --help disagree" \
        "(< documented only, > --help only):" >&2
      diff <(echo "${documented}") <(echo "${listed}") >&2
      return 1
    fi
  }

  echo "=== docs smoke: documented flags match each subcommand ==="
  check_docs fleet-sim docs/SIMULATION.md "" docs/MARKETS.md "" || return 1
  check_docs tune docs/TUNING.md "" || return 1
  check_docs serve docs/SERVING.md "edacloud_cli serve" || return 1
  check_docs loadgen docs/SERVING.md "edacloud_cli loadgen" || return 1
}

docs_smoke

if [[ "${1:-}" != "--fast" ]]; then
  run_pass "sanitized" build-asan -DEDACLOUD_SANITIZE=ON

  # TSan leg: only the suites that exercise the thread pool and the parallel
  # engines — TSan slows everything ~10x, so the serial suites stay out.
  echo "=== tsan: configure (build-tsan) ==="
  cmake -B build-tsan -S . -DEDACLOUD_SANITIZE=tsan
  echo "=== tsan: build ==="
  cmake --build build-tsan -j "$(nproc)"
  echo "=== tsan: ctest (concurrency suites) ==="
  (cd build-tsan && ctest --output-on-failure -j "$(nproc)" \
    -R 'ThreadPool|MatrixTest.Kernels|GcnGoldenTest|TracerTest|SvcServerTest|SvcServerDeterminismTest|SvcLoadgenTest|SvcFuzzTest|MlBatchTest|SchedShardTest|MarketShardTest|PolicyTest|SimulatorTest|FaultInjectionTest|MarketSimTest|TuneTest|SynthLatticeTest|RecipeSpaceTest')
fi

# Per-suite inventory: what tier-1 actually ran, so a vanishing suite (a
# discovery regression, a commented-out registration) is loud, not silent.
echo "=== test inventory (per suite) ==="
(cd build && ctest -N |
  sed -n 's/^ *Test *#[0-9]*: *\([A-Za-z0-9_]*\)\..*/\1/p' |
  sort | uniq -c | sort -rn | awk '{printf "  %-32s %s\n", $2, $1}')
total_tests="$(cd build && ctest -N | sed -n 's/^Total Tests: *//p')"
echo "  total: ${total_tests} tests"

echo "=== all passes green ==="
