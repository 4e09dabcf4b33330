#!/usr/bin/env bash
# CI entry point: tier-1 verify (configure, build, ctest), smoke runs of
# the kernel, retrieval, optimizer and ablation benchmarks gated on the
# ratios and counts they write to BENCH_retrieval.json, the end-to-end
# benchmark's self-test and quick run, an ASan+UBSan job over the full
# ctest, and a TSan job over the concurrent daemon and engine tests.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc)"
BENCH_JSON=build/BENCH_retrieval.json

# bench_val SECTION.KEY prints one value from BENCH_retrieval.json; a
# missing key is named on stderr and fails the run.
bench_val() {
  jq -er ".$1" "${BENCH_JSON}" || {
    echo "FAIL: ${BENCH_JSON} has no $1" >&2
    exit 1
  }
}

echo "== tier-1 verify =="
cmake -B build -S .
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

echo "== ASan+UBSan: full ctest =="
# Address and undefined-behaviour checks over every tier-1 test binary:
# the kernels, engines and equivalence suites, and the daemon, WAL,
# recovery and chaos tests. Any UBSan report aborts the run.
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -g -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
cmake --build build-asan -j"${JOBS}"
(cd build-asan && UBSAN_OPTIONS="print_stacktrace=1" \
  ctest --output-on-failure -j"${JOBS}")

echo "== bench smoke: BAT kernel =="
(cd build && ./bench_bat_kernel \
    --benchmark_filter='MilPlan|TopNByTail|SelectBySelectivity' \
    --benchmark_min_time=0.05 \
    --benchmark_out=BENCH_bat_kernel.json \
    --benchmark_out_format=json)

echo "== bench smoke: retrieval (E3a/E3b/E3c) =="
(cd build && ./bench_retrieval)

echo "== bench smoke: optimizer (E2) and belief ablation (E11a) =="
# Both compile their queries through MirrorDb's Prepare path; any query
# that fails to compile or run aborts the binary (MIRROR_CHECK).
(cd build && ./bench_optimizer && ./bench_ablation)

echo "== speedup gate (E3c selection-heavy plan, 400k rows) =="
# Baseline is the materializing sequential mil::Executor on the same
# plan, parse → flatten → optimize included on both sides.
SPEEDUP=$(bench_val selection_heavy_400k_rows.speedup_engine4_vs_sequential)
echo "candidate-vector engine at 4 threads vs the sequential Executor: ${SPEEDUP}x"
awk -v s="${SPEEDUP}" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }' || {
  echo "FAIL: selection-heavy speedup ${SPEEDUP}x is below the 2x floor"
  exit 1
}
# Count gates behind the speedup, exact on every run: the year pair and
# the rating pair compile to one select.range each, and the 1-thread
# engine (unsharded, recycler off) reads no more tuples than recorded
# when bound pairing landed (two chained select.cmp per field read more).
SEL_INSTRS=$(bench_val selection_heavy_400k_rows.select_instrs)
SEL_TUPLES=$(bench_val selection_heavy_400k_rows.tuples_in)
echo "selection-heavy plan: ${SEL_INSTRS} select instructions, ${SEL_TUPLES} tuples in"
[ "${SEL_INSTRS}" = "2" ] || {
  echo "FAIL: selection-heavy plan has ${SEL_INSTRS} select instructions (want 2)"
  exit 1
}
[ "${SEL_TUPLES}" -le 2232314 ] || {
  echo "FAIL: selection-heavy plan read ${SEL_TUPLES} tuples (want <= 2232314)"
  exit 1
}

echo "== fused-aggregation gate (E3d select→SumPerHead, 400k rows) =="
# Baseline is the sequential mil::Executor on the same MIL plan: every
# intermediate materializes and the group-by hashes a gathered oid head.
# The fused path at 4 threads must be >= 1.5x and perform zero
# Materialize() calls (bench_retrieval itself aborts if mat != 0).
AGG_SPEEDUP=$(bench_val select_sumperhead_400k.speedup_fused4_vs_sequential)
AGG_MAT=$(bench_val select_sumperhead_400k.materialize_calls_fused)
echo "fused agg at 4 threads vs the sequential Executor: ${AGG_SPEEDUP}x (materialize calls: ${AGG_MAT})"
awk -v s="${AGG_SPEEDUP}" 'BEGIN { exit (s >= 1.5) ? 0 : 1 }' || {
  echo "FAIL: select→agg fused speedup ${AGG_SPEEDUP}x is below the 1.5x floor"
  exit 1
}
[ "${AGG_MAT}" = "0" ] || {
  echo "FAIL: fused select→agg plan performed ${AGG_MAT} Materialize() calls (want 0)"
  exit 1
}

echo "== radix-join gate (E3e select→join→SumPerHead, 400k rows) =="
# Baseline is the sequential mil::Executor on the same MIL plan: every
# intermediate materializes and the pre-radix single-threaded JoinLegacy
# builds an unordered_map over the 400k-key dimension. The
# radix-partitioned morsel-parallel path at 4 threads must be >= 2x with
# zero Materialize() calls (bench_retrieval itself aborts if mat != 0 or
# the build was never partitioned).
JOIN_SPEEDUP=$(bench_val select_join_sumperhead_400k.speedup_radix4_vs_sequential)
JOIN_MAT=$(bench_val select_join_sumperhead_400k.materialize_calls_radix)
echo "radix join at 4 threads vs the sequential Executor: ${JOIN_SPEEDUP}x (materialize calls: ${JOIN_MAT})"
awk -v s="${JOIN_SPEEDUP}" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }' || {
  echo "FAIL: select→join→agg radix speedup ${JOIN_SPEEDUP}x is below the 2x floor"
  exit 1
}
[ "${JOIN_MAT}" = "0" ] || {
  echo "FAIL: radix select→join→agg plan performed ${JOIN_MAT} Materialize() calls (want 0)"
  exit 1
}

echo "== sharded-catalog gate (E3f select→join→SumPerHead, 400k rows, sharded) =="
# Baseline is the full current engine at 4 threads with one shard. The
# shard-parallel run (oid-range sharded catalog, shared join build,
# range-hinted dense per-shard aggregation) must be >= 1.5x with zero
# Materialize() calls (bench_retrieval itself aborts if mat != 0 or the
# plan never fanned out across shards).
SHARD_SPEEDUP=$(bench_val select_join_sumperhead_400k_sharded.speedup_sharded4_vs_1shard4)
SHARD_MAT=$(bench_val select_join_sumperhead_400k_sharded.materialize_calls_sharded)
echo "sharded engine at 4 threads vs 1-shard engine at 4 threads: ${SHARD_SPEEDUP}x (materialize calls: ${SHARD_MAT})"
awk -v s="${SHARD_SPEEDUP}" 'BEGIN { exit (s >= 1.5) ? 0 : 1 }' || {
  echo "FAIL: sharded select→join→agg speedup ${SHARD_SPEEDUP}x is below the 1.5x floor"
  exit 1
}
[ "${SHARD_MAT}" = "0" ] || {
  echo "FAIL: sharded select→join→agg plan performed ${SHARD_MAT} Materialize() calls (want 0)"
  exit 1
}

echo "== multi-client serving gate (E4, 4 concurrent sessions vs 1 serial session) =="
# Baseline is the same 32 requests issued serially through ONE session of
# the query daemon (wire cost on both sides). Four concurrent sessions
# must deliver >= 2x aggregate throughput: on multi-core hosts the
# per-connection threads provide it outright, and on any host identical
# in-flight requests coalesce onto one leader execution + one marshalled
# result frame (bench_retrieval itself aborts if no request coalesced or
# any wire result deviates from direct MirrorDb execution).
E4_SPEEDUP=$(bench_val multi_client_serving_e4.speedup_concurrent4_vs_serial1)
E4_COALESCED=$(bench_val multi_client_serving_e4.coalesced_requests)
echo "4 concurrent sessions vs serial through one session: ${E4_SPEEDUP}x (coalesced requests: ${E4_COALESCED})"
awk -v s="${E4_SPEEDUP}" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }' || {
  echo "FAIL: multi-client aggregate throughput ${E4_SPEEDUP}x is below the 2x floor"
  exit 1
}
[ "${E4_COALESCED}" != "0" ] || {
  echo "FAIL: concurrent identical requests never coalesced"
  exit 1
}

echo "== top-k pruning gate (E5, zipfian ranking, 262k-row belief columns) =="
# Baseline is the identical engine configuration (4 threads, 8 shards)
# with zone maps and top-k pruning switched off. The pruned batch must be
# >= 2x and must have skipped at least one zone block — a zero skip count
# would mean the WAND threshold never pruned and the speedup is noise.
# bench_retrieval itself aborts unless every pruned ranking is
# bit-identical to the naive sequential executor (recall@10 == 1.0).
E5_SPEEDUP=$(bench_val ranking_topk_e5.speedup_pruned_vs_unpruned)
E5_SKIPS=$(bench_val ranking_topk_e5.zone_blocks_skipped)
E5_RECALL=$(bench_val ranking_topk_e5.recall_at_k)
echo "pruned top-k vs pruning off: ${E5_SPEEDUP}x (zone blocks skipped: ${E5_SKIPS}, recall@k: ${E5_RECALL})"
awk -v s="${E5_SPEEDUP}" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }' || {
  echo "FAIL: top-k pruning speedup ${E5_SPEEDUP}x is below the 2x floor"
  exit 1
}
[ "${E5_SKIPS}" != "0" ] || {
  echo "FAIL: pruned ranking batch never skipped a zone block"
  exit 1
}
awk -v r="${E5_RECALL}" 'BEGIN { exit (r == 1.0) ? 0 : 1 }' || {
  echo "FAIL: pruned ranking recall@k ${E5_RECALL} != 1.0"
  exit 1
}

echo "== instant-recovery gate (E6, crash-kill + MM-DIRECT lazy restart) =="
# bench_recovery populates a WAL-attached daemon over wire APPENDs,
# SIGKILLs it mid-write-storm, and restarts it twice. It aborts itself
# if the lazy restart answers differently from the full replay or the
# first result never forced a query-driven fragment replay. The gates:
# every acknowledged write survived the SIGKILL, and opening the port
# before replay (lazy, on-demand fragment replay) reaches the first
# result >= 3x faster than the classic full-replay restart.
(cd build && ./bench_recovery)
E6_LOST=$(bench_val instant_recovery_e6.lost_acked_writes)
E6_SPEEDUP=$(bench_val instant_recovery_e6.ttfr_speedup_lazy_vs_full)
echo "crash-kill: ${E6_LOST} acknowledged writes lost; lazy vs full-replay TTFR: ${E6_SPEEDUP}x"
[ "${E6_LOST}" = "0" ] || {
  echo "FAIL: crash-kill lost ${E6_LOST} acknowledged writes (want 0)"
  exit 1
}
awk -v s="${E6_SPEEDUP}" 'BEGIN { exit (s >= 3.0) ? 0 : 1 }' || {
  echo "FAIL: instant-recovery TTFR advantage ${E6_SPEEDUP}x is below the 3x floor"
  exit 1
}

echo "== overload-goodput gate (E7, 64-client storm vs uncontended) =="
# bench_overload runs an undersized daemon (3 workers, 8-deep queue)
# twice: 16 healthy retrying clients alone, then the same 16 inside a
# 64-client storm (malformed floods, mid-frame disconnects, session
# churn). The gates: healthy goodput under the storm stays >= 70% of
# uncontended, at least one request was shed with a typed kOverloaded
# ERROR (admission control actually engaged), and the healthy p99 under
# the storm stays bounded.
(cd build && ./bench_overload)
E7_RATIO=$(bench_val overload_serving_e7.goodput_ratio)
E7_SHED=$(bench_val overload_serving_e7.requests_shed)
E7_P99=$(bench_val overload_serving_e7.storm_p99_ms)
echo "healthy goodput under storm: ${E7_RATIO} of uncontended (sheds: ${E7_SHED}, storm p99: ${E7_P99} ms)"
awk -v r="${E7_RATIO}" 'BEGIN { exit (r >= 0.7) ? 0 : 1 }' || {
  echo "FAIL: healthy goodput ratio ${E7_RATIO} under the storm is below the 0.7 floor"
  exit 1
}
[ "${E7_SHED}" != "0" ] || {
  echo "FAIL: the storm never tripped admission control (0 typed sheds)"
  exit 1
}
awk -v p="${E7_P99}" 'BEGIN { exit (p <= 250.0) ? 0 : 1 }' || {
  echo "FAIL: healthy p99 ${E7_P99} ms under the storm exceeds the 250 ms bound"
  exit 1
}

echo "== result-reuse gate (E8, zipfian multi-tenant mix, recycler on vs off) =="
# bench_recycler runs 8 tenants x 150 zipfian queries over a 64-query
# pool against the daemon twice: recycler off (coalescing only, as the
# server stood before this cache) and recycler on, cold. The gates: the
# recycled phase is >= 3x faster, the result cache actually served hits,
# the bytes held stay within the memory budget, every distinct
# query's reply agrees value-for-value across the phases, and the result
# section holds no more entries than there are pool queries asked at
# least twice (a reply is admitted only on its key's second request; the
# seeded sequences ask 64 distinct queries, 62 of them twice or more).
(cd build && ./bench_recycler)
E8_SPEEDUP=$(bench_val result_reuse_e8.speedup)
E8_HITS=$(bench_val result_reuse_e8.result_cache_hits)
E8_HELD=$(bench_val result_reuse_e8.bytes_held)
E8_BUDGET=$(bench_val result_reuse_e8.budget_bytes)
E8_IDENTICAL=$(bench_val result_reuse_e8.replies_identical)
E8_ENTRIES=$(bench_val result_reuse_e8.result_entries)
E8_REPEATED=$(bench_val result_reuse_e8.repeated_queries)
echo "recycler on vs off: ${E8_SPEEDUP}x (hits: ${E8_HITS}, held: ${E8_HELD}/${E8_BUDGET} bytes, entries: ${E8_ENTRIES}/${E8_REPEATED} repeated, identical: ${E8_IDENTICAL})"
awk -v s="${E8_SPEEDUP}" 'BEGIN { exit (s >= 3.0) ? 0 : 1 }' || {
  echo "FAIL: result-reuse speedup ${E8_SPEEDUP}x is below the 3x floor"
  exit 1
}
[ "${E8_HITS}" != "0" ] || {
  echo "FAIL: the zipfian mix never hit the result cache"
  exit 1
}
awk -v h="${E8_HELD}" -v b="${E8_BUDGET}" 'BEGIN { exit (h <= b) ? 0 : 1 }' || {
  echo "FAIL: recycler holds ${E8_HELD} bytes, over its ${E8_BUDGET}-byte budget"
  exit 1
}
[ "${E8_IDENTICAL}" = "1" ] || {
  echo "FAIL: recycled replies deviated from the execute-every-time phase"
  exit 1
}
[ "${E8_ENTRIES}" -le "${E8_REPEATED}" ] || {
  echo "FAIL: ${E8_ENTRIES} cached results, more than the ${E8_REPEATED} pool queries asked twice or more"
  exit 1
}

echo "== trace-overhead gate (E9, exec.trace on/off on the E3c ranking plan) =="
# bench_retrieval times the warmed 4-thread ranking plan three times:
# trace off, trace on, trace off again (min-of-21 each). The gates: the
# two knob-off passes agree within 2% (the knob must cost one untaken
# branch — this A/A ratio is also the noise floor of the measurement),
# and the traced pass stays within 15% of the faster untraced pass.
E9_AA=$(bench_val trace_overhead_e9.trace_off_aa_ratio)
E9_ON=$(bench_val trace_overhead_e9.traced_vs_off)
E9_SPANS=$(bench_val trace_overhead_e9.spans_per_query)
echo "trace off A/A: ${E9_AA}x, traced vs off: ${E9_ON}x (${E9_SPANS} spans/query)"
awk -v r="${E9_AA}" 'BEGIN { exit (r <= 1.02) ? 0 : 1 }' || {
  echo "FAIL: knob-off A/A ratio ${E9_AA}x exceeds the 1.02 bound"
  exit 1
}
awk -v r="${E9_ON}" 'BEGIN { exit (r <= 1.15) ? 0 : 1 }' || {
  echo "FAIL: traced run is ${E9_ON}x the untraced run (bound: 1.15x)"
  exit 1
}
[ "${E9_SPANS}" != "0" ] || {
  echo "FAIL: the traced pass recorded no spans"
  exit 1
}

echo "== end-to-end benchmark: self-test and quick run =="
# mirror_bench exits 1 when any answer differs from the 1-thread
# unsharded engine or the naive oracle, so the quick run checks the one
# engine path end to end through the daemon on all four workloads.
bash bench/e2e/run.sh --selftest
bash bench/e2e/run.sh --quick

echo "== TSan: daemon and engine concurrency (event loop, worker pool, chaos storm, shared views, string appends, shared join builds, WAL group commit, recycler decodes, bulk builders, CONTREP builds) =="
# The event-driven connection layer is lock-order sensitive (loop_mu_ ->
# mu_, the quiesce gate, the coalescing map) and the recycler fast path
# reads the cache from the poll loop while workers insert and writers
# fence: run the daemon test binaries under ThreadSanitizer, plus the
# morsel engine and the equivalence suite, whose DAG-scheduled plans read
# and collapse shared candidate and mapped views from several workers,
# the catalog test, whose readers pin string snapshots while a writer
# appends chunks (merged heaps are copies; the base heap is never written),
# the join test, whose shared builds are warmed before probes fan out
# over the pool's claim-based ParallelFor, the WAL test, whose group
# commit has concurrent appenders share one fsync leader, and the
# recycler test, whose readers decode packed candidate lists outside the
# recycler's mutex while one thread inserts and another fences, and the
# BAT, zone-map and shard tests, which run the parallel bulk builders:
# string-heap builds fill table regions from several workers, zone maps
# scan block ranges in parallel, and shard fragments view buffers that
# replaced base BATs may drop, and the IR and persistence tests, whose
# CONTREP builds count document morsels and scatter postings from
# several workers of the shared pool (the persistence test also runs the
# parallel Load in a forked child), and the ops test, whose morsel selects
# write one shared position buffer at their own offsets before it is
# compacted in place, beside the candidate set operations.
# Skipped with a notice when the toolchain lacks libtsan.
if echo 'int main(){return 0;}' | g++ -fsanitize=thread -x c++ - -o /tmp/tsan_probe 2>/dev/null; then
  rm -f /tmp/tsan_probe
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  tsan_tests=(daemon_server_test daemon_recovery_test daemon_chaos_test
    daemon_recycler_test daemon_observability_test monet_trace_test
    monet_morsel_test moa_fuzz_equivalence_test monet_catalog_mil_test
    monet_join_test monet_wal_test monet_recycler_test monet_bat_test
    monet_zone_map_test monet_shard_test ir_test moa_persistence_test
    monet_ops_test)
  cmake --build build-tsan -j"${JOBS}" --target "${tsan_tests[@]}"
  for t in "${tsan_tests[@]}"; do
    (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" "./$t")
  done
else
  echo "libtsan unavailable: skipping the TSan job"
fi

echo "CI OK — artifacts: build/BENCH_bat_kernel.json build/BENCH_retrieval.json build/e2e/results.json"
