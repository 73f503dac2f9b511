/**
 * @file
 * Ablation of the trace-replay data path: run every workload's
 * measurement under the two replay configurations --
 *
 *   unbatched  --sim-batch 1   (every event drives the models inline)
 *   batched    default batch   (blocks drained by replayBatch())
 *
 * -- assert zero metric drift between them, and report the wall
 * clocks. A final section runs one co-located scenario from its
 * delta-compressed captured streams, asserts it completes, and
 * asserts the captured stream footprint shrank >= 4x versus raw
 * 8-byte-per-event blocks.
 *
 * The DMPB_BENCH_JSON rows carry real_s = unbatched wall, proxy_s =
 * batched wall, speedup = their ratio, per workload, plus one
 * "colo-compress" row whose speedup is the aggregate compression
 * ratio -- CI uploads the file per commit, tracking the replay
 * engine's wall-clock and footprint trajectory.
 *
 * Shards are pinned to 1 in every row so the comparison isolates the
 * replay path itself (bench_ablation_measure covers sharding).
 */

#include <chrono>
#include <cstdio>

#include "bench/bench_util.hh"
#include "core/colocation.hh"

using namespace dmpb;
using namespace dmpb::bench;

namespace {

double
wallSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

bool
sameResult(const WorkloadResult &a, const WorkloadResult &b)
{
    bool same = a.runtime_s == b.runtime_s;
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        same = same && a.metrics[m] == b.metrics[m];
    }
    return same;
}

ClusterConfig
replayCluster(std::size_t batch)
{
    ClusterConfig c = paperCluster5();
    c.sim.shards = 1;
    c.sim.batch_capacity = batch;
    return c;
}

} // namespace

int
main()
{
    BenchReport bench("ablation_replay");
    TextTable t;
    t.header({"Workload", "Unbatched (s)", "Batched (s)", "Speedup",
              "Drift"});

    const std::size_t batch = kDefaultSimBatchCapacity;
    bool drift_any = false;
    for (const auto &w : paperWorkloads()) {
        auto s0 = std::chrono::steady_clock::now();
        WorkloadResult unbatched = w->run(replayCluster(1));
        double unbatched_wall = wallSince(s0);

        auto s1 = std::chrono::steady_clock::now();
        WorkloadResult batched = w->run(replayCluster(batch));
        double batched_wall = wallSince(s1);

        // Zero-drift: batching is a pure wall-clock knob, so the
        // simulated runtime and every metric double must match bit
        // for bit.
        bool drift = !sameResult(unbatched, batched);
        drift_any = drift_any || drift;

        double sp =
            batched_wall > 0 ? unbatched_wall / batched_wall : 0.0;
        t.row({shortName(w->name()), formatDouble(unbatched_wall, 3),
               formatDouble(batched_wall, 3),
               formatDouble(sp, 2) + "x", drift ? "DRIFT" : "none"});
        bench.addRow("replay-" + shortName(w->name()), unbatched_wall,
                     batched_wall, sp);
    }

    std::printf("== Ablation: unbatched vs batched replay (quick=%d)\n",
                quickMode() ? 1 : 0);
    t.print();

    // ---- Compressed capture path: one co-located scenario, replayed
    // from the delta-compressed streams.
    ColocationSpec spec;
    spec.workloads = {"grep", "kmeans"};
    spec.policy = "static-equal";
    spec.scale = benchScale();

    auto c0 = std::chrono::steady_clock::now();
    ColocationOutcome colo = runColocation(spec, replayCluster(batch),
                                           CacheConfig{},
                                           CachePolicy::Bypass);
    double colo_wall = wallSince(c0);

    bool colo_ok = colo.status == RunStatus::Ok;

    std::uint64_t raw_bytes = 0;
    std::uint64_t compressed_bytes = 0;
    for (const TenantOutcome &tn : colo.tenants) {
        raw_bytes += 8 * tn.captured_events;
        compressed_bytes += tn.compressed_bytes;
    }
    double ratio = compressed_bytes > 0
                       ? static_cast<double>(raw_bytes) /
                             static_cast<double>(compressed_bytes)
                       : 0.0;
    std::printf("\nco-located capture: %llu events, %llu compressed "
                "bytes (%.1fx vs raw), status %s, %.3fs\n",
                static_cast<unsigned long long>(raw_bytes / 8),
                static_cast<unsigned long long>(compressed_bytes),
                ratio, colo_ok ? "ok" : "FAILED", colo_wall);
    bench.addRow("colo-compress", static_cast<double>(raw_bytes),
                 static_cast<double>(compressed_bytes), ratio);

    if (drift_any) {
        std::fprintf(stderr,
                     "[ablation_replay] FAIL: replay configurations "
                     "diverged (batching must be metric-neutral)\n");
        return 1;
    }
    if (!colo_ok) {
        std::fprintf(stderr,
                     "[ablation_replay] FAIL: co-located scenario "
                     "did not complete: %s\n", colo.error.c_str());
        return 1;
    }
    if (ratio < 4.0) {
        std::fprintf(stderr,
                     "[ablation_replay] FAIL: captured stream "
                     "compression %.2fx < 4x floor\n", ratio);
        return 1;
    }
    std::printf("\nunbatched == batched: OK (compression %.1fx)\n",
                ratio);
    return 0;
}
