#include "core/colocation.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "base/logging.hh"
#include "base/names.hh"
#include "base/rng.hh"
#include "core/proxy_benchmark.hh"
#include "core/proxy_factory.hh"
#include "core/reference_cache.hh"
#include "sim/compressed_trace.hh"
#include "sim/engine.hh"
#include "sim/trace.hh"
#include "stack/managed_heap.hh"
#include "stack/stack_overhead.hh"

namespace dmpb {

namespace {

/** Per-tenant address-space stride (32 TiB). Captured streams are
 *  rebased by tenant_index * this, so co-scheduled tenants model
 *  separate processes contending for LLC capacity instead of
 *  aliasing each other's lines in the shared cache. */
constexpr std::uint64_t kTenantAddrStride = 1ULL << 45;

/** Traced-bytes cap per proxy edge at each scale (the co-location
 *  counterpart of the pipeline's trace_cap). */
std::uint64_t
captureTraceCap(Scale scale)
{
    switch (scale) {
      case Scale::Tiny: return 1ULL * 1024 * 1024;
      case Scale::Quick: return 2ULL * 1024 * 1024;
      case Scale::Paper: return 8ULL * 1024 * 1024;
    }
    return 2ULL * 1024 * 1024;
}

/** Bytes one AI-motif invocation processes with parameters @p p
 *  (mirrors the proxy executor's extrapolation basis). */
std::uint64_t
aiBytesPerRun(const MotifParams &p)
{
    std::uint64_t batch = std::max<std::uint32_t>(1, p.batch_size);
    std::uint64_t per_sample = 4ULL *
                               std::max<std::uint32_t>(1, p.channels) *
                               std::max<std::uint32_t>(1, p.height) *
                               std::max<std::uint32_t>(1, p.width);
    return batch * per_sample;
}

/** Everything captured and replayed for one tenant. */
struct TenantWork
{
    std::string full_name;
    std::string short_name;
    TenantStream stream;
    /** Trace-level counters (ops, disk, net); cache and branch stats
     *  are zero -- they come from the replays. */
    KernelProfile captured;
    TenantReplayStats isolated;
};

/**
 * Trace one tenant's proxy DAG into a captured event stream and
 * replay it, block by block as it is captured, into the isolated
 * baseline (TenantCaptureSink).
 *
 * Mirrors ProxyBenchmark::execute's per-edge parameterisation (seed
 * derivation, working-set bounding, chunk clamping, code footprint,
 * memory-management work) but runs every edge sequentially into ONE
 * capture-sink context: the tenant is one hardware context on the
 * shared node, so its edges form a single program-ordered stream.
 * No weight/task extrapolation is applied -- the captured trace (one
 * pass over each edge's bounded working set) IS the tenant's
 * execution window, replayed verbatim under both arrangements.
 */
void
captureTenant(TenantWork &work, const ProxyBenchmark &proxy,
              const MachineConfig &machine, Scale scale,
              std::uint64_t rebase_offset, ReplayMode mode)
{
    const MotifParams &base = proxy.baseParams();
    const std::uint32_t tasks =
        std::max<std::uint32_t>(1, base.num_tasks);
    const std::uint64_t trace_cap = captureTraceCap(scale);
    const std::uint64_t working_set = std::max<std::uint64_t>(
        64 * 1024,
        std::min<std::uint64_t>(base.data_size / tasks, trace_cap));

    TenantCaptureSink sink(work.stream.trace, machine, rebase_offset,
                           mode);
    TraceContext ctx(machine, 1, 1, kCaptureBlockEvents);
    ctx.setCaptureSink(&sink);
    ctx.setCodeFootprint(48 * 1024);

    const std::vector<ProxyEdge> &edges = proxy.edges();
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
        const ProxyEdge &edge = edges[ei];
        MotifParams p = base;
        p.seed = base.seed ^ mix64(ei + 1);
        std::uint64_t traced_bytes;
        if (edge.motif->isAi()) {
            // One batch per traced run, exactly like the pipeline.
            p.total_size = 0;
            traced_bytes = aiBytesPerRun(p);
        } else {
            p.data_size = working_set;
            p.chunk_size = std::min<std::uint64_t>(p.chunk_size,
                                                   p.data_size);
            traced_bytes = p.data_size;
        }
        edge.motif->run(ctx, p);
        if (proxy.gcIntensity() > 0.0) {
            ManagedHeap heap(ctx,
                             std::max<std::uint64_t>(64 * 1024,
                                                     working_set / 8));
            Rng mgmt_rng(p.seed ^ 0x6c6cULL);
            stackManagementWork(ctx, heap, mgmt_rng, traced_bytes,
                                proxy.gcIntensity());
            heap.collect();
        }
    }
    // Flushes the final partial block into the sink and snapshots the
    // trace-level counters (the model stats inside are all zero).
    work.captured = ctx.profile();
    work.isolated = sink.isolatedStats();
}

/** Assemble the full profile of one replay: captured trace-level
 *  counters plus the replayed model statistics. */
KernelProfile
assembleProfile(const KernelProfile &captured,
                const TenantReplayStats &replay)
{
    KernelProfile p = captured;
    p.l1i = replay.l1i;
    p.l1d = replay.l1d;
    p.l2 = replay.l2;
    p.l3 = replay.l3;
    p.branch = replay.branch;
    return p;
}

/** Derive one tenant outcome side (runtime + metrics) from a replay. */
WorkloadResult
deriveResult(const std::string &name, const KernelProfile &profile,
             const MachineConfig &machine)
{
    WorkloadResult r;
    r.name = name;
    r.profile = profile;
    r.runtime_s = machine.core.seconds(profile) +
                  machine.accel.seconds(profile);
    r.metrics = computeMetrics(profile, machine.core, r.runtime_s, 1.0);
    return r;
}

void
mixBits(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
}

/** fnv64 digest over everything a cache round-trip restores. */
std::uint64_t
outcomeChecksum(const std::vector<TenantOutcome> &tenants)
{
    std::uint64_t h = kFnvOffset;
    for (const TenantOutcome &t : tenants) {
        for (char c : t.short_name) {
            h ^= static_cast<unsigned char>(c);
            h *= kFnvPrime;
        }
        mixBits(h, std::bit_cast<std::uint64_t>(t.isolated_runtime_s));
        mixBits(h, std::bit_cast<std::uint64_t>(t.colocated_runtime_s));
        for (std::size_t m = 0; m < kNumMetrics; ++m) {
            const Metric metric = static_cast<Metric>(m);
            mixBits(h, std::bit_cast<std::uint64_t>(
                           t.isolated_metrics[metric]));
            mixBits(h, std::bit_cast<std::uint64_t>(
                           t.colocated_metrics[metric]));
        }
    }
    return h;
}

/** Fill slowdowns and the CPA aggregate triple from the per-tenant
 *  runtimes (identical for computed and cache-restored outcomes). */
void
finalizeAggregates(ColocationOutcome &out)
{
    double stp = 0.0;
    double antt = 0.0;
    double min_slow = std::numeric_limits<double>::infinity();
    double max_slow = 0.0;
    for (TenantOutcome &t : out.tenants) {
        const double iso = t.isolated_runtime_s;
        const double colo = t.colocated_runtime_s;
        t.slowdown = iso > 0.0 ? colo / iso : 0.0;
        stp += colo > 0.0 ? iso / colo : 0.0;
        antt += t.slowdown;
        min_slow = std::min(min_slow, t.slowdown);
        max_slow = std::max(max_slow, t.slowdown);
    }
    const double n = static_cast<double>(out.tenants.size());
    out.stp = stp;
    out.antt = n > 0.0 ? antt / n : 0.0;
    out.unfairness = min_slow > 0.0 ? max_slow / min_slow : 0.0;
    out.checksum = outcomeChecksum(out.tenants);
}

} // namespace

std::string
colocationCacheKey(const ColocationSpec &spec,
                   const std::string &cluster_id,
                   std::size_t tenant_index, const std::string &kind)
{
    std::ostringstream key;
    key << "colo-v1|tenants=";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
        if (i)
            key << ',';
        key << canonName(spec.workloads[i]);
    }
    key << "|policy=" << canonName(spec.policy)
        << "|quantum=" << spec.interleave.quantum
        << "|phase=" << spec.interleave.phase_quanta
        << "|scale=" << scaleName(spec.scale)
        << "|seed=" << spec.seed
        << "|cluster=" << cluster_id
        << "|tenant=" << tenant_index
        << '|' << kind;
    return key.str();
}

ColocationOutcome
runColocation(const ColocationSpec &spec, const ClusterConfig &cluster,
              const CacheConfig &cache, CachePolicy cache_policy)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();

    if (spec.workloads.size() < 2)
        throw std::invalid_argument(
            "co-location needs at least two workloads (got " +
            std::to_string(spec.workloads.size()) + ")");

    // Selection errors (unknown workload / policy) throw here, before
    // any simulation: the CLI maps them to usage errors, and the
    // policy object doubles as the canonical-name source.
    std::unique_ptr<PartitionPolicy> policy =
        makePartitionPolicy(spec.policy);
    const WorkloadRegistry &registry = WorkloadRegistry::instance();
    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.reserve(spec.workloads.size());
    for (const std::string &name : spec.workloads) {
        WorkloadSpec wspec;
        wspec.name = name;
        wspec.scale = spec.scale;
        workloads.push_back(registry.make(wspec));
    }

    ColocationOutcome out;
    out.policy = policy->name();
    out.scale = spec.scale;
    out.seed = spec.seed;
    const std::size_t tenants = workloads.size();
    out.tenants.resize(tenants);
    for (std::size_t i = 0; i < tenants; ++i) {
        out.tenants[i].name = workloads[i]->name();
        out.tenants[i].short_name = shortName(workloads[i]->name());
    }

    const bool use_cache =
        cache_policy == CachePolicy::Use && cache.refEnabled();

    try {
        // All-or-nothing warm path: every tenant's isolated AND
        // co-located measurement must be restorable, else everything
        // is recomputed (a partial restore could pair an isolated
        // runtime with a co-located one from different code).
        if (use_cache) {
            bool all = true;
            std::vector<WorkloadResult> iso(tenants), colo(tenants);
            for (std::size_t i = 0; i < tenants && all; ++i) {
                all = loadReference(
                          cache.ref_dir,
                          colocationCacheKey(spec, cluster.cacheId(),
                                             i, "iso"),
                          iso[i]) &&
                      loadReference(
                          cache.ref_dir,
                          colocationCacheKey(spec, cluster.cacheId(),
                                             i, "colo"),
                          colo[i]);
            }
            if (all) {
                for (std::size_t i = 0; i < tenants; ++i) {
                    TenantOutcome &t = out.tenants[i];
                    t.isolated_runtime_s = iso[i].runtime_s;
                    t.isolated_metrics = iso[i].metrics;
                    t.colocated_runtime_s = colo[i].runtime_s;
                    t.colocated_metrics = colo[i].metrics;
                }
                out.from_cache = true;
                finalizeAggregates(out);
                out.status = RunStatus::Ok;
                out.elapsed_s = std::chrono::duration<double>(
                                    Clock::now() - start)
                                    .count();
                return out;
            }
        }

        const MachineConfig &machine = cluster.node;
        std::vector<TenantWork> work(tenants);

        // Stage 1: capture every tenant's event stream and replay its
        // isolated baseline (one private full-LLC hierarchy) on the
        // fly. Tenants are independent (each owns its slot), so this
        // shards like any measurement -- bit-identical for every
        // shard count.
        {
            std::vector<std::function<void()>> jobs;
            jobs.reserve(tenants);
            for (std::size_t i = 0; i < tenants; ++i) {
                jobs.push_back([&, i]() {
                    TenantWork &w = work[i];
                    w.full_name = workloads[i]->name();
                    w.short_name = shortName(w.full_name);
                    w.stream.name = w.short_name;
                    ProxyBenchmark proxy =
                        decomposeWorkload(*workloads[i]);
                    proxy.baseParams().seed =
                        mixSeed(spec.seed, w.short_name);
                    // Disjoint address space per tenant (the sink
                    // rebases each block before replaying and
                    // compressing it); the co-located run replays
                    // the same rebased stream, so the comparison
                    // stays like-for-like.
                    captureTenant(w, proxy, machine, spec.scale,
                                  i * kTenantAddrStride,
                                  cluster.sim.replay);
                });
            }
            runShardedJobs(cluster.sim.shards, std::move(jobs),
                           nullptr, "co-location capture");
        }

        // Capture-footprint stats snapshot, before the streams move
        // into the interleaver. Reporting only -- the outcome
        // checksum deliberately excludes these.
        for (std::size_t i = 0; i < tenants; ++i) {
            const CompressedTrace &trace = work[i].stream.trace;
            TenantOutcome &t = out.tenants[i];
            t.captured_events = trace.events();
            t.compressed_bytes = trace.compressedBytes();
            t.compression_ratio = trace.compressionRatio();
        }

        // Stage 2: the co-located replay through one SharedL3 --
        // single-threaded by design, so the contention pattern is a
        // pure function of the spec.
        std::vector<TenantStream> streams;
        streams.reserve(tenants);
        for (TenantWork &w : work)
            streams.push_back(std::move(w.stream));
        InterleaveResult inter = interleaveReplay(
            machine, streams, *policy, spec.interleave,
            cluster.sim.replay);

        // Stage 3: per-tenant runtimes/metrics and the aggregates.
        std::vector<WorkloadResult> iso_results(tenants);
        std::vector<WorkloadResult> colo_results(tenants);
        for (std::size_t i = 0; i < tenants; ++i) {
            TenantOutcome &t = out.tenants[i];
            iso_results[i] = deriveResult(
                t.name, assembleProfile(work[i].captured,
                                        work[i].isolated),
                machine);
            colo_results[i] = deriveResult(
                t.name, assembleProfile(work[i].captured,
                                        inter.tenants[i]),
                machine);
            t.isolated_runtime_s = iso_results[i].runtime_s;
            t.isolated_metrics = iso_results[i].metrics;
            t.colocated_runtime_s = colo_results[i].runtime_s;
            t.colocated_metrics = colo_results[i].metrics;
        }
        finalizeAggregates(out);
        out.status = RunStatus::Ok;

        if (use_cache) {
            for (std::size_t i = 0; i < tenants; ++i) {
                saveReference(cache.ref_dir,
                              colocationCacheKey(spec,
                                                 cluster.cacheId(), i,
                                                 "iso"),
                              iso_results[i]);
                saveReference(cache.ref_dir,
                              colocationCacheKey(spec,
                                                 cluster.cacheId(), i,
                                                 "colo"),
                              colo_results[i]);
            }
        }
    } catch (const std::exception &e) {
        out.status = RunStatus::Failed;
        out.error = e.what();
    }

    out.elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    return out;
}

} // namespace dmpb
