#include "core/proxy_benchmark.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/units.hh"
#include "sim/engine.hh"
#include "stack/managed_heap.hh"
#include "stack/stack_overhead.hh"

namespace dmpb {

namespace {

/** Bytes one batch of an AI motif processes with parameters @p p. */
std::uint64_t
aiBytesPerBatch(const MotifParams &p)
{
    std::uint64_t batch = std::max<std::uint32_t>(1, p.batch_size);
    std::uint64_t per_sample = 4ULL *
                               std::max<std::uint32_t>(1, p.channels) *
                               std::max<std::uint32_t>(1, p.height) *
                               std::max<std::uint32_t>(1, p.width);
    return batch * per_sample;
}

/**
 * Cache/pool key component of a node's accelerator: the array shape
 * and SRAM banks change the emitted trace (tiling), so CPU and
 * accelerator traces -- and differently shaped arrays -- must never
 * share memo entries or pooled contexts.
 */
std::string
accelKeyPart(const AcceleratorParams &a)
{
    if (!a.present)
        return "sa:none";
    return "sa:" + std::to_string(a.rows) + ":" +
           std::to_string(a.cols) + ":" +
           std::to_string(a.input_sram_bytes) + ":" +
           std::to_string(a.weight_sram_bytes) + ":" +
           std::to_string(a.output_sram_bytes);
}

} // namespace

std::uint64_t
EdgeRun::trace(TraceContext &ctx) const
{
    const std::uint64_t checksum = motif->run(ctx, params);
    if (heap_bytes > 0) {
        // Light-weight stack: the unified memory-management module
        // at gc_intensity ops per traced byte.
        ManagedHeap heap(ctx, heap_bytes);
        Rng mgmt_rng(params.seed ^ 0x6c6cULL);
        stackManagementWork(ctx, heap, mgmt_rng, traced_bytes,
                            gc_intensity);
        heap.collect();
    }
    return checksum;
}

ProxyBenchmark::ProxyBenchmark(std::string name, MotifParams base)
    : name_(std::move(name)), base_(base)
{
}

void
ProxyBenchmark::addEdge(const std::string &motif_name, double weight,
                        std::uint32_t src_node, std::uint32_t dst_node)
{
    const Motif *m = findMotif(motif_name);
    dmpb_assert(m != nullptr, "unknown motif '", motif_name, "'");
    dmpb_assert(weight > 0.0, "edge weight must be positive");
    ProxyEdge e;
    e.motif = m;
    e.weight = weight;
    e.src_node = src_node;
    // Default chain: edge i consumes node i and produces node i+1.
    e.dst_node = dst_node ? dst_node
                          : static_cast<std::uint32_t>(edges_.size() + 1);
    edges_.push_back(e);
}

bool
ProxyBenchmark::hasAiMotifs() const
{
    return std::any_of(edges_.begin(), edges_.end(),
                       [](const ProxyEdge &e) {
                           return e.motif->isAi();
                       });
}

void
ProxyBenchmark::normalizeWeights()
{
    double sum = 0.0;
    for (const ProxyEdge &e : edges_)
        sum += e.weight;
    if (sum <= 0.0)
        return;
    for (ProxyEdge &e : edges_)
        e.weight /= sum;
}

namespace {

/** Everything one proxy edge contributes, simulated independently. */
struct EdgeOutcome
{
    KernelProfile prof;        ///< all-tasks totals incl. I/O bytes
    std::uint64_t checksum = 0;
    double edge_cpu = 0.0;     ///< all waves of this edge's tasks
    double disk_s = 0.0;
};

/**
 * Memo key: every input of one edge's traced run. The parameters are
 * already projected onto what the motif reads, so a field the motif
 * never reads cannot split the key. The edge weight and the task
 * count's extrapolation are absent (they scale the profile after
 * simulation), and so are the core timing parameters (applied to the
 * profile, not the trace). The machine is keyed by its full simulated
 * geometry -- cache levels and predictor -- not by name, so sweeps
 * that mutate a named config (e.g. the LLC-size study) never collide.
 */
std::string
edgeTraceKey(const EdgeRun &run, const MachineConfig &machine,
             std::uint32_t sharers)
{
    const MotifParams &p = run.params;
    std::ostringstream key;
    // Continuous tunables (sparsity, gc_intensity) must round-trip
    // losslessly or near-identical tuner candidates would collide.
    key.precision(std::numeric_limits<double>::max_digits10);
    key << run.motif->name() << '|' << sharers;
    for (const CacheParams *c :
         {&machine.caches.l1i, &machine.caches.l1d, &machine.caches.l2,
          &machine.caches.l3}) {
        key << '|' << c->size_bytes << ':' << c->associativity << ':'
            << c->line_bytes;
    }
    key << '|' << machine.predictor.table_bits << ':'
        << machine.predictor.history_bits;
    key << '|' << accelKeyPart(machine.accel);
    key << '|' << p.seed << '|' << p.data_size << '|' << p.chunk_size
        << '|' << p.batch_size << '|' << p.total_size << '|' << p.height
        << '|' << p.width << '|' << p.channels << '|' << p.filters << '|'
        << p.kernel << '|' << p.stride << '|'
        << static_cast<int>(p.layout) << '|' << p.sparsity << '|'
        << run.traced_bytes << '|' << run.heap_bytes << '|'
        << run.gc_intensity;
    return key.str();
}

} // namespace

ReplicaPool &
ProxyBenchmark::poolFor(const MachineConfig &machine,
                        std::uint32_t l3_sharers) const
{
    // Key = everything a pooled TraceContext is constructed from.
    // Core timing and disk parameters are absent on purpose: they
    // shape profiles into seconds, never the trace or the models.
    std::ostringstream key;
    for (const CacheParams *c :
         {&machine.caches.l1i, &machine.caches.l1d, &machine.caches.l2,
          &machine.caches.l3}) {
        key << c->size_bytes << ':' << c->associativity << ':'
            << c->line_bytes << '|';
    }
    key << machine.predictor.table_bits << ':'
        << machine.predictor.history_bits << '|'
        << accelKeyPart(machine.accel) << '|' << l3_sharers << '|'
        << sim_.batch_capacity;
    MutexLock lock(pool_registry_->mutex);
    std::unique_ptr<ReplicaPool> &slot =
        pool_registry_->pools[key.str()];
    if (slot == nullptr) {
        slot = std::make_unique<ReplicaPool>(machine, l3_sharers, 1,
                                             sim_.batch_capacity);
    }
    return *slot;
}

ProxyResult
ProxyBenchmark::execute(const MachineConfig &machine,
                        std::uint64_t trace_cap) const
{
    dmpb_assert(!edges_.empty(), name_, ": proxy has no motifs");
    ProxyResult result;

    const std::uint32_t tasks =
        std::max<std::uint32_t>(1, base_.num_tasks);
    const std::uint32_t cores = machine.totalCores();
    const std::uint32_t sharers = std::min(tasks, cores);
    const std::uint64_t waves = (tasks + cores - 1) / cores;

    // Every edge is one simulated core with private cache/predictor
    // replicas, so the edge simulations are mutually independent:
    // they run sharded across the ThreadPool and merge in edge order
    // below, bit-identical for any simConfig().shards value.
    std::vector<EdgeOutcome> outcomes(edges_.size());
    ReplicaPool &pool = poolFor(machine, sharers);
    std::vector<std::function<void()>> jobs;
    jobs.reserve(edges_.size());
    for (std::size_t ei = 0; ei < edges_.size(); ++ei) {
        jobs.push_back([this, &machine, &outcomes, &pool, ei, tasks,
                        sharers, waves, trace_cap]() {
            const ProxyEdge &edge = edges_[ei];
            EdgeOutcome &out = outcomes[ei];
            // Logical bytes this motif contributes, per task.
            double edge_bytes = static_cast<double>(base_.data_size) *
                                edge.weight;
            double share = edge_bytes / static_cast<double>(tasks);

            const EdgeRun run = edgeRun(ei, trace_cap);
            const std::string key = edgeTraceKey(run, machine, sharers);
            EdgeTrace trace;
            if (!trace_memo_->get(key, trace)) {
                // Small resident kernel code (the paper's POSIX-thread
                // implementations). The context is a pooled replica
                // -- bit-equivalent to a fresh construction.
                ReplicaPool::Lease lease = pool.acquire();
                TraceContext &ctx = lease.ctx();
                ctx.setCodeFootprint(48 * 1024);
                trace.checksum = run.trace(ctx);
                trace.profile = ctx.profile();
                trace_memo_->put(key, trace);
            }
            out.prof = trace.profile;
            out.checksum = trace.checksum;

            double scale = share / static_cast<double>(
                                       std::max<std::uint64_t>(
                                           1, run.traced_bytes));
            out.prof.scale(scale);

            // Compute time: tasks run in parallel, in waves if there
            // are more tasks than hardware contexts.
            double per_task_cpu = machine.core.seconds(out.prof);
            out.edge_cpu = per_task_cpu * static_cast<double>(waves);

            // I/O pattern. Big-data edges stream their input from
            // disk and spill half of it as intermediate data
            // (Section II-A: "intermediate data written to disk").
            // AI edges only read one uint8 image batch per run
            // through a prefetching input pipeline, so their disk
            // pressure is near zero, matching the 0.2-0.5 MB/s the
            // paper measures for the AI workloads.
            std::uint64_t edge_read;
            std::uint64_t edge_write;
            if (edge.motif->isAi()) {
                edge_read =
                    static_cast<std::uint64_t>(base_.batch_size) *
                    base_.channels * base_.height * base_.width;
                edge_write = 0;
            } else {
                edge_read = static_cast<std::uint64_t>(edge_bytes);
                edge_write = edge_read / 2;
                out.disk_s =
                    machine.disk.readSeconds(edge_read,
                                             edge_read / kMiB + 1) +
                    machine.disk.writeSeconds(edge_write,
                                              edge_write / kMiB + 1);
            }
            out.prof.scale(static_cast<double>(tasks));
            out.prof.disk_read_bytes += edge_read;
            out.prof.disk_write_bytes += edge_write;
            // The node's systolic array is a shared serial resource:
            // all tasks' tile passes queue on it, so the all-tasks
            // array time adds onto the edge, not one wave's worth.
            out.edge_cpu += machine.accel.seconds(out.prof);
        });
    }
    runShardedJobs(sim_.shards, std::move(jobs));

    // Deterministic merge in edge order.
    KernelProfile total;
    double runtime = 0.0;
    for (EdgeOutcome &out : outcomes) {
        result.checksum ^= out.checksum;
        runtime += std::max(out.edge_cpu, out.disk_s) +
                   0.25 * std::min(out.edge_cpu, out.disk_s);
        total.merge(out.prof);
    }

    result.runtime_s = runtime;
    result.profile = total;
    result.metrics = computeMetrics(total, machine.core, runtime, 1.0);
    return result;
}

EdgeRun
ProxyBenchmark::edgeRun(std::size_t ei, std::uint64_t trace_cap) const
{
    const Motif &motif = *edges_[ei].motif;
    const std::uint32_t tasks =
        std::max<std::uint32_t>(1, base_.num_tasks);
    // Traced working set per task: governed by dataSize/numTasks and
    // bounded for tuner-iteration cost. Edge *weights* scale each
    // motif's contribution (extrapolation factor), not its working
    // set -- so cache behaviour responds to dataSize/chunkSize while
    // the instruction mix responds to the weights, which is what lets
    // the decision tree steer metrics independently.
    const std::uint64_t working_set = std::max<std::uint64_t>(
        64 * 1024,
        std::min<std::uint64_t>(base_.data_size / tasks, trace_cap));

    EdgeRun run;
    run.motif = &motif;
    MotifParams p = base_;
    p.seed = base_.seed ^ mix64(ei + 1);
    if (motif.isAi()) {
        // One batch per traced run; execute() extrapolates to the
        // edge's share.
        p.total_size = 0;
        run.traced_bytes = aiBytesPerBatch(p);
    } else {
        p.data_size = working_set;
        p.chunk_size = std::min<std::uint64_t>(p.chunk_size,
                                               p.data_size);
        run.traced_bytes = p.data_size;
    }
    run.params = projectParams(p, motif.paramReads());
    run.gc_intensity = gc_intensity_;
    if (gc_intensity_ > 0.0) {
        run.heap_bytes =
            std::max<std::uint64_t>(64 * 1024, working_set / 8);
    }
    return run;
}

std::vector<TunableParam>
ProxyBenchmark::parameters() const
{
    std::vector<TunableParam> out;
    out.push_back({"data_size", static_cast<double>(base_.data_size),
                   static_cast<double>(4 * kMiB),
                   static_cast<double>(256 * kMiB), false});
    out.push_back({"chunk_size", static_cast<double>(base_.chunk_size),
                   static_cast<double>(32 * kKiB),
                   static_cast<double>(16 * kMiB), false});
    out.push_back({"num_tasks", static_cast<double>(base_.num_tasks),
                   1.0, 24.0, true});
    out.push_back({"gc_intensity", gc_intensity_, 0.0, 16.0, false});
    if (hasAiMotifs()) {
        // Ranges bound the cost of a single tuner evaluation (a
        // convolution edge is O(batch * c * filters * h * w * k^2)).
        out.push_back({"batch_size",
                       static_cast<double>(base_.batch_size), 1.0, 16.0,
                       true});
        out.push_back({"height", static_cast<double>(base_.height), 4.0,
                       48.0, true});
        out.push_back({"width", static_cast<double>(base_.width), 4.0,
                       48.0, true});
        out.push_back({"channels", static_cast<double>(base_.channels),
                       1.0, 48.0, true});
    }
    for (std::size_t ei = 0; ei < edges_.size(); ++ei) {
        const ProxyEdge &e = edges_[ei];
        // Weight search range around the hotspot-derived initial value
        // (the paper allows adjustment "within a reasonable range").
        out.push_back({"weight:" + std::to_string(ei) + ":" +
                           e.motif->name(),
                       e.weight, std::max(0.004, e.weight * 0.15),
                       std::min(2.0, e.weight * 4.0), false});
    }
    return out;
}

void
ProxyBenchmark::setParameter(const std::string &name, double value)
{
    if (name == "data_size") {
        base_.data_size = static_cast<std::uint64_t>(
            std::max(1.0, value));
        return;
    }
    if (name == "chunk_size") {
        base_.chunk_size = static_cast<std::uint64_t>(
            std::max(1.0, value));
        return;
    }
    if (name == "num_tasks") {
        base_.num_tasks = static_cast<std::uint32_t>(
            std::max(1.0, std::round(value)));
        return;
    }
    if (name == "gc_intensity") {
        dmpb_assert(value >= 0.0, "gc intensity must be non-negative");
        gc_intensity_ = value;
        return;
    }
    if (name == "batch_size") {
        base_.batch_size = static_cast<std::uint32_t>(
            std::max(1.0, std::round(value)));
        return;
    }
    if (name == "height") {
        base_.height = static_cast<std::uint32_t>(
            std::max(1.0, std::round(value)));
        return;
    }
    if (name == "width") {
        base_.width = static_cast<std::uint32_t>(
            std::max(1.0, std::round(value)));
        return;
    }
    if (name == "channels") {
        base_.channels = static_cast<std::uint32_t>(
            std::max(1.0, std::round(value)));
        return;
    }
    if (name.rfind("weight:", 0) == 0) {
        std::size_t second_colon = name.find(':', 7);
        dmpb_assert(second_colon != std::string::npos,
                    "malformed weight parameter '", name, "'");
        std::size_t ei = std::stoul(name.substr(7, second_colon - 7));
        dmpb_assert(ei < edges_.size(), "edge index out of range in '",
                    name, "'");
        dmpb_assert(value > 0.0, "weight must stay positive");
        edges_[ei].weight = value;
        return;
    }
    dmpb_panic("unknown proxy parameter '", name, "'");
}

double
ProxyBenchmark::parameter(const std::string &name) const
{
    for (const TunableParam &p : parameters()) {
        if (p.name == name)
            return p.value;
    }
    dmpb_panic("unknown proxy parameter '", name, "'");
}

} // namespace dmpb
