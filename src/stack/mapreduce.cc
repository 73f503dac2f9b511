#include "stack/mapreduce.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"
#include "motifs/kernel_util.hh"
#include "sim/engine.hh"
#include "stack/managed_heap.hh"
#include "stack/stack_overhead.hh"

namespace dmpb {

namespace {

struct SampledTask
{
    KernelProfile profile;   ///< per logical task (already scaled)
    double cpu_seconds = 0;  ///< per logical task
};

/**
 * Run one kernel on a sample split inside the heavy-stack context and
 * extrapolate to the logical task size.
 */
SampledTask
sampleTask(const ClusterConfig &cluster, const MapReduceJob &job,
           const TaskKernel &kernel, std::uint64_t logical_bytes,
           std::uint64_t sample_bytes, std::uint64_t split_id)
{
    SampledTask out;
    if (!kernel || logical_bytes == 0)
        return out;
    sample_bytes = std::min(sample_bytes, logical_bytes);

    // One task runs on one core; every core of the node is busy in a
    // full wave, so the LLC is shared by all of them.
    TraceContext ctx(cluster.node, cluster.node.totalCores(), 1,
                     cluster.sim.batch_capacity);
    ctx.setCodeFootprint(job.code_footprint);
    // Scale the young generation with the sample so GC frequency per
    // processed byte matches the logical task.
    std::uint64_t young = std::max<std::uint64_t>(
        64 * 1024,
        static_cast<std::uint64_t>(
            static_cast<double>(job.gc_young_bytes) * sample_bytes /
            static_cast<double>(std::max<std::uint64_t>(
                1, job.split_bytes))));
    ManagedHeap heap(ctx, young);
    Rng rng(mix64(split_id ^ 0xfeedfaceULL));

    kernel(ctx, heap, sample_bytes, split_id);
    stackManagementWork(ctx, heap, rng, sample_bytes,
                        job.framework_ops_per_byte);
    heap.collect();

    out.profile = ctx.profile();
    double scale = static_cast<double>(logical_bytes) /
                   static_cast<double>(sample_bytes);
    out.profile.scale(scale);
    out.cpu_seconds = cluster.node.core.seconds(out.profile) +
                      cluster.node.accel.seconds(out.profile);
    return out;
}

} // namespace

MapReduceEngine::MapReduceEngine(const ClusterConfig &cluster)
    : cluster_(cluster)
{
    dmpb_assert(cluster_.num_nodes >= 2,
                "cluster needs a master and at least one slave");
}

JobResult
MapReduceEngine::run(const MapReduceJob &job) const
{
    dmpb_assert(job.input_bytes > 0, "job has no input");
    dmpb_assert(job.map_kernel, "job has no map kernel");

    JobResult res;
    res.name = job.name;

    const double slaves = cluster_.slaveNodes();
    const std::uint32_t slots_per_node = cluster_.node.totalCores();
    const std::uint64_t slots = cluster_.totalSlots();

    res.num_maps = std::max<std::uint64_t>(
        1, (job.input_bytes + job.split_bytes - 1) / job.split_bytes);
    res.map_waves = (res.num_maps + slots - 1) / slots;

    // ---- Sampled kernel executions. The map and reduce sample
    // tasks are independent simulated cores (private TraceContext,
    // cache and predictor replicas), so the engine runs them sharded
    // across the ThreadPool; results are consumed in fixed order and
    // are bit-identical for any cluster.sim.shards value. The suite
    // deadline is polled between the sample jobs (ShardInterrupted),
    // so a small --timeout interrupts the measurement mid-stage.
    std::uint64_t map_task_bytes =
        std::min<std::uint64_t>(job.split_bytes, job.input_bytes);
    std::uint64_t shuffle_bytes = static_cast<std::uint64_t>(
        static_cast<double>(job.input_bytes) * job.map_output_ratio);
    const bool has_reduce = job.reduce_kernel &&
                            job.num_reducers > 0 && shuffle_bytes > 0;
    std::uint64_t per_red_bytes =
        has_reduce ? std::max<std::uint64_t>(
                         1, shuffle_bytes / job.num_reducers)
                   : 0;

    SampledTask map_task;
    SampledTask red_task;
    std::vector<std::function<void()>> sample_jobs;
    sample_jobs.push_back([&]() {
        map_task = sampleTask(cluster_, job, job.map_kernel,
                              map_task_bytes, job.sample_bytes,
                              /*split_id=*/1);
    });
    if (has_reduce) {
        sample_jobs.push_back([&]() {
            red_task = sampleTask(cluster_, job, job.reduce_kernel,
                                  per_red_bytes, job.sample_bytes,
                                  /*split_id=*/2);
        });
    }
    runShardedJobs(cluster_.sim.shards, std::move(sample_jobs),
                   cluster_.sim.should_stop, "map/reduce sampling");

    // ---- Map phase (sampled execution + extrapolation).
    // Disk is shared by every concurrently running task on a node.
    double map_concurrency = std::min<double>(
        slots_per_node,
        std::ceil(static_cast<double>(res.num_maps) / slaves));
    std::uint64_t spill_bytes = static_cast<std::uint64_t>(
        static_cast<double>(map_task_bytes) * job.map_output_ratio);
    double map_disk_s =
        cluster_.node.disk.readSeconds(map_task_bytes,
                                       map_task_bytes / kMiB + 1) *
            map_concurrency +
        cluster_.node.disk.writeSeconds(spill_bytes,
                                        spill_bytes / kMiB + 1) *
            map_concurrency;
    // CPU and disk partially overlap (record-at-a-time pipeline).
    double per_map_s = job.task_launch_s +
                       std::max(map_task.cpu_seconds, map_disk_s) +
                       0.25 * std::min(map_task.cpu_seconds, map_disk_s);
    res.map_time_s = static_cast<double>(res.map_waves) * per_map_s;

    // ---- Shuffle: all-to-all over the NICs, slaves transfer in
    // parallel; (slaves-1)/slaves of the data crosses the network.
    std::uint64_t cross_bytes = static_cast<std::uint64_t>(
        static_cast<double>(shuffle_bytes) * (slaves - 1.0) /
        std::max(1.0, slaves));
    res.shuffle_time_s =
        cluster_.node.net.transferSeconds(static_cast<std::uint64_t>(
            static_cast<double>(cross_bytes) / slaves));

    // ---- Reduce phase.
    double red_disk_s = 0.0;
    std::uint64_t red_waves = 0;
    std::uint64_t output_bytes = static_cast<std::uint64_t>(
        static_cast<double>(shuffle_bytes) * job.reduce_output_ratio);
    if (has_reduce) {
        red_waves = (job.num_reducers + slots - 1) / slots;
        double red_concurrency = std::min<double>(
            slots_per_node,
            std::ceil(static_cast<double>(job.num_reducers) / slaves));
        std::uint64_t per_red_out =
            static_cast<std::uint64_t>(
                static_cast<double>(per_red_bytes) *
                job.reduce_output_ratio) * job.output_replication;
        // Merge write + merge read + replicated output write.
        red_disk_s = (cluster_.node.disk.writeSeconds(
                          per_red_bytes, per_red_bytes / kMiB + 1) +
                      cluster_.node.disk.readSeconds(
                          per_red_bytes, per_red_bytes / kMiB + 1) +
                      cluster_.node.disk.writeSeconds(
                          per_red_out, per_red_out / kMiB + 1)) *
                     red_concurrency;
        double per_red_s =
            job.task_launch_s +
            std::max(red_task.cpu_seconds, red_disk_s) +
            0.25 * std::min(red_task.cpu_seconds, red_disk_s);
        res.reduce_time_s = static_cast<double>(red_waves) * per_red_s;
    }

    double iter_s = job.job_setup_s + res.map_time_s +
                    res.shuffle_time_s + res.reduce_time_s;
    res.runtime_s = iter_s * job.iterations;

    // ---- Cluster-aggregate profile: every map + every reduce task,
    // every iteration.
    KernelProfile total = map_task.profile;
    total.scale(static_cast<double>(res.num_maps));
    if (job.reduce_kernel && job.num_reducers > 0) {
        KernelProfile red_total = red_task.profile;
        red_total.scale(static_cast<double>(job.num_reducers));
        total.merge(red_total);
    }
    total.disk_read_bytes += job.input_bytes + shuffle_bytes;
    total.disk_write_bytes += static_cast<std::uint64_t>(
                                  static_cast<double>(job.input_bytes) *
                                  job.map_output_ratio) +
                              shuffle_bytes +
                              output_bytes * job.output_replication;
    total.net_bytes += cross_bytes;
    total.scale(static_cast<double>(job.iterations));

    res.cluster_profile = total;
    res.metrics = computeMetrics(total, cluster_.node.core,
                                 res.runtime_s, slaves);
    return res;
}

} // namespace dmpb
