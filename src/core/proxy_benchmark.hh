/**
 * @file
 * ProxyBenchmark: the DAG-like combination of data motifs with
 * weights that stands in for a real big-data or AI workload
 * (Section II of the paper).
 *
 * Nodes represent original or intermediate data sets; each edge is a
 * data motif processing the data of its source node. The proxy runs
 * on a single node (as in the paper's evaluation), with num_tasks
 * POSIX-style threads each processing a share of the data in
 * chunk_size blocks, reading input from and spilling intermediate
 * data to the simulated disk -- so it exhibits computation, memory
 * *and* I/O patterns, which is what distinguishes data motifs from
 * classic kernels.
 */

#ifndef DMPB_CORE_PROXY_BENCHMARK_HH
#define DMPB_CORE_PROXY_BENCHMARK_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/thread_annotations.hh"
#include "core/memory_cache.hh"
#include "motifs/motif.hh"
#include "sim/access_batch.hh"
#include "sim/metrics.hh"
#include "sim/replica_pool.hh"

namespace dmpb {

/** One motif edge of the proxy DAG. */
struct ProxyEdge
{
    const Motif *motif = nullptr;
    double weight = 1.0;     ///< contribution (Table I)
    std::uint32_t src_node = 0;  ///< data set consumed
    std::uint32_t dst_node = 1;  ///< data set produced
};

/** Result of executing a proxy benchmark on one node. */
struct ProxyResult
{
    double runtime_s = 0.0;
    KernelProfile profile;
    MetricVector metrics;
    std::uint64_t checksum = 0;
};

/**
 * One proxy edge's traced run: the motif, its parameters projected
 * onto what it reads (Motif::paramReads), and the unified
 * memory-management work that follows it. ProxyBenchmark::execute
 * and co-location capture both trace edges through this one type.
 */
struct EdgeRun
{
    const Motif *motif = nullptr;
    /** Per-edge seed and bounded working set, then projected. */
    MotifParams params;
    /** Bytes one run processes: the extrapolation basis. */
    std::uint64_t traced_bytes = 0;
    /** Managed-heap size; 0 when gc_intensity is 0 (no management
     *  work runs). */
    std::uint64_t heap_bytes = 0;
    double gc_intensity = 0.0;

    /** Run the motif and the management work into @p ctx; returns
     *  the motif's checksum. */
    std::uint64_t trace(TraceContext &ctx) const;
};

/** One memoized edge run: its unscaled profile and checksum. */
struct EdgeTrace
{
    KernelProfile profile;
    std::uint64_t checksum = 0;
};

/**
 * Edge-trace memo: raw per-edge simulation outcomes keyed by every
 * input of the traced run -- the EdgeRun (motif, projected
 * parameters, traced bytes, heap size, stack intensity), the machine
 * geometry and the LLC sharers; NOT the edge weight or num_tasks'
 * extrapolation, which only scale the result afterwards. The
 * auto-tuner re-executes a proxy dozens of times moving one
 * parameter at a time, and a move of a field an edge's motif never
 * reads is a hit; the deterministic engine guarantees every hit is
 * bit-identical to re-simulation. Thread-safe and LRU-capped.
 */
using EdgeTraceMemo = MemoryCache<EdgeTrace>;

/**
 * Entry cap of an edge-trace memo (a PipelineService's, or a
 * stand-alone proxy's own). One entry is ~0.5 KB (a 216-byte
 * EdgeTrace, a ~150-byte key, list and index nodes), so a full memo
 * holds ~8 MB. Measured at seed 99: a quick pass over all eight
 * workloads stores ~450 entries and a paper pass ~750, so a daemon
 * keeps about twenty paper-scale cells warm.
 */
constexpr std::size_t kEdgeTraceMemoEntries = 16384;

/** A tunable parameter with its search range (Table I). */
struct TunableParam
{
    std::string name;
    double value = 0.0;
    double lo = 0.0;
    double hi = 1.0;
    bool integer = false;
};

/** The proxy benchmark: DAG of motifs + the parameter vector P. */
class ProxyBenchmark
{
  public:
    ProxyBenchmark(std::string name, MotifParams base);

    /** Append an edge; nodes are implied (chain by default). */
    void addEdge(const std::string &motif_name, double weight,
                 std::uint32_t src_node = 0, std::uint32_t dst_node = 0);

    /**
     * Execute on one node of @p machine with the current parameters.
     *
     * Execution is sampled: at most @p trace_cap bytes per edge are
     * actually traced, and counters/time are extrapolated to the full
     * dataSize -- the same SMARTS-style approach the real-workload
     * engines use, keeping tuner iterations cheap.
     *
     * Each edge is an independent simulated core with private model
     * replicas; simConfig().shards of them run concurrently and their
     * outcomes merge in edge order, so the result is bit-identical
     * for every shard count.
     */
    ProxyResult execute(const MachineConfig &machine,
                        std::uint64_t trace_cap = 2 * 1024 * 1024) const;

    /** @{ Trace-simulation engine knobs (no effect on any metric). */
    const SimConfig &simConfig() const { return sim_; }
    void setSimConfig(const SimConfig &sim) { sim_ = sim; }
    /** @} */

    /**
     * Shallow clone: a copy with its own parameter vector / edge
     * weights that *shares* this proxy's edge-trace memo, so edges
     * whose simulation inputs overlap across clones are traced once
     * and every memo hit is bit-identical to re-simulation.
     *
     * Thread-safe-execution contract: execute() is const and never
     * mutates the proxy; the only mutable state reachable from it is
     * the shared memo and replica pools, both mutex-guarded. Any
     * number of distinct ProxyBenchmark objects (e.g. clones) may
     * therefore call execute() concurrently -- the parallel
     * auto-tuner evaluates candidate parameter vectors this way. The
     * mutators (setParameter(), setSimConfig(), ...) are NOT
     * thread-safe: confine each clone to a single worker thread.
     */
    ProxyBenchmark cloneShallow() const { return *this; }

    /**
     * Share @p memo instead of this proxy's own (every proxy starts
     * with a private kEdgeTraceMemoEntries memo). PipelineService
     * hands one memo to every proxy it decomposes, so a repeated or
     * cache-hit request rebuilds its result from memoized edges.
     */
    void setTraceMemo(std::shared_ptr<EdgeTraceMemo> memo)
    {
        trace_memo_ = std::move(memo);
    }

    /** The traced run of edge @p ei under the current parameters,
     *  with a per-task working set of at most @p trace_cap bytes. */
    EdgeRun edgeRun(std::size_t ei, std::uint64_t trace_cap) const;

    /** @{ The tunable parameter vector P (Table I). */
    std::vector<TunableParam> parameters() const;
    void setParameter(const std::string &name, double value);
    double parameter(const std::string &name) const;
    /** @} */

    const std::string &name() const { return name_; }
    const MotifParams &baseParams() const { return base_; }
    MotifParams &baseParams() { return base_; }
    const std::vector<ProxyEdge> &edges() const { return edges_; }

    /** True if any edge is an AI motif (enables AI parameters). */
    bool hasAiMotifs() const;

    /** Normalise edge weights to sum to one. */
    void normalizeWeights();

    /**
     * Intensity of the unified memory-management / chunk-management
     * module (ops per processed byte). The paper's big-data motif
     * implementations include a GC-like memory manager; this knob
     * sets how much of that management work runs per byte.
     */
    double gcIntensity() const { return gc_intensity_; }
    void setGcIntensity(double v) { gc_intensity_ = v; }

  private:
    /**
     * Replica pools, one per distinct simulated-context configuration
     * (cache/predictor geometry, LLC sharers, batch capacity, replay
     * mode -- everything a pooled TraceContext is built from). Edge
     * jobs lease contexts instead of constructing them, so the tuner's
     * thousands of evaluations reuse a handful of model-array sets and
     * replay workers. Shared by clones, like the trace memo; a pooled
     * context is bit-equivalent to a fresh one (TraceContext::reset
     * contract), so pooling is invisible in every simulated number.
     */
    struct PoolRegistry
    {
        AnnotatedMutex mutex;
        /** Keyed std::map: deterministic iteration for free. */
        std::map<std::string, std::unique_ptr<ReplicaPool>> pools
            DMPB_GUARDED_BY(mutex);
    };

    /** The pool for @p machine's geometry under the current engine
     *  config, created on first use. The reference stays valid for
     *  the registry's lifetime (pools are never evicted). */
    ReplicaPool &poolFor(const MachineConfig &machine,
                         std::uint32_t l3_sharers) const;

    std::string name_;
    MotifParams base_;
    std::vector<ProxyEdge> edges_;
    double gc_intensity_ = 2.0;
    SimConfig sim_;
    std::shared_ptr<EdgeTraceMemo> trace_memo_ =
        std::make_shared<EdgeTraceMemo>(kEdgeTraceMemoEntries);
    std::shared_ptr<PoolRegistry> pool_registry_ =
        std::make_shared<PoolRegistry>();
};

} // namespace dmpb

#endif // DMPB_CORE_PROXY_BENCHMARK_HH
