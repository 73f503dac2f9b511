/**
 * @file
 * AccessBatch: the structure-of-arrays event block at the heart of the
 * batched trace-simulation engine.
 *
 * Instrumented kernels do not drive the cache hierarchy and branch
 * predictor one event at a time any more; the TraceContext appends
 * (addr, op, site) triples to an AccessBatch and the whole block is
 * replayed through the micro-architecture models in one tight loop
 * (sim/engine.hh). Appends are three sequential vector stores, the
 * replay loop touches the model state with hot code and hot data, and
 * the strict program order of the triples keeps the replay
 * bit-identical to per-access simulation.
 */

#ifndef DMPB_SIM_ACCESS_BATCH_HH
#define DMPB_SIM_ACCESS_BATCH_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace dmpb {

/** Event kinds carried by an AccessBatch. */
enum class SimOp : std::uint8_t
{
    Load = 0,        ///< data read of one cache line (addr)
    Store,           ///< data write of one cache line (addr)
    Ifetch,          ///< instruction fetch of one cache line (addr)
    BranchTaken,     ///< conditional branch, outcome taken (site)
    BranchNotTaken,  ///< conditional branch, outcome not taken (site)
};

/** Block size of a batched TraceContext, in events. */
constexpr std::size_t kDefaultSimBatchCapacity = 32 * 1024;

/**
 * Host-adapted default batch capacity: kDefaultSimBatchCapacity when
 * the machine has CPUs to overlap replay with emission, 1 (events
 * drive the models inline, unbatched) on single-CPU hosts where
 * buffering events is pure overhead. Either way the models consume
 * the identical event sequence, so the choice is invisible in every
 * statistic.
 */
std::size_t defaultSimBatchCapacity();

/**
 * Execution knobs of the trace-simulation engine.
 *
 * No field changes any simulated metric: every batch is drained by
 * the one replay loop (replayBatch() in sim/engine.hh) in program
 * order, batching replays the identical event sequence, and shards
 * only run *independent* simulated contexts (private cache/predictor
 * replicas) concurrently, merging their profiles in a fixed order.
 * All of them therefore preserve the repo's bit-determinism
 * guarantee, for every value.
 */
struct SimConfig
{
    /**
     * Worker threads simulation is sharded across: independent
     * simulated cores (proxy edges, map/reduce sample tasks) run
     * concurrently, each on a private CacheHierarchy/BranchPredictor
     * replica. 1 = sequential (the reference order).
     */
    std::size_t shards = 1;

    /**
     * Events buffered per TraceContext before a replay flush.
     * 0 = auto (defaultSimBatchCapacity()); 1 = unbatched, where
     * every event drives the models immediately (kept for tests and
     * as the equivalence baseline).
     */
    std::size_t batch_capacity = 0;

    /**
     * Optional deadline poll the execution engines hand to
     * runShardedJobs(): once it returns true, no further shard job of
     * a measurement starts and the stage throws ShardInterrupted.
     * Like the other knobs it can only shorten wall-clock, never
     * change a completed run's numbers -- an interrupted measurement
     * produces no result at all. Not part of any cache key. The suite
     * runner installs its per-workload --timeout check here; must be
     * safe to call concurrently from shard workers.
     */
    std::function<bool()> should_stop;
};

/**
 * Block of simulation events, in program order.
 *
 * Events are packed: one 64-bit word per event, SimOp in the top
 * three bits and the byte address in the low 61 (every simulated
 * address -- synthetic arenas, the code region, real user-space
 * pointers from the raw test overloads -- stays far below 2^61).
 * Branch events carry their full 64-bit site hash out of band in a
 * side queue consumed in order during replay, so site mixing is not
 * narrowed. The triple (addr, op, site) is thereby preserved while a
 * push is one plain store plus a cursor increment.
 *
 * Fixed-capacity with a single write cursor: callers must reserve()
 * before the first push and flush (replay + clear()) when full() --
 * the TraceContext emission helpers do exactly that.
 */
class AccessBatch
{
  public:
    AccessBatch() = default;

    /** Allocate room for @p capacity events (and clear the batch). */
    void
    reserve(std::size_t capacity)
    {
        ev_.resize(capacity);
        capacity_ = capacity;
        n_ = 0;
        sites_.clear();
    }

    /** Append one data access of the line containing @p addr. */
    void
    pushData(std::uint64_t addr, bool write)
    {
        ev_[n_++] = addr | (static_cast<std::uint64_t>(
                                write ? SimOp::Store : SimOp::Load)
                            << kOpShift);
    }

    /** Append one instruction fetch of the line containing @p addr. */
    void
    pushIfetch(std::uint64_t addr)
    {
        ev_[n_++] = addr | (static_cast<std::uint64_t>(SimOp::Ifetch)
                            << kOpShift);
    }

    /** Append one conditional branch at static @p site. */
    void
    pushBranch(std::uint64_t site, bool taken)
    {
        ev_[n_++] = static_cast<std::uint64_t>(
                        taken ? SimOp::BranchTaken
                              : SimOp::BranchNotTaken)
                    << kOpShift;
        sites_.push_back(site);
    }

    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    bool full() const { return n_ >= capacity_; }
    /** Capacity set by the last reserve() (0 if never reserved). */
    std::size_t capacity() const { return capacity_; }

    /** Drop all events (keeps the allocations for reuse). */
    void
    clear()
    {
        n_ = 0;
        sites_.clear();
    }

    /**
     * Rebase every memory event's address by @p offset, wrapping
     * within the 61-bit address space (branch events carry no address
     * and are untouched). The co-location capture uses this to give
     * each tenant a disjoint simulated address space, so co-scheduled
     * streams contend in a shared cache instead of aliasing.
     */
    void
    rebase(std::uint64_t offset)
    {
        for (std::size_t i = 0; i < n_; ++i) {
            const std::uint64_t ev = ev_[i];
            const auto op = static_cast<SimOp>(ev >> kOpShift);
            if (op == SimOp::BranchTaken ||
                op == SimOp::BranchNotTaken)
                continue;
            ev_[i] = (ev & ~kAddrMask) | ((ev + offset) & kAddrMask);
        }
    }

    /** @{ Raw access for the replay loop. */
    static constexpr unsigned kOpShift = 61;
    static constexpr std::uint64_t kAddrMask =
        (1ULL << kOpShift) - 1;
    const std::uint64_t *events() const { return ev_.data(); }
    const std::uint64_t *sites() const { return sites_.data(); }
    /** @} */

  private:
    std::vector<std::uint64_t> ev_;
    std::vector<std::uint64_t> sites_;  ///< branch sites, in order
    std::size_t capacity_ = 0;
    std::size_t n_ = 0;
};

/**
 * Consumer of filled event blocks (TraceContext capture mode).
 *
 * Instead of replaying into its own models, a capturing TraceContext
 * hands every full block (and the final partial one) to its sink. The
 * sink may mutate the block in place (rebase, compress) but must not
 * keep references to its storage: the caller clears and refills the
 * same block after consume() returns.
 */
class BatchSink
{
  public:
    virtual ~BatchSink() = default;

    /** Consume one block's events, in program order. */
    virtual void consume(AccessBatch &block) = 0;
};

} // namespace dmpb

#endif // DMPB_SIM_ACCESS_BATCH_HH
