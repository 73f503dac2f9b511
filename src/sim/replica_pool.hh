/**
 * @file
 * Pooled TraceContext replicas for sharded simulation jobs.
 *
 * The sharded execution engines (TensorEngine's per-image jobs, the
 * tuner's per-edge jobs) used to construct a fresh TraceContext --
 * cache arrays, predictor table, batch storage, an async replay
 * worker -- for every job, then throw it away. A ReplicaPool keeps
 * finished contexts on a free list and hands them back out after an
 * in-place TraceContext::reset(), which is state-hash-identical to
 * fresh construction (tests enforce it). Reuse keeps the multi-MiB
 * model arrays and the replay worker thread warm across jobs, so the
 * steady-state cost of a job no longer includes building and tearing
 * down a simulated machine.
 *
 * Determinism: a pooled context is bit-equivalent to a fresh one by
 * the reset contract, so WHICH context a job gets -- and therefore
 * scheduling order -- cannot influence any simulated number.
 *
 * Thread safety: acquire() and release are mutex-guarded; the
 * expensive reset happens on the releasing thread outside the lock.
 * The leased TraceContext itself is single-threaded, as always.
 */

#ifndef DMPB_SIM_REPLICA_POOL_HH
#define DMPB_SIM_REPLICA_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/thread_annotations.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace dmpb {

/** Free list of TraceContext replicas of one configuration. */
class ReplicaPool
{
  public:
    /**
     * Construction parameters every pooled context is built with --
     * the same signature as TraceContext's constructor. Jobs that
     * need a code footprint set it per lease (reset() restores the
     * default).
     */
    ReplicaPool(const MachineConfig &machine,
                std::uint32_t l3_sharers = 1,
                std::uint64_t sample_period = 1,
                std::size_t batch_capacity = 0);

    /**
     * RAII lease of one pooled context: returns it to the pool on
     * destruction (reset on the releasing thread, outside the pool
     * lock).
     */
    class Lease
    {
      public:
        Lease(Lease &&other) noexcept
            : pool_(other.pool_), ctx_(std::move(other.ctx_))
        {
            other.pool_ = nullptr;
        }

        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        Lease &operator=(Lease &&) = delete;

        ~Lease()
        {
            if (pool_ != nullptr && ctx_ != nullptr)
                pool_->release(std::move(ctx_));
        }

        TraceContext &ctx() { return *ctx_; }

      private:
        friend class ReplicaPool;

        Lease(ReplicaPool *pool, std::unique_ptr<TraceContext> ctx)
            : pool_(pool), ctx_(std::move(ctx))
        {}

        ReplicaPool *pool_;
        std::unique_ptr<TraceContext> ctx_;
    };

    /** Lease a context: a recycled one if available, else fresh. */
    Lease acquire() DMPB_EXCLUDES(mutex_);

    /** @{ Testing hooks. */
    std::size_t createdForTest() const DMPB_EXCLUDES(mutex_);
    std::size_t idleForTest() const DMPB_EXCLUDES(mutex_);
    /** @} */

  private:
    void release(std::unique_ptr<TraceContext> ctx)
        DMPB_EXCLUDES(mutex_);

    const MachineConfig machine_;
    const std::uint32_t l3_sharers_;
    const std::uint64_t sample_period_;
    const std::size_t batch_capacity_;

    mutable AnnotatedMutex mutex_;
    std::vector<std::unique_ptr<TraceContext>> idle_
        DMPB_GUARDED_BY(mutex_);
    std::size_t created_ DMPB_GUARDED_BY(mutex_) = 0;
};

} // namespace dmpb

#endif // DMPB_SIM_REPLICA_POOL_HH
