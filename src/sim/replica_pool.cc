#include "sim/replica_pool.hh"

#include <utility>

namespace dmpb {

ReplicaPool::ReplicaPool(const MachineConfig &machine,
                         std::uint32_t l3_sharers,
                         std::uint64_t sample_period,
                         std::size_t batch_capacity)
    : machine_(machine),
      l3_sharers_(l3_sharers),
      sample_period_(sample_period),
      batch_capacity_(batch_capacity)
{
}

ReplicaPool::Lease
ReplicaPool::acquire()
{
    {
        MutexLock lock(mutex_);
        if (!idle_.empty()) {
            std::unique_ptr<TraceContext> ctx =
                std::move(idle_.back());
            idle_.pop_back();
            return Lease(this, std::move(ctx));
        }
        ++created_;
    }
    // Construct outside the lock: building the model arrays is the
    // expensive part, and concurrent first-acquires should not
    // serialize on it.
    return Lease(this,
                 std::make_unique<TraceContext>(
                     machine_, l3_sharers_, sample_period_,
                     batch_capacity_));
}

void
ReplicaPool::release(std::unique_ptr<TraceContext> ctx)
{
    // Reset on the releasing thread, outside the pool lock; the next
    // acquire() gets a context indistinguishable from a fresh one.
    ctx->reset();
    MutexLock lock(mutex_);
    idle_.push_back(std::move(ctx));
}

std::size_t
ReplicaPool::createdForTest() const
{
    MutexLock lock(mutex_);
    return created_;
}

std::size_t
ReplicaPool::idleForTest() const
{
    MutexLock lock(mutex_);
    return idle_.size();
}

} // namespace dmpb
