#include "sim/engine.hh"

#include <algorithm>
#include <atomic>
#include <exception>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"

namespace dmpb {

std::size_t
defaultSimBatchCapacity()
{
    static const std::size_t capacity =
        std::thread::hardware_concurrency() <= 1
            ? 1
            : kDefaultSimBatchCapacity;
    return capacity;
}

namespace {

/**
 * Replay one contiguous event span in program order.
 * @p site is advanced past the branch sites consumed.
 */
void
replaySpan(const std::uint64_t *ev, std::size_t n,
           const std::uint64_t *&site, CacheHierarchy &caches,
           BranchPredictor &predictor)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t e = ev[i];
        const std::uint64_t addr = e & AccessBatch::kAddrMask;
        switch (static_cast<SimOp>(e >> AccessBatch::kOpShift)) {
          case SimOp::Load:
            caches.dataAccess(addr, false);
            break;
          case SimOp::Store:
            caches.dataAccess(addr, true);
            break;
          case SimOp::Ifetch:
            caches.instrAccess(addr);
            break;
          case SimOp::BranchTaken:
            predictor.record(*site++, true);
            break;
          case SimOp::BranchNotTaken:
            predictor.record(*site++, false);
            break;
        }
    }
}

} // namespace

void
replayBatch(const AccessBatch &batch, CacheHierarchy &caches,
            BranchPredictor &predictor)
{
    const std::uint64_t *site = batch.sites();
    replaySpan(batch.events(), batch.size(), site, caches, predictor);
}

std::size_t
replayRange(const AccessBatch &batch, BatchCursor &cursor,
            std::size_t max_events, CacheHierarchy &caches,
            BranchPredictor &predictor)
{
    const std::size_t n = batch.size();
    if (cursor.event >= n || max_events == 0)
        return 0;
    const std::size_t end = std::min(n, cursor.event + max_events);
    const std::uint64_t *site = batch.sites() + cursor.site;

    replaySpan(batch.events() + cursor.event, end - cursor.event,
               site, caches, predictor);

    const std::size_t consumed = end - cursor.event;
    cursor.site = static_cast<std::size_t>(site - batch.sites());
    cursor.event = end;
    return consumed;
}

AsyncReplayer::AsyncReplayer(CacheHierarchy &caches,
                             BranchPredictor &predictor,
                             std::size_t batch_capacity)
    : caches_(caches), predictor_(predictor),
      batch_capacity_(batch_capacity),
      synchronous_(std::thread::hardware_concurrency() <= 1)
{
    if (synchronous_)
        return;
    // Reserve before the worker exists: submit() swaps this storage
    // back to the producer as its next filling block.
    inflight_.reserve(batch_capacity);
    worker_ = std::thread([this]() { workerLoop(); });
}

AsyncReplayer::~AsyncReplayer()
{
    if (synchronous_)
        return;
    {
        MutexLock lock(mutex_);
        while (busy_)
            cv_.wait(lock.native());
        stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
}

void
AsyncReplayer::submit(AccessBatch &batch)
{
    // Recycle contract (see the header): a block of any other
    // capacity would silently force the producer's next reserve() to
    // reallocate every cycle. Checked on both paths so the contract
    // does not depend on the host's CPU count.
    dmpb_assert(batch.capacity() == batch_capacity_,
                "AsyncReplayer::submit: block capacity ",
                batch.capacity(), " != replayer capacity ",
                batch_capacity_, "; recycled storage would reallocate"
                " every submit cycle");
    if (synchronous_) {
        replayBatch(batch, caches_, predictor_);
        batch.clear();
        return;
    }
    MutexLock lock(mutex_);
    while (busy_)
        cv_.wait(lock.native());
    // The worker cleared the previous block, so the swap hands the
    // caller recycled storage of the same capacity.
    std::swap(inflight_, batch);
    busy_ = true;
    lock.unlock();
    cv_.notify_all();
}

void
AsyncReplayer::drain()
{
    if (synchronous_)
        return;
    MutexLock lock(mutex_);
    while (busy_)
        cv_.wait(lock.native());
}

void
AsyncReplayer::workerLoop()
{
    MutexLock lock(mutex_);
    for (;;) {
        while (!(busy_ || stop_))
            cv_.wait(lock.native());
        if (stop_)
            return;
        // Replay outside the lock: submit() only touches inflight_
        // again after busy_ drops back to false.
        lock.unlock();
        replayBatch(inflight_, caches_, predictor_);
        inflight_.clear();
        lock.lock();
        busy_ = false;
        cv_.notify_all();
    }
}

void
runShardedJobs(std::size_t shards,
               std::vector<std::function<void()>> jobs,
               const std::function<bool()> &should_stop,
               const char *stage)
{
    if (jobs.empty())
        return;

    // One exception slot per job: workers must never unwind through
    // the pool, and the rethrow order (lowest failing index) must not
    // depend on scheduling. The deadline poll happens on the worker,
    // right before its job body, so both the serial and the pooled
    // path stop dispatching as soon as the budget is gone.
    std::vector<std::exception_ptr> errors(jobs.size());
    std::atomic<bool> interrupted{false};
    auto guarded = [&](std::size_t i) {
        if (should_stop && should_stop()) {
            interrupted.store(true, std::memory_order_relaxed);
            return;
        }
        try {
            jobs[i]();
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };

    if (shards <= 1 || jobs.size() == 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            guarded(i);
    } else {
        ThreadPool pool(std::min(shards, jobs.size()));
        for (std::size_t i = 0; i < jobs.size(); ++i)
            pool.submit([&guarded, i]() { guarded(i); });
        pool.waitIdle();
    }

    for (std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    if (interrupted.load(std::memory_order_relaxed))
        throw ShardInterrupted(stage);
}

} // namespace dmpb
