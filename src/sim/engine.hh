/**
 * @file
 * The batched, sharded trace-simulation engine.
 *
 * Two primitives make the trace->metrics path fast without changing a
 * single simulated number:
 *
 *  - replayBatch(): drains an AccessBatch through a CacheHierarchy and
 *    a BranchPredictor in one tight loop, in strict program order --
 *    the batched counterpart of calling dataAccess()/instrAccess()/
 *    record() per event, producing bit-identical statistics.
 *
 *  - runShardedJobs(): executes independent simulation jobs (each
 *    owning private model replicas for one simulated core) across a
 *    ThreadPool. Callers keep one result slot per job and merge in a
 *    fixed order afterwards, so the outcome is bit-identical for any
 *    shard count, including the sequential shards<=1 reference order.
 */

#ifndef DMPB_SIM_ENGINE_HH
#define DMPB_SIM_ENGINE_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_annotations.hh"
#include "sim/access_batch.hh"

namespace dmpb {

class BranchPredictor;
class CacheHierarchy;

/**
 * Thrown by runShardedJobs() when its should_stop poll reported an
 * expired deadline before every job was dispatched. The suite runner
 * maps it to a TimedOut outcome, exactly like a stage-boundary
 * deadline check -- but it fires *inside* a sharded measurement, so a
 * --timeout smaller than the reference-measurement stage interrupts
 * the run between shard jobs instead of only after the stage.
 */
struct ShardInterrupted : std::runtime_error
{
    explicit ShardInterrupted(const std::string &stage)
        : std::runtime_error("deadline expired during sharded stage: " +
                             stage)
    {}
};

/**
 * Replay every event of @p batch, in order, into the models.
 *
 * Load/Store walk the data hierarchy, Ifetch walks the instruction
 * path, branches update the predictor. The caller clears the batch.
 *
 * One switch loop over the packed event words: the same calls, in the
 * same order, as issuing dataAccess()/instrAccess()/record() per
 * event, so statistics and model state are bit-identical to the
 * unbatched path (state-hash-enforced by tests).
 */
void replayBatch(const AccessBatch &batch, CacheHierarchy &caches,
                 BranchPredictor &predictor);

/**
 * Resumable position inside one AccessBatch: the next event word and
 * the next branch-site queue slot. Value-initialised it points at the
 * start of a batch; replayRange() advances both in lock step, so one
 * cursor can walk a batch in arbitrary-sized slices.
 */
struct BatchCursor
{
    std::size_t event = 0;
    std::size_t site = 0;

    bool
    done(const AccessBatch &batch) const
    {
        return event >= batch.size();
    }
};

/**
 * Replay at most @p max_events events of @p batch starting at
 * @p cursor, advancing the cursor past what was consumed.
 *
 * The sliced replay is bit-identical to replayBatch() over the same
 * batch regardless of how the events are grouped into slices -- this
 * is what lets the co-location interleaver hand out quantum-sized
 * turns without the quantum size leaking into any statistic beyond
 * the interleaving order itself.
 *
 * @return Number of events consumed (0 iff the cursor was at the end
 *         or max_events was 0).
 */
std::size_t replayRange(const AccessBatch &batch, BatchCursor &cursor,
                        std::size_t max_events, CacheHierarchy &caches,
                        BranchPredictor &predictor);

/**
 * Run @p jobs to completion, at most @p shards at a time.
 *
 * Jobs must be mutually independent (each writes only its own result
 * slot); under that contract the observable outcome is identical for
 * every shards value. If jobs throw, the exception of the
 * lowest-indexed failing job is rethrown after all jobs finished.
 *
 * When @p should_stop is set it is polled immediately before each job
 * starts; once it returns true the remaining jobs are skipped and,
 * after every started job has finished, ShardInterrupted(@p stage) is
 * thrown (job exceptions take precedence). The poll never interrupts
 * a running job, so an expired deadline can still overshoot by one
 * job's duration -- but no longer by the whole stage.
 */
void runShardedJobs(std::size_t shards,
                    std::vector<std::function<void()>> jobs,
                    const std::function<bool()> &should_stop = nullptr,
                    const char *stage = "sharded jobs");

/**
 * Double-buffered asynchronous batch replay for one simulated core.
 *
 * The owning TraceContext keeps emitting events into its filling
 * batch while this worker replays the previous block into the models,
 * overlapping kernel execution with micro-architecture simulation.
 * A single worker with a depth-1 queue replays blocks strictly in
 * submission order, so the model state evolution -- and therefore
 * every statistic -- is bit-identical to synchronous replay.
 */
class AsyncReplayer
{
  public:
    /**
     * @param caches / @p predictor  Models; must outlive this object.
     * @param batch_capacity  Capacity of the recycled block storage
     *                        handed back by submit().
     */
    AsyncReplayer(CacheHierarchy &caches, BranchPredictor &predictor,
                  std::size_t batch_capacity);

    /** Joins the worker after finishing any in-flight block. */
    ~AsyncReplayer();

    AsyncReplayer(const AsyncReplayer &) = delete;
    AsyncReplayer &operator=(const AsyncReplayer &) = delete;

    /**
     * Hand @p batch to the worker and return an empty batch of the
     * same capacity in its place (the previous block's storage,
     * recycled). Blocks while the worker is still replaying.
     *
     * Recycle contract: @p batch must have been reserve()d to exactly
     * the batch_capacity this replayer was constructed with
     * (asserted). The swap then always hands back storage of the
     * capacity the producer expects -- a mismatched capacity would
     * make the producer's next reserve() silently reallocate both
     * blocks every submit cycle, defeating the recycling.
     */
    void submit(AccessBatch &batch) DMPB_EXCLUDES(mutex_);

    /** Wait until the worker is idle (all submitted blocks applied).
     *  Model state is safe to read after this returns. */
    void drain() DMPB_EXCLUDES(mutex_);

  private:
    void workerLoop() DMPB_EXCLUDES(mutex_);

    CacheHierarchy &caches_;
    BranchPredictor &predictor_;
    /** Capacity every submitted block must match (recycle contract). */
    std::size_t batch_capacity_;
    /**
     * Hand-off block. Not DMPB_GUARDED_BY(mutex_): ownership follows
     * the busy_ protocol, not the lock -- the producer touches it
     * only while !busy_ (holding the mutex for the swap), the worker
     * only while busy_ (outside the lock, so replay overlaps
     * emission). busy_ transitions under the mutex carry the
     * happens-before edges.
     */
    AccessBatch inflight_;
    AnnotatedMutex mutex_;
    std::condition_variable cv_;
    bool busy_ DMPB_GUARDED_BY(mutex_) = false;
    bool stop_ DMPB_GUARDED_BY(mutex_) = false;
    /** On single-CPU hosts a worker thread only adds switches;
     *  submit() replays inline instead (identical results). */
    bool synchronous_ = false;
    std::thread worker_;
};

} // namespace dmpb

#endif // DMPB_SIM_ENGINE_HH
