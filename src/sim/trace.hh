/**
 * @file
 * TraceContext: the per-thread instrumentation sink.
 *
 * Instrumented kernels do real computation on real data; alongside
 * every load, store, branch and ALU operation they notify a
 * TraceContext, which accumulates the op counters and buffers cache
 * and branch events in an AccessBatch, flushed through the cache
 * hierarchy and branch predictor in blocks (sim/engine.hh) -- the
 * batched replay is bit-identical to per-event simulation, just much
 * faster. One context models one hardware context (core);
 * multi-threaded kernels use one context per worker and merge the
 * resulting profiles (sharded across a ThreadPool by the execution
 * engines, deterministically).
 *
 * Instruction fetch is modelled implicitly: every op advances a
 * program counter inside a configurable code footprint, and each
 * 64-byte line crossing issues an L1I access. Small, loopy kernels
 * therefore hit close to 100% in the L1I, while the heavy-software-
 * stack executions (hadooplite/tensorlite) configure footprints of
 * hundreds of KiB and naturally show the front-end pressure the paper
 * attributes to Hadoop's stack.
 */

#ifndef DMPB_SIM_TRACE_HH
#define DMPB_SIM_TRACE_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "sim/access_batch.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/profile.hh"

namespace dmpb {

/** Per-thread event sink driving the micro-architecture models. */
class TraceContext
{
  public:
    /**
     * @param machine     Node description (caches, predictor).
     * @param l3_sharers  Contexts sharing the LLC (capacity slicing).
     * @param sample_period Simulate one in N data accesses in the
     *                    cache model (counters are scaled back up in
     *                    profile()); 1 = full trace.
     * @param batch_capacity Events buffered before a batched replay
     *                    flush (replayBatch(), sim/engine.hh);
     *                    0 = auto (host-adapted), 1 selects the
     *                    unbatched path. Either way the models see
     *                    the same event sequence, so all statistics
     *                    are bit-identical across capacities.
     */
    explicit TraceContext(const MachineConfig &machine,
                          std::uint32_t l3_sharers = 1,
                          std::uint64_t sample_period = 1,
                          std::size_t batch_capacity = 0);

    /** Set the static code footprint (bytes) for i-fetch modelling. */
    void setCodeFootprint(std::uint64_t bytes);
    std::uint64_t codeFootprint() const { return code_footprint_; }

    /**
     * A fresh context modelling another core of the same machine:
     * same construction parameters (machine, LLC sharers, sampling,
     * batching) and code footprint, cold models and private address
     * space. The sharded execution engines give every independent
     * piece of a measurement (an image of a sampled training batch,
     * an inception branch) one replica, then absorb() the replica
     * profiles back in a fixed order -- the shard-count-invariant
     * decomposition the whole measurement layer is built on.
     */
    TraceContext
    replica() const
    {
        TraceContext ctx(machine_, l3_sharers_, sample_period_,
                         batch_capacity_);
        ctx.setCodeFootprint(code_footprint_);
        return ctx;
    }

    /**
     * Merge an externally produced profile (typically a replica's
     * profile()) into this context's totals. Absorbed counters are
     * final: they are added onto profile()'s own-model snapshot after
     * sampling scale-up, never re-scaled.
     */
    void absorb(const KernelProfile &p) { absorbed_.merge(p); }

    /** Emit @p n non-memory ops of class @p c. */
    void
    emitOps(OpClass c, std::uint64_t n = 1)
    {
        counts_[static_cast<std::size_t>(c)] += n;
        advancePc(n);
    }

    /**
     * Emit a data load covering [p, p+bytes) at the real address.
     *
     * NOTE: real heap/stack addresses vary run to run (ASLR,
     * allocator state), so production kernels use deterministic
     * virtual addresses from virtualAlloc()/VirtualRange instead;
     * the pointer overloads remain for tests of the raw path.
     */
    void
    emitLoad(const void *p, std::size_t bytes = 8)
    {
        emitLoadAddr(reinterpret_cast<std::uint64_t>(p), bytes);
    }

    /** Emit a data store covering [p, p+bytes) at the real address. */
    void
    emitStore(const void *p, std::size_t bytes = 8)
    {
        emitStoreAddr(reinterpret_cast<std::uint64_t>(p), bytes);
    }

    /**
     * Allocate @p bytes of deterministic simulated address space.
     *
     * Per-context bump allocation with exact-size LIFO reuse (the
     * same reuse pattern a thread-cached malloc exhibits), 64-byte
     * aligned. Kernels attach one range per traced container and
     * emit container accesses at base + offset, making every cache
     * access bit-reproducible across runs, threads and ASLR.
     */
    std::uint64_t
    virtualAlloc(std::uint64_t bytes)
    {
        std::uint64_t rounded = (bytes + line_bytes_ - 1) &
                                ~(line_bytes_ - 1);
        auto it = va_free_.find(rounded);
        if (it != va_free_.end() && !it->second.empty()) {
            std::uint64_t va = it->second.back();
            it->second.pop_back();
            return va;
        }
        std::uint64_t va = va_next_;
        va_next_ += rounded;
        return va;
    }

    /** Return a virtualAlloc()ed range for reuse by the next
     *  same-size allocation (cache-warmth preserving, like malloc). */
    void
    virtualFree(std::uint64_t va, std::uint64_t bytes)
    {
        std::uint64_t rounded = (bytes + line_bytes_ - 1) &
                                ~(line_bytes_ - 1);
        va_free_[rounded].push_back(va);
    }

    /** Load at an explicit (possibly synthetic) address. */
    void
    emitLoadAddr(std::uint64_t addr, std::size_t bytes = 8)
    {
        memAccess(addr, bytes, false);
    }

    /** Store at an explicit (possibly synthetic) address. */
    void
    emitStoreAddr(std::uint64_t addr, std::size_t bytes = 8)
    {
        memAccess(addr, bytes, true);
    }

    /**
     * Two loads fused into one bookkeeping step (dense kernels pair
     * an activation/input load with a weight load per inner-loop
     * iteration). Op counts, fetch advance and cache events are
     * identical in total to two emitLoadAddr() calls.
     */
    void
    emitLoadPairAddr(std::uint64_t a, std::uint64_t b,
                     std::size_t bytes = 8)
    {
        fusedMemAccess(bytes, /*loads=*/2, /*stores=*/0,
                       {{a, false}, {b, false}});
    }

    /**
     * Two stores fused into one bookkeeping step. Totals identical
     * to two emitStoreAddr() calls.
     */
    void
    emitStorePairAddr(std::uint64_t a, std::uint64_t b,
                      std::size_t bytes = 8)
    {
        fusedMemAccess(bytes, /*loads=*/0, /*stores=*/2,
                       {{a, true}, {b, true}});
    }

    /**
     * Load + store of one location fused into one bookkeeping step
     * (the read-modify-write every accumulator update performs).
     * Totals identical to emitLoadAddr() + emitStoreAddr().
     */
    void
    emitRmwAddr(std::uint64_t addr, std::size_t bytes = 8)
    {
        fusedMemAccess(bytes, /*loads=*/1, /*stores=*/1,
                       {{addr, false}, {addr, true}});
    }

    /**
     * The multiply-accumulate access triple -- load an operand,
     * read-modify-write an accumulator -- in one bookkeeping step.
     * Totals identical to emitLoadAddr(src) + emitRmwAddr(acc).
     */
    void
    emitLoadRmwAddr(std::uint64_t src, std::uint64_t acc,
                    std::size_t bytes = 8)
    {
        fusedMemAccess(bytes, /*loads=*/2, /*stores=*/1,
                       {{src, false}, {acc, false}, {acc, true}});
    }

    /** Emit one conditional branch with outcome @p taken. */
    void
    emitBranch(std::uint64_t site, bool taken)
    {
        counts_[static_cast<std::size_t>(OpClass::Branch)] += 1;
        advancePc(1);
        pushBranch(site, taken);
    }

    /** @{ System-level byte counters (outside the core model). */
    void addDiskRead(std::uint64_t bytes) { disk_read_ += bytes; }
    void addDiskWrite(std::uint64_t bytes) { disk_write_ += bytes; }
    void addNetTraffic(std::uint64_t bytes) { net_ += bytes; }
    /** @} */

    /**
     * Account work executed on the node's systolic array
     * (stack/systolic): MACs and array cycles at the accelerator
     * clock. Off-chip tile traffic is emitted through the normal
     * load/store emitters; only the on-array compute is kept out of
     * the core op classes and accumulated here.
     */
    void
    addAccelWork(std::uint64_t macs, std::uint64_t cycles)
    {
        accel_macs_ += macs;
        accel_cycles_ += cycles;
    }

    /**
     * Snapshot the accumulated totals.
     *
     * Cache counters are scaled by the sampling period so that a
     * sampled trace reports full-trace-equivalent magnitudes.
     */
    KernelProfile profile() const;

    /**
     * Return to the exact state of a freshly constructed context:
     * counters, program-counter model, virtual-address arena, code
     * footprint, and the models (reset in place, not reallocated --
     * and the AsyncReplayer worker stays alive). A reset context
     * produces bit-identical traces and profiles to a new
     * TraceContext of the same construction parameters; ReplicaPool
     * (sim/replica_pool.hh) is built on this contract.
     */
    void reset();

    const MachineConfig &machine() const { return machine_; }

    /** @{ Testing hooks: model state inspection (call flushBatch()
     *  first for a stable snapshot). */
    const CacheHierarchy &cachesForTest() const { return *caches_; }
    const BranchPredictor &predictorForTest() const
    {
        return *predictor_;
    }
    /** @} */

    /**
     * Apply all buffered events to the models and wait for any
     * asynchronous replay to finish. Called automatically by
     * profile(); exposed for tests that inspect model state mid-run.
     * Model state is safe to read after this returns.
     */
    void
    flushBatch() const
    {
        if (capture_sink_) {
            if (!batch_.empty()) {
                capture_sink_->consume(batch_);
                batch_.clear();
            }
            return;
        }
        if (replayer_) {
            if (!batch_.empty())
                replayer_->submit(batch_);
            replayer_->drain();
        } else if (!batch_.empty()) {
            replayBatch(batch_, *caches_, *predictor_);
            batch_.clear();
        }
    }

    /**
     * Capture mode: divert every filled batch (and the final partial
     * one at flushBatch()/profile() time) into @p sink instead of
     * replaying it -- the cache and branch models stay cold. The
     * co-location orchestrator records each tenant's event stream
     * this way, then replays the captured blocks through a *shared*
     * LLC under the interleaver; profile() still reports the
     * trace-level counters (ops, disk, net) that don't depend on
     * replay. The sink may transform the block in place (the
     * co-location capture rebases and delta-compresses online); the
     * block storage is recycled afterwards, so capture no longer
     * allocates per block. Requires batched emission
     * (batch_capacity > 1). Pass nullptr to detach.
     */
    void
    setCaptureSink(BatchSink *sink)
    {
        dmpb_assert(sink == nullptr || batch_capacity_ > 1,
                    "capture requires batched emission "
                    "(batch_capacity > 1)");
        capture_sink_ = sink;
    }

  private:
    /** @{ Batched event emission (sim/access_batch.hh). A capacity
     *  of <= 1 is the unbatched path: events drive the models directly,
     *  in the identical order a batch replay would. Full blocks are
     *  handed to the AsyncReplayer, which replays them in submission
     *  order while the kernel keeps running -- same model inputs in
     *  the same order, so all statistics stay bit-identical. */
    void
    onBatchFull()
    {
        if (capture_sink_) {
            capture_sink_->consume(batch_);
            batch_.clear();
            return;
        }
        if (!replayer_) {
            replayer_ = std::make_unique<AsyncReplayer>(
                *caches_, *predictor_, batch_capacity_);
        }
        replayer_->submit(batch_);
    }

    void
    pushData(std::uint64_t addr, bool write)
    {
        if (batch_capacity_ <= 1) {
            caches_->dataAccess(addr, write);
            return;
        }
        batch_.pushData(addr, write);
        if (batch_.full())
            onBatchFull();
    }

    void
    pushIfetch(std::uint64_t addr)
    {
        if (batch_capacity_ <= 1) {
            caches_->instrAccess(addr);
            return;
        }
        batch_.pushIfetch(addr);
        if (batch_.full())
            onBatchFull();
    }

    void
    pushBranch(std::uint64_t site, bool taken)
    {
        if (batch_capacity_ <= 1) {
            predictor_->record(site, taken);
            return;
        }
        batch_.pushBranch(site, taken);
        if (batch_.full())
            onBatchFull();
    }
    /** @} */

    void
    advancePc(std::uint64_t n_ops)
    {
        // Implicit loop back-edges: the bulk of real branch streams
        // are highly predictable loop branches; kernels only report
        // their data-dependent branches explicitly, so back-edges are
        // synthesised here -- one per 16 ops, always taken, site keyed
        // by the current hot region (overall branch share lands near
        // the ~6% the paper's Fig. 5 reports for these workloads).
        ops_since_loop_br_ += n_ops;
        while (ops_since_loop_br_ >= 16) {
            ops_since_loop_br_ -= 16;
            counts_[static_cast<std::size_t>(OpClass::Branch)] += 1;
            pushBranch(kLoopSite ^ hot_base_, true);
        }

        // Instruction fetch: 4 bytes per op, one L1I access per
        // 64-byte line. Fetch is loopy, not cyclic: it spins inside a
        // 4 KiB hot region (the current inner loop) and occasionally
        // jumps to another region of the code footprint (calls into
        // the framework/library) -- a cyclic walk would defeat LRU
        // and model 0% L1I hits for any footprint over 32 KiB.
        pc_bytes_ += 4 * n_ops;
        while (pc_bytes_ >= line_bytes_) {
            pc_bytes_ -= line_bytes_;
            hot_off_ += line_bytes_;
            std::uint64_t span = std::min<std::uint64_t>(
                kHotSpan, code_footprint_);
            if (hot_off_ >= span)
                hot_off_ = 0;
            if (--jump_countdown_ == 0) {
                if_lcg_ = if_lcg_ * 6364136223846793005ULL +
                          1442695040888963407ULL;
                hot_base_ = ((if_lcg_ >> 17) % code_footprint_) &
                            ~(line_bytes_ - 1);
                jump_countdown_ = 512 + ((if_lcg_ >> 43) & 1023);
            }
            std::uint64_t addr = hot_base_ + hot_off_;
            if (addr >= code_footprint_)
                addr -= code_footprint_;
            pushIfetch(kCodeBase + addr);
        }
    }

    /**
     * Shared bookkeeping of every fused multi-access emitter: per
     * access the usual per-8-byte op accounting (memAccess()), all
     * accounted in one step, then the cache events in order.
     */
    void
    fusedMemAccess(std::size_t bytes, std::uint64_t loads,
                   std::uint64_t stores,
                   std::initializer_list<std::pair<std::uint64_t, bool>>
                       accesses)
    {
        std::uint64_t n_ops = (bytes + 7) / 8;
        if (n_ops == 0)
            n_ops = 1;
        counts_[static_cast<std::size_t>(OpClass::Load)] +=
            loads * n_ops;
        counts_[static_cast<std::size_t>(OpClass::Store)] +=
            stores * n_ops;
        counts_[static_cast<std::size_t>(OpClass::IntAlu)] +=
            (loads + stores) * n_ops;
        advancePc(2 * (loads + stores) * n_ops);
        for (const auto &[addr, write] : accesses)
            pushLines(addr, bytes, write);
    }

    void
    memAccess(std::uint64_t addr, std::size_t bytes, bool write)
    {
        // Op count is one load/store per 8 bytes, independent of heap
        // alignment, so instruction totals are deterministic across
        // runs; the cache sees every 64-byte line actually touched.
        // Each memory op carries one integer companion op (address
        // generation / index update), as scalar memory code does.
        std::uint64_t n_ops = (bytes + 7) / 8;
        if (n_ops == 0)
            n_ops = 1;
        counts_[static_cast<std::size_t>(
            write ? OpClass::Store : OpClass::Load)] += n_ops;
        counts_[static_cast<std::size_t>(OpClass::IntAlu)] += n_ops;
        advancePc(2 * n_ops);
        pushLines(addr, bytes, write);
    }

    /** Emit the (sampled) cache event for every line of an access. */
    void
    pushLines(std::uint64_t addr, std::size_t bytes, bool write)
    {
        std::uint64_t first = addr & ~(line_bytes_ - 1);
        std::uint64_t last = (addr + (bytes ? bytes : 1) - 1) &
                             ~(line_bytes_ - 1);
        for (std::uint64_t a = first; a <= last; a += line_bytes_) {
            if (sample_period_ == 1) {
                pushData(a, write);
            } else if (++sample_clock_ >= sample_period_) {
                sample_clock_ = 0;
                pushData(a, write);
            }
        }
    }

    static constexpr std::uint64_t kCodeBase = 0x7f0000000000ULL;
    static constexpr std::uint64_t kLoopSite = 0x10095173ULL;
    static constexpr std::uint64_t kHotSpan = 4 * 1024;
    /** Start of the virtualAlloc() arena; distinct from kCodeBase and
     *  the 0x6000_0000_0000 synthetic-stream region. */
    static constexpr std::uint64_t kDataBase = 0x200000000000ULL;

    MachineConfig machine_;
    std::unique_ptr<CacheHierarchy> caches_;
    std::unique_ptr<BranchPredictor> predictor_;
    OpCounts counts_{};
    std::uint64_t disk_read_ = 0;
    std::uint64_t disk_write_ = 0;
    std::uint64_t net_ = 0;
    std::uint64_t accel_macs_ = 0;
    std::uint64_t accel_cycles_ = 0;
    std::uint64_t code_footprint_;
    std::uint64_t hot_base_ = 0;
    std::uint64_t hot_off_ = 0;
    std::uint64_t pc_bytes_ = 0;
    std::uint64_t ops_since_loop_br_ = 0;
    std::uint64_t if_lcg_ = 0x2545f4914f6cdd1dULL;
    std::uint64_t jump_countdown_ = 777;
    std::uint64_t line_bytes_;
    std::uint64_t sample_period_;
    std::uint64_t sample_clock_ = 0;
    std::uint32_t l3_sharers_;
    std::uint64_t va_next_ = kDataBase;
    std::map<std::uint64_t, std::vector<std::uint64_t>> va_free_;
    /** Finalised replica profiles; added on top of profile(). */
    KernelProfile absorbed_;
    /** Pending events; mutable so the const profile() can flush. */
    mutable AccessBatch batch_;
    std::size_t batch_capacity_;
    /** Lazily started once the first block fills; declared after the
     *  models so it joins its worker before they are destroyed. */
    mutable std::unique_ptr<AsyncReplayer> replayer_;
    /** Capture mode (setCaptureSink): filled blocks go here instead
     *  of into the models. Not owned. */
    BatchSink *capture_sink_ = nullptr;
};

/**
 * RAII deterministic address range for one traced container.
 *
 * Kernels create one VirtualRange next to each std::vector (or other
 * buffer) whose accesses they emit, then report element accesses with
 * range.addr(index, stride) -- never with real pointers, so the cache
 * model sees identical streams in every run.
 */
class VirtualRange
{
  public:
    VirtualRange(TraceContext &ctx, std::uint64_t bytes)
        : ctx_(&ctx), bytes_(bytes), base_(ctx.virtualAlloc(bytes))
    {
    }

    ~VirtualRange()
    {
        if (ctx_ != nullptr)
            ctx_->virtualFree(base_, bytes_);
    }

    VirtualRange(VirtualRange &&other) noexcept
        : ctx_(other.ctx_), bytes_(other.bytes_), base_(other.base_)
    {
        other.ctx_ = nullptr;
    }

    VirtualRange(const VirtualRange &) = delete;
    VirtualRange &operator=(const VirtualRange &) = delete;
    VirtualRange &operator=(VirtualRange &&) = delete;

    std::uint64_t base() const { return base_; }

    /** Simulated address of element @p i with @p stride bytes each. */
    std::uint64_t
    addr(std::uint64_t i, std::uint64_t stride = 8) const
    {
        return base_ + i * stride;
    }

  private:
    TraceContext *ctx_;
    std::uint64_t bytes_;
    std::uint64_t base_;
};

} // namespace dmpb

#endif // DMPB_SIM_TRACE_HH
