/**
 * @file
 * Equivalence tests for the batched replay loop (replayBatch,
 * replayRange), the AsyncReplayer recycle contract and the
 * ReplicaPool reset contract. The reference is written here, not in
 * src/: every event is applied through dataAccess()/instrAccess()/
 * record() one at a time. Every batched-vs-reference comparison
 * asserts *state* identity (stateHashForTest), not just counters:
 * two models with equal digests have byte-identical future behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "base/rng.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/engine.hh"
#include "sim/replica_pool.hh"
#include "sim/trace.hh"
#include "stack/cluster.hh"

namespace dmpb {
namespace {

CacheHierarchy::Params
smallHierarchy()
{
    return {{"L1I", 8 * 1024, 4, 64},
            {"L1D", 8 * 1024, 4, 64},
            {"L2", 64 * 1024, 8, 64},
            {"L3", 512 * 1024, 8, 64}};
}

/** One unpacked simulation event: the reference loop's input. */
struct Event
{
    SimOp op;
    std::uint64_t addr;  ///< memory events
    std::uint64_t site;  ///< branch events
};

/** Pack @p events into one AccessBatch, in order. */
AccessBatch
toBatch(const std::vector<Event> &events)
{
    AccessBatch b;
    b.reserve(events.size());
    for (const Event &e : events) {
        switch (e.op) {
          case SimOp::Load:
          case SimOp::Store:
            b.pushData(e.addr, e.op == SimOp::Store);
            break;
          case SimOp::Ifetch:
            b.pushIfetch(e.addr);
            break;
          case SimOp::BranchTaken:
          case SimOp::BranchNotTaken:
            b.pushBranch(e.site, e.op == SimOp::BranchTaken);
            break;
        }
    }
    return b;
}

/** The reference: drive the models with one event. */
void
applyEvent(const Event &e, CacheHierarchy &caches,
           BranchPredictor &predictor)
{
    switch (e.op) {
      case SimOp::Load:
        caches.dataAccess(e.addr, false);
        break;
      case SimOp::Store:
        caches.dataAccess(e.addr, true);
        break;
      case SimOp::Ifetch:
        caches.instrAccess(e.addr);
        break;
      case SimOp::BranchTaken:
        predictor.record(e.site, true);
        break;
      case SimOp::BranchNotTaken:
        predictor.record(e.site, false);
        break;
    }
}

void
replayPerEvent(const std::vector<Event> &events,
               CacheHierarchy &caches, BranchPredictor &predictor)
{
    for (const Event &e : events)
        applyEvent(e, caches, predictor);
}

void
expectSameStats(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.writebacks, b.writebacks);
}

/** Pair of model sets: per-event reference vs batched replay. */
struct ModelPair
{
    CacheHierarchy reference;
    CacheHierarchy batched;
    GsharePredictor reference_pred{10, 8};
    GsharePredictor batched_pred{10, 8};

    ModelPair() : reference(smallHierarchy()), batched(smallHierarchy())
    {}

    void
    expectSameState() const
    {
        EXPECT_EQ(reference.stateHashForTest(),
                  batched.stateHashForTest());
        expectSameStats(reference.l1i().stats(), batched.l1i().stats());
        expectSameStats(reference.l1d().stats(), batched.l1d().stats());
        expectSameStats(reference.l2().stats(), batched.l2().stats());
        expectSameStats(reference.l3Stats(), batched.l3Stats());
        EXPECT_EQ(reference_pred.stats().branches,
                  batched_pred.stats().branches);
        EXPECT_EQ(reference_pred.stats().mispredicts,
                  batched_pred.stats().mispredicts);
    }
};

/**
 * Random event stream biased toward same-line runs (repeat the last
 * data address with high probability), with stores mixed in mid-run
 * and branches and instruction fetches interleaved.
 */
std::vector<Event>
runHeavyStream(std::uint64_t seed, std::size_t events)
{
    std::vector<Event> out;
    out.reserve(events);
    Rng rng(seed);
    std::uint64_t addr = 0x200000000000ULL;
    for (std::size_t i = 0; i < events; ++i) {
        const std::uint64_t r = rng.next();
        switch (r % 16) {
          case 0:
            addr = 0x200000000000ULL + ((r >> 16) % 32768) * 64;
            out.push_back({SimOp::Load, addr, 0});
            break;
          case 1:
            out.push_back({SimOp::Ifetch, 0x1000 + (r % 2048), 0});
            break;
          case 2:
            out.push_back({(r & 2) != 0 ? SimOp::BranchTaken
                                        : SimOp::BranchNotTaken,
                           0, r | 1});
            break;
          case 3:
            addr += 64;  // next line: breaks the run
            out.push_back(
                {(r & 4) != 0 ? SimOp::Store : SimOp::Load, addr, 0});
            break;
          default:
            // Same line again, sometimes a store (dirty bit mid-run)
            // and sometimes a different offset within the line.
            out.push_back({(r & 8) != 0 ? SimOp::Store : SimOp::Load,
                           addr + (r % 64), 0});
            break;
        }
    }
    return out;
}

TEST(ReplayKernel, BatchedMatchesPerEventOnRandomStreams)
{
    for (std::uint64_t seed : {5ULL, 17ULL, 1234ULL}) {
        ModelPair m;
        for (int block = 0; block < 4; ++block) {
            const std::vector<Event> events =
                runHeavyStream(seed + 1000 * block, 8192);
            replayPerEvent(events, m.reference, m.reference_pred);
            replayBatch(toBatch(events), m.batched, m.batched_pred);
            m.expectSameState();
        }
    }
}

TEST(ReplayKernel, DirtyBitMidRunSurvivesToWriteback)
{
    // A store buried in the middle of a same-line run must set the
    // dirty bit, so the line's eventual eviction is a writeback --
    // batched and per-event alike, with identical state.
    ModelPair m;
    std::vector<Event> events;
    // Walk size: 4 MiB of distinct lines -- far beyond the 512 KiB
    // L3 -- guarantees line_a is evicted from every level.
    const std::uint64_t walk_lines = 4ULL * 1024 * 1024 / 64;
    // Run of 9 accesses on one line, single store mid-run.
    const std::uint64_t line_a = 0x200000000000ULL;
    for (std::uint64_t i = 0; i < 4; ++i)
        events.push_back({SimOp::Load, line_a + i, 0});
    events.push_back({SimOp::Store, line_a + 32, 0});  // mid-run
    for (std::uint64_t i = 0; i < 4; ++i)
        events.push_back({SimOp::Load, line_a + 40 + i, 0});
    for (std::uint64_t n = 1; n <= walk_lines; ++n)
        events.push_back({SimOp::Load, line_a + 64 * n, 0});
    replayPerEvent(events, m.reference, m.reference_pred);
    replayBatch(toBatch(events), m.batched, m.batched_pred);
    m.expectSameState();
    // The dirty line produced at least one writeback somewhere.
    EXPECT_GE(m.batched.l1d().stats().writebacks +
                  m.batched.l2().stats().writebacks +
                  m.batched.l3Stats().writebacks,
              1u);
}

TEST(ReplayKernel, SlicedReplayRangeMatchesWholeBatchReplay)
{
    // Slicing at any granularity -- including mid-run -- must
    // reproduce the whole-batch replay bit for bit.
    const AccessBatch b = toBatch(runHeavyStream(77, 10007));
    for (std::size_t slice : {std::size_t{1}, std::size_t{3},
                              std::size_t{250}, std::size_t{4096}}) {
        ModelPair m;
        replayBatch(b, m.reference, m.reference_pred);
        BatchCursor cur;
        while (replayRange(b, cur, slice, m.batched, m.batched_pred) >
               0) {
        }
        EXPECT_TRUE(cur.done(b));
        m.expectSameState();
    }
}

TEST(ReplayKernel, WayMaskedSharedL3SeesIdenticalContention)
{
    // Two tenants with asymmetric way masks contending for one
    // SharedL3: interleaved replayRange() turns must reproduce the
    // per-event reference's shared-cache state exactly.
    const CacheHierarchy::Params geo = smallHierarchy();
    const std::vector<Event> e0 = runHeavyStream(101, 4096);
    const std::vector<Event> e1 = runHeavyStream(202, 4096);
    constexpr std::size_t kTurn = 257;
    struct Digest
    {
        std::uint64_t h0;
        std::uint64_t h1;
        CacheStats t0;
        CacheStats t1;
    };
    auto run = [&](bool batched) {
        auto shared = std::make_unique<SharedL3>(geo.l3, 2);
        shared->setWayMask(0, 0x03);  // 2 of 8 ways
        shared->setWayMask(1, 0xfc);  // the other 6
        CacheHierarchy h0(geo, *shared, 0);
        CacheHierarchy h1(geo, *shared, 1);
        GsharePredictor p0(10, 8);
        GsharePredictor p1(10, 8);
        if (batched) {
            // Interleave turns, like the co-location interleaver.
            const AccessBatch b0 = toBatch(e0);
            const AccessBatch b1 = toBatch(e1);
            BatchCursor c0;
            BatchCursor c1;
            while (!c0.done(b0) || !c1.done(b1)) {
                replayRange(b0, c0, kTurn, h0, p0);
                replayRange(b1, c1, kTurn, h1, p1);
            }
        } else {
            // The same turn order, one event at a time.
            for (std::size_t at = 0; at < e0.size() || at < e1.size();
                 at += kTurn) {
                for (std::size_t i = at;
                     i < std::min(at + kTurn, e0.size()); ++i)
                    applyEvent(e0[i], h0, p0);
                for (std::size_t i = at;
                     i < std::min(at + kTurn, e1.size()); ++i)
                    applyEvent(e1[i], h1, p1);
            }
        }
        return Digest{h0.stateHashForTest(), h1.stateHashForTest(),
                      shared->tenantStats(0), shared->tenantStats(1)};
    };
    const Digest reference = run(false);
    const Digest batched = run(true);
    EXPECT_EQ(reference.h0, batched.h0);
    EXPECT_EQ(reference.h1, batched.h1);
    expectSameStats(reference.t0, batched.t0);
    expectSameStats(reference.t1, batched.t1);
}

// ---------------------------------------------------------------------------
// AsyncReplayer recycle contract

TEST(AsyncReplayer, RecyclesTheSameTwoBlocks)
{
    constexpr std::size_t kCap = 512;
    CacheHierarchy caches(smallHierarchy());
    GsharePredictor pred(10, 8);
    AsyncReplayer replayer(caches, pred, kCap);
    AccessBatch batch;
    batch.reserve(kCap);
    // Steady state is strict double buffering: across many submit
    // cycles only two distinct event-storage blocks may ever appear,
    // and every swapped-back block arrives with the full capacity --
    // a reallocation anywhere would break both properties.
    std::set<const std::uint64_t *> storages;
    for (int cycle = 0; cycle < 32; ++cycle) {
        while (!batch.full())
            batch.pushData(0x200000000000ULL + 64 * cycle, false);
        replayer.submit(batch);
        EXPECT_TRUE(batch.empty());
        EXPECT_EQ(batch.capacity(), kCap);
        storages.insert(batch.events());
    }
    replayer.drain();
    EXPECT_LE(storages.size(), 2u);
    EXPECT_EQ(caches.l1d().stats().accesses, 32u * kCap);
}

TEST(AsyncReplayerDeathTest, RejectsCapacityMismatch)
{
    CacheHierarchy caches(smallHierarchy());
    GsharePredictor pred(10, 8);
    AsyncReplayer replayer(caches, pred, 512);
    AccessBatch wrong;
    wrong.reserve(256);  // violates the recycle contract
    wrong.pushData(0x1000, false);
    EXPECT_DEATH(replayer.submit(wrong), "capacity");
}

// ---------------------------------------------------------------------------
// ReplicaPool reset contract

/** Drive a context through work that dirties every mutable subsystem:
 *  models, op counts, I/O counters, footprint, the address arena. */
void
dirtyContext(TraceContext &ctx)
{
    ctx.setCodeFootprint(128 * 1024);
    std::uint64_t va = ctx.virtualAlloc(64 * 1024);
    for (std::uint64_t off = 0; off < 64 * 1024; off += 64) {
        ctx.emitLoadAddr(va + off, 8);
        ctx.emitStoreAddr(va + off, 8);
    }
    ctx.addDiskRead(1 << 20);
    ctx.addNetTraffic(1 << 16);
}

TEST(ReplicaPool, PooledContextIsBitEquivalentToFresh)
{
    const MachineConfig &machine = paperCluster5().node;
    ReplicaPool pool(machine, 2, 1, 1024);

    KernelProfile pooled_profile;
    {
        ReplicaPool::Lease lease = pool.acquire();
        dirtyContext(lease.ctx());
        // Lease destruction resets and returns the context.
    }
    EXPECT_EQ(pool.createdForTest(), 1u);
    EXPECT_EQ(pool.idleForTest(), 1u);

    TraceContext fresh(machine, 2, 1, 1024);
    {
        ReplicaPool::Lease lease = pool.acquire();
        // Same context object, reused.
        EXPECT_EQ(pool.createdForTest(), 1u);
        // Reset state is hash-identical to fresh construction...
        EXPECT_EQ(lease.ctx().cachesForTest().stateHashForTest(),
                  fresh.cachesForTest().stateHashForTest());
        EXPECT_EQ(lease.ctx().codeFootprint(), fresh.codeFootprint());
        // ...and running the same work in both produces identical
        // profiles (address arena, LCG, predictor all restarted).
        dirtyContext(lease.ctx());
        pooled_profile = lease.ctx().profile();
    }
    dirtyContext(fresh);
    KernelProfile fresh_profile = fresh.profile();
    EXPECT_EQ(pooled_profile.l1d.accesses, fresh_profile.l1d.accesses);
    EXPECT_EQ(pooled_profile.l1d.misses, fresh_profile.l1d.misses);
    EXPECT_EQ(pooled_profile.l2.misses, fresh_profile.l2.misses);
    EXPECT_EQ(pooled_profile.l3.misses, fresh_profile.l3.misses);
    EXPECT_EQ(pooled_profile.branch.branches,
              fresh_profile.branch.branches);
    EXPECT_EQ(pooled_profile.disk_read_bytes,
              fresh_profile.disk_read_bytes);
    EXPECT_EQ(pooled_profile.net_bytes, fresh_profile.net_bytes);
}

TEST(ReplicaPool, SequentialLeasesReuseOneContext)
{
    ReplicaPool pool(paperCluster5().node, 1, 1, 256);
    for (int i = 0; i < 8; ++i) {
        ReplicaPool::Lease lease = pool.acquire();
        lease.ctx().emitOps(OpClass::IntAlu, 10);
    }
    EXPECT_EQ(pool.createdForTest(), 1u);
    EXPECT_EQ(pool.idleForTest(), 1u);
}

} // namespace
} // namespace dmpb
