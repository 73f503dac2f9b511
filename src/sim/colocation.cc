#include "sim/colocation.hh"

#include <memory>

#include "base/logging.hh"
#include "sim/engine.hh"

namespace dmpb {

namespace {

/**
 * Replay position of one tenant: a streaming decoder over the
 * compressed trace plus a scratch batch the current turn's events
 * are decoded into. One scratch per tenant, quantum-sized, reused
 * every turn -- decode+replay never allocates in steady state.
 */
struct StreamCursor
{
    explicit StreamCursor(const CompressedTrace &trace)
        : cur(trace)
    {}

    CompressedTrace::Cursor cur;
    AccessBatch scratch;

    bool done() const { return cur.done(); }
};

/**
 * Replay up to @p budget events of the tenant's stream. Returns the
 * number of events consumed (< budget only when the stream ran dry).
 * Each turn is an independent replayBatch() call, so vectorized-mode
 * run coalescing can never fold across a turn boundary.
 */
std::size_t
replayTurn(StreamCursor &cur, std::size_t budget,
           CacheHierarchy &caches, BranchPredictor &predictor,
           ReplayMode mode)
{
    const std::size_t decoded = cur.cur.decode(cur.scratch, budget);
    if (decoded > 0)
        replayBatch(cur.scratch, caches, predictor, mode);
    return decoded;
}

} // namespace

TenantCaptureSink::TenantCaptureSink(CompressedTrace &trace,
                                     const MachineConfig &machine,
                                     std::uint64_t rebase_offset,
                                     ReplayMode mode)
    : trace_(trace),
      rebase_offset_(rebase_offset),
      mode_(mode),
      caches_(machine.caches, 1),
      predictor_(machine.predictor.table_bits,
                 machine.predictor.history_bits)
{}

void
TenantCaptureSink::consume(AccessBatch &block)
{
    if (rebase_offset_ != 0)
        block.rebase(rebase_offset_);
    replayBatch(block, caches_, predictor_, mode_);
    trace_.append(block);
}

TenantReplayStats
TenantCaptureSink::isolatedStats() const
{
    TenantReplayStats st;
    st.l1i = caches_.l1i().stats();
    st.l1d = caches_.l1d().stats();
    st.l2 = caches_.l2().stats();
    st.l3 = caches_.l3Stats();
    st.branch = predictor_.stats();
    return st;
}

InterleaveResult
interleaveReplay(const MachineConfig &machine,
                 const std::vector<TenantStream> &streams,
                 PartitionPolicy &policy, const InterleaveConfig &cfg,
                 ReplayMode mode)
{
    const std::uint32_t tenants =
        static_cast<std::uint32_t>(streams.size());
    dmpb_assert(tenants >= 1, "co-located replay needs tenants");
    const std::size_t quantum = cfg.quantum == 0 ? 1 : cfg.quantum;
    const std::size_t phase_quanta =
        cfg.phase_quanta == 0 ? 1 : cfg.phase_quanta;
    const std::uint32_t ways = machine.caches.l3.associativity;

    // One shared LLC, K private L1/L2 hierarchies routed into it.
    // Everything below runs on the calling thread -- the SharedL3 is
    // thread-confined by construction, no locking anywhere.
    SharedL3 shared(machine.caches.l3, tenants);
    std::vector<std::unique_ptr<CacheHierarchy>> hiers;
    std::vector<std::unique_ptr<GsharePredictor>> preds;
    hiers.reserve(tenants);
    preds.reserve(tenants);
    for (std::uint32_t t = 0; t < tenants; ++t) {
        hiers.push_back(std::make_unique<CacheHierarchy>(
            machine.caches, shared, t));
        preds.push_back(std::make_unique<GsharePredictor>(
            machine.predictor.table_bits,
            machine.predictor.history_bits));
    }

    std::vector<std::uint64_t> masks = policy.initialMasks(tenants, ways);
    dmpb_assert(masks.size() == tenants,
                policy.name(), ": initialMasks returned ",
                masks.size(), " masks for ", tenants, " tenants");
    for (std::uint32_t t = 0; t < tenants; ++t)
        shared.setWayMask(t, masks[t]);

    InterleaveResult result;
    result.tenants.resize(tenants);

    std::vector<StreamCursor> cursors;
    cursors.reserve(tenants);
    std::size_t active = 0;
    for (std::uint32_t t = 0; t < tenants; ++t) {
        cursors.emplace_back(streams[t].trace);
        active += cursors[t].done() ? 0 : 1;
    }

    std::uint64_t rounds = 0;
    while (active > 0) {
        for (std::uint32_t t = 0; t < tenants; ++t) {
            StreamCursor &cur = cursors[t];
            if (cur.done())
                continue;
            replayTurn(cur, quantum, *hiers[t], *preds[t], mode);
            if (cur.done())
                --active;
        }
        ++rounds;
        if (active > 0 && rounds % phase_quanta == 0) {
            std::vector<CacheStats> cumulative(tenants);
            for (std::uint32_t t = 0; t < tenants; ++t)
                cumulative[t] = shared.tenantStats(t);
            if (policy.rebalance(cumulative, ways, masks)) {
                for (std::uint32_t t = 0; t < tenants; ++t)
                    shared.setWayMask(t, masks[t]);
                ++result.rebalances;
            }
        }
    }

    for (std::uint32_t t = 0; t < tenants; ++t) {
        TenantReplayStats &st = result.tenants[t];
        st.l1i = hiers[t]->l1i().stats();
        st.l1d = hiers[t]->l1d().stats();
        st.l2 = hiers[t]->l2().stats();
        st.l3 = shared.tenantStats(t);
        st.branch = preds[t]->stats();
    }
    return result;
}

} // namespace dmpb
