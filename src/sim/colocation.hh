/**
 * @file
 * Deterministic co-located replay: K tenants' captured event streams
 * through one shared LLC under a way-partitioning policy.
 *
 * The isolated pipelines replay each workload's trace through private
 * models; co-location instead replays K *captured* streams (see
 * TraceContext::setCaptureSink) through K private L1/L2 hierarchies
 * that all route L3 traffic into one SharedL3. Interleaving is
 * strict round-robin in fixed quantum-sized turns on a single thread,
 * so the contention pattern -- and therefore every statistic -- is a
 * pure function of (streams, policy, quantum), independent of shard
 * or worker counts like every other engine knob in the repo.
 *
 * Phase boundaries for the policy layer are defined in replayed work,
 * not wall-clock: every InterleaveConfig::phase_quanta full rounds the
 * policy sees each tenant's cumulative L3 counters and may re-mask.
 */

#ifndef DMPB_SIM_COLOCATION_HH
#define DMPB_SIM_COLOCATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/access_batch.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/compressed_trace.hh"
#include "sim/machine.hh"
#include "sim/partition_policy.hh"

namespace dmpb {

/** One tenant's captured event stream, in program order. */
struct TenantStream
{
    std::string name;
    /**
     * The captured events, delta-compressed (~4-8x smaller than raw
     * 8-byte-per-event blocks) in fixed-size chunks, so the resident
     * footprint is the compressed size plus at most one chunk. The
     * capture sink (TenantCaptureSink) replays each block into the
     * isolated baseline and then appends it; block boundaries vanish
     * in the byte stream, only the concatenated event order matters.
     * The interleaver is the stream's only decoder: it decodes
     * quantum-sized turns back into a scratch AccessBatch on the fly.
     */
    CompressedTrace trace;

    /** Total captured events. */
    std::uint64_t events() const { return trace.events(); }
};

/** Knobs of the round-robin interleaver. Both are part of the
 *  simulated-contention definition (and of co-location cache keys),
 *  unlike engine knobs: a different quantum is a different scenario,
 *  not a different execution strategy. */
struct InterleaveConfig
{
    /** Events one tenant replays per turn. */
    std::size_t quantum = 4096;
    /** Full round-robin rounds between policy rebalance() calls. */
    std::size_t phase_quanta = 64;
};

/** Per-tenant model statistics after a co-located replay. */
struct TenantReplayStats
{
    CacheStats l1i;
    CacheStats l1d;
    CacheStats l2;
    CacheStats l3;      ///< this tenant's share of the shared LLC
    BranchStats branch;
};

/**
 * Capture block size, in events, of a co-location tenant's
 * TraceContext. Deliberately not --sim-batch: block boundaries are
 * invisible in every statistic, but pinning the capacity keeps the
 * captured streams byte-identical across engine configurations by
 * construction.
 */
constexpr std::size_t kCaptureBlockEvents = 64 * 1024;

/**
 * Capture sink of one co-location tenant: the isolated baseline is
 * replayed while the stream is captured, so the stream is decoded
 * only once (by the interleaver).
 *
 * Each consumed block is rebased into the tenant's private address
 * slot, replayed through a private full-LLC hierarchy and predictor
 * (the isolated baseline), then appended to the compressed trace.
 * Replay statistics do not depend on how the stream is cut into
 * blocks, so this equals decoding the finished trace and replaying
 * it afterwards -- without the second pass over the stream.
 */
class TenantCaptureSink final : public BatchSink
{
  public:
    TenantCaptureSink(CompressedTrace &trace,
                      const MachineConfig &machine,
                      std::uint64_t rebase_offset);

    void consume(AccessBatch &block) override;

    /** Model statistics of the isolated replay so far. */
    TenantReplayStats isolatedStats() const;

  private:
    CompressedTrace &trace_;
    const std::uint64_t rebase_offset_;
    CacheHierarchy caches_;
    GsharePredictor predictor_;
};

/** Outcome of interleaveReplay(). */
struct InterleaveResult
{
    std::vector<TenantReplayStats> tenants;  ///< stream order
    /** Policy rebalances that actually changed at least one mask. */
    std::uint64_t rebalances = 0;
};

/**
 * Replay @p streams through private L1/L2 and one shared L3 of
 * @p machine under @p policy, single-threaded and bit-deterministic.
 *
 * Tenants take turns in stream order, InterleaveConfig::quantum
 * events per turn; exhausted tenants drop out of the rotation and the
 * rest keep contending until every stream is drained (so a short
 * tenant's tail pressure disappears exactly when its work does).
 */
InterleaveResult
interleaveReplay(const MachineConfig &machine,
                 const std::vector<TenantStream> &streams,
                 PartitionPolicy &policy,
                 const InterleaveConfig &cfg = {});

} // namespace dmpb

#endif // DMPB_SIM_COLOCATION_HH
