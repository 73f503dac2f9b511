/**
 * @file
 * Property tests for the delta-compressed event stream
 * (sim/compressed_trace.hh): bit-exact round trips for randomized
 * streams, chunking invariance of the encoder, mid-block cursor
 * resume, chunk-boundary layout, rebase-then-compress equivalence and
 * the footprint floor the co-location capture path relies on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "base/rng.hh"
#include "sim/access_batch.hh"
#include "sim/compressed_trace.hh"

namespace dmpb {
namespace {

/** One event stream flattened for comparison: the packed event words
 *  plus the branch-site side queue, both in program order. */
struct FlatStream
{
    std::vector<std::uint64_t> ev;
    std::vector<std::uint64_t> sites;

    bool
    operator==(const FlatStream &o) const
    {
        return ev == o.ev && sites == o.sites;
    }
};

void
flatten(const AccessBatch &b, FlatStream &out)
{
    const std::uint64_t *site = b.sites();
    std::size_t branches = 0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        const std::uint64_t e = b.events()[i];
        out.ev.push_back(e);
        const auto op = static_cast<SimOp>(e >> AccessBatch::kOpShift);
        if (op == SimOp::BranchTaken || op == SimOp::BranchNotTaken)
            out.sites.push_back(site[branches++]);
    }
}

/**
 * Push @p events pseudo-random events (seeded, so reproducible) into
 * @p trace in blocks of @p block_events, also flattening the exact
 * pushed sequence into @p expect. Addresses mix three regimes the
 * codec must survive: tight strided locality, a second interleaved
 * data stream, and occasional full-range 61-bit jumps (worst case for
 * the varint, exact round trip required regardless).
 */
void
fillRandom(CompressedTrace &trace, FlatStream &expect,
           std::uint64_t seed, std::size_t events,
           std::size_t block_events)
{
    Rng rng(seed);
    AccessBatch batch;
    batch.reserve(block_events);
    auto flush = [&]() {
        if (!batch.empty()) {
            flatten(batch, expect);
            trace.append(batch);
            batch.clear();
        }
    };
    std::uint64_t near = 0x200000000000ULL;
    std::uint64_t far = 0x5ff000000000ULL;
    for (std::size_t i = 0; i < events; ++i) {
        const std::uint64_t r = rng.next();
        switch (r % 8) {
          case 0:
            near += 64;
            batch.pushData(near, true);
            break;
          case 1:
          case 2:
            near += (r >> 32) % 256;
            batch.pushData(near, false);
            break;
          case 3:
            far += 4096;
            batch.pushData(far, false);
            break;
          case 4:
            // Full-range jump (any 61-bit address is legal).
            batch.pushData((r >> 3) & AccessBatch::kAddrMask,
                           (r & 4) != 0);
            break;
          case 5:
            batch.pushIfetch(0x1000 + (r % 4096));
            break;
          default:
            batch.pushBranch(r | 1, (r & 2) != 0);
            break;
        }
        if (batch.full())
            flush();
    }
    flush();
}

/** Decode the whole trace in @p chunk_events-sized cursor steps. */
FlatStream
decodeAll(const CompressedTrace &trace, std::size_t chunk_events)
{
    FlatStream out;
    CompressedTrace::Cursor cur(trace);
    AccessBatch scratch;
    while (cur.decode(scratch, chunk_events) > 0)
        flatten(scratch, out);
    EXPECT_TRUE(cur.done());
    EXPECT_EQ(cur.decodedEvents(), trace.events());
    return out;
}

TEST(CompressedTrace, RoundTripsRandomStreamsBitExactly)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadULL}) {
        for (std::size_t events : {std::size_t{1}, std::size_t{7},
                                   std::size_t{1000},
                                   std::size_t{20011}}) {
            CompressedTrace trace;
            FlatStream expect;
            fillRandom(trace, expect, seed, events, 4096);
            EXPECT_EQ(trace.events(), events);
            EXPECT_EQ(decodeAll(trace, 64 * 1024), expect)
                << "seed " << seed << " events " << events;
        }
    }
}

TEST(CompressedTrace, EncoderIsChunkingInvariant)
{
    // The same event sequence appended through different block sizes
    // must produce the identical byte stream: the encoder's predictor
    // state is continuous across append() calls.
    FlatStream flat_a;
    FlatStream flat_b;
    FlatStream flat_c;
    CompressedTrace a;
    CompressedTrace b;
    CompressedTrace c;
    fillRandom(a, flat_a, 7, 5000, 1);       // one event per block
    fillRandom(b, flat_b, 7, 5000, 512);
    fillRandom(c, flat_c, 7, 5000, 100000);  // one big block
    EXPECT_EQ(flat_a, flat_b);
    EXPECT_EQ(flat_a, flat_c);
    EXPECT_EQ(a.compressedBytes(), b.compressedBytes());
    EXPECT_EQ(a.compressedBytes(), c.compressedBytes());
    EXPECT_EQ(decodeAll(a, 1024), decodeAll(c, 1024));
}

TEST(CompressedTrace, CursorResumesMidBlockAtAnyGranularity)
{
    CompressedTrace trace;
    FlatStream expect;
    fillRandom(trace, expect, 3, 10007, 4096);
    // Odd chunk sizes deliberately misaligned with the 4096-event
    // append blocks: every decode stops and resumes mid-block.
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3},
                              std::size_t{1009}, std::size_t{4095},
                              std::size_t{4097}}) {
        EXPECT_EQ(decodeAll(trace, chunk), expect)
            << "chunk " << chunk;
    }
}

/**
 * Push a branch-site dictionary miss whose encoding is exactly @p len
 * bytes. Each site is the previous one plus a delta sized to that
 * varint length; the deltas are positive and sixteen of them sum to
 * under 2^64, so no site is ever still in the 16-entry dictionary.
 */
void
pushMissOfLength(AccessBatch &batch, std::uint64_t &site, unsigned len)
{
    // zz = 2 * delta; the control byte holds 4 payload bits and every
    // continuation byte 7 more.
    const std::uint64_t delta =
        len == 1 ? 1 : (1ULL << (3 + 7 * (len - 2))) + 1;
    site += delta;
    batch.pushBranch(site, (site & 2) != 0);
}

/** Append @p count events of exactly @p len bytes each. */
void
appendMisses(CompressedTrace &trace, FlatStream &expect,
             std::uint64_t &site, unsigned len, std::size_t count)
{
    AccessBatch batch;
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        pushMissOfLength(batch, site, len);
    flatten(batch, expect);
    trace.append(batch);
}

TEST(CompressedTrace, ChunkTailsFillExactlyAndSwitchBeforeOverflow)
{
    constexpr std::size_t kChunk = CompressedTrace::kChunkBytes;
    constexpr unsigned kMax = CompressedTrace::kMaxEventBytes;
    CompressedTrace trace;
    FlatStream expect;
    std::uint64_t site = 0;

    // Chunk 0: worst-case events up to exactly kMax bytes before the
    // tail, then one more worst-case event fills it to the last byte.
    const std::size_t fill = kChunk - kMax;
    appendMisses(trace, expect, site, kMax, fill / kMax);
    if (fill % kMax != 0)
        appendMisses(trace, expect, site, fill % kMax, 1);
    appendMisses(trace, expect, site, kMax, 1);
    EXPECT_EQ(trace.compressedBytes(), kChunk);
    EXPECT_EQ(trace.allocatedBytesForTest(), kChunk);

    // Chunk 1: filled to one byte short of a worst-case event, so
    // even a one-byte event has to open chunk 2.
    appendMisses(trace, expect, site, 1, 1);
    EXPECT_EQ(trace.allocatedBytesForTest(), 2 * kChunk);
    const std::size_t used = kChunk - (kMax - 1);
    appendMisses(trace, expect, site, kMax, (used - 1) / kMax);
    if ((used - 1) % kMax != 0)
        appendMisses(trace, expect, site, (used - 1) % kMax, 1);
    EXPECT_EQ(trace.compressedBytes(), kChunk + used);
    EXPECT_EQ(trace.allocatedBytesForTest(), 2 * kChunk);
    appendMisses(trace, expect, site, 1, 1);
    EXPECT_EQ(trace.compressedBytes(), kChunk + used + 1);
    EXPECT_EQ(trace.allocatedBytesForTest(), 3 * kChunk);

    for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                              std::size_t{4096}})
        EXPECT_EQ(decodeAll(trace, chunk), expect) << "chunk " << chunk;
}

TEST(CompressedTrace, RoundTripsWorstCaseStreamAcrossChunks)
{
    // Full-range data addresses and random 64-bit branch sites (every
    // one a dictionary miss): nearly every event takes 9 or 10 bytes,
    // so the chunk tails land at varying offsets.
    constexpr std::size_t kChunk = CompressedTrace::kChunkBytes;
    CompressedTrace trace;
    FlatStream expect;
    Rng rng(0xc40c);
    AccessBatch batch;
    batch.reserve(4096);
    while (trace.compressedBytes() < 3 * kChunk + kChunk / 2) {
        for (std::size_t i = 0; i < 4096; ++i) {
            const std::uint64_t r = rng.next();
            if (r & 1)
                batch.pushBranch(rng.next(), (r & 2) != 0);
            else
                batch.pushData(rng.next() & AccessBatch::kAddrMask,
                               (r & 2) != 0);
        }
        flatten(batch, expect);
        trace.append(batch);
        batch.clear();
    }
    EXPECT_GE(trace.compressedBytes(), 9 * trace.events());
    EXPECT_GE(trace.allocatedBytesForTest(), 4 * kChunk);
    EXPECT_LE(trace.allocatedBytesForTest(),
              trace.compressedBytes() + kChunk);
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                              std::size_t{4096}})
        EXPECT_EQ(decodeAll(trace, chunk), expect) << "chunk " << chunk;
}

TEST(CompressedTrace, RebaseThenCompressEqualsCompressThenRebase)
{
    // The co-location capture sink rebases each block into the
    // tenant's address slot before compressing. That must equal
    // compressing first and rebasing the decoded blocks after -- i.e.
    // the codec is transparent to rebase(), including 61-bit
    // wraparound offsets.
    const std::uint64_t offsets[] = {1ULL << 45, (1ULL << 45) * 3,
                                     AccessBatch::kAddrMask};
    for (std::uint64_t offset : offsets) {
        CompressedTrace plain;
        FlatStream plain_flat;
        fillRandom(plain, plain_flat, 11, 6000, 512);

        // Re-compress the stream with every block rebased first (what
        // the capture sink does), recording the expected sequence.
        CompressedTrace rebased;
        FlatStream rebased_expect;
        AccessBatch block;
        CompressedTrace::Cursor cur(plain);
        while (cur.decode(block, 512) > 0) {
            block.rebase(offset);
            flatten(block, rebased_expect);
            rebased.append(block);
        }
        // Decode the rebased trace and compare against rebasing the
        // decoded plain stream.
        EXPECT_EQ(decodeAll(rebased, 777), rebased_expect)
            << "offset " << offset;
        // And the rebased stream differs from the plain one only in
        // the memory-event address bits.
        FlatStream plain_decoded = decodeAll(plain, 4096);
        ASSERT_EQ(plain_decoded.ev.size(), rebased_expect.ev.size());
        EXPECT_EQ(plain_decoded.sites, rebased_expect.sites);
    }
}

TEST(CompressedTrace, LineStrideStreamCompressesAtLeastFourX)
{
    // The shape of a real captured stream: line-strided data walks
    // with same-line revisits, plus sequential ifetches. This is the
    // footprint claim the co-location capture makes (>= 4x vs 8 bytes
    // per event).
    CompressedTrace trace;
    AccessBatch batch;
    batch.reserve(4096);
    std::uint64_t data = 0x200000000000ULL;
    std::uint64_t code = 0x1000;
    for (std::size_t i = 0; i < 100000; ++i) {
        if (i % 4 == 3) {
            code = 0x1000 + (i % 512) * 64;
            batch.pushIfetch(code);
        } else {
            // Advance a line every other data access; revisit the
            // same word in between (kernels touch fields repeatedly).
            if (i % 2 == 0)
                data += 64;
            batch.pushData(data, i % 8 == 0);
        }
        if (batch.full()) {
            trace.append(batch);
            batch.clear();
        }
    }
    if (!batch.empty())
        trace.append(batch);
    EXPECT_GE(trace.compressionRatio(), 4.0);
    EXPECT_EQ(trace.rawBytes(), 8 * trace.events());
}

TEST(CompressedTrace, EmptyStreamBehaves)
{
    CompressedTrace trace;
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.events(), 0u);
    EXPECT_EQ(trace.compressedBytes(), 0u);
    EXPECT_DOUBLE_EQ(trace.compressionRatio(), 1.0);
    CompressedTrace::Cursor cur(trace);
    EXPECT_TRUE(cur.done());
    AccessBatch out;
    EXPECT_EQ(cur.decode(out, 128), 0u);
}

TEST(CompressedTrace, BranchSitesRoundTripThroughSideQueue)
{
    // Branch-heavy stream: site hashes are full 64-bit values (not
    // masked to 61 bits like addresses), so they exercise the widest
    // varints.
    CompressedTrace trace;
    FlatStream expect;
    AccessBatch batch;
    batch.reserve(1000);
    Rng rng(99);
    for (std::size_t i = 0; i < 5000; ++i) {
        batch.pushBranch(rng.next(), (i & 1) != 0);
        if (batch.full()) {
            flatten(batch, expect);
            trace.append(batch);
            batch.clear();
        }
    }
    if (!batch.empty()) {
        flatten(batch, expect);
        trace.append(batch);
    }
    EXPECT_EQ(trace.branchEvents(), 5000u);
    EXPECT_EQ(trace.rawBytes(), 8 * (5000 + 5000));
    EXPECT_EQ(decodeAll(trace, 64), expect);
}

} // namespace
} // namespace dmpb
