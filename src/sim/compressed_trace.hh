/**
 * @file
 * Delta-compressed simulation event streams.
 *
 * A CompressedTrace stores the exact event sequence of a series of
 * AccessBatch blocks -- (op, addr) for memory events, (op, site) for
 * branches, in program order -- at roughly 1-2 bytes per event instead
 * of the 8 (16 for branches, which carry a side-queue site word) that
 * the raw SoA blocks cost. The co-location capture path appends each
 * tenant's blocks as they fill, so a captured tenant's resident
 * footprint is the compressed stream, not 8 bytes per event, and
 * larger tenant sets fit in memory.
 *
 * The codec is a per-event control byte plus a varint delta:
 *
 *   control byte = opcode[2:0] | delta[3:0] << 3 | continuation << 7
 *
 * where the delta is the zigzag encoding of the signed difference to a
 * small predictor state: for data events a stride extrapolation of the
 * last data address (two-deep, so two interleaved data streams both
 * compress, each predicting last + last-stride -- a steady strided
 * walk costs one byte per event), for ifetches a stride extrapolation
 * of the last ifetch. Opcodes 5/6 address the second data-predictor
 * slot. Branch sites are hash-like (delta coding is hopeless) but draw
 * from a tiny working set, so they go through a kSiteDictSize-entry
 * move-to-front dictionary: a hit is opcode 7 carrying the slot index
 * and the taken bit (one byte for the hot slots), a miss falls back to
 * a site delta and inserts. Arithmetic is mod 2^64, so every address
 * round-trips exactly; decoding is a strict inverse and the round trip
 * is bit-exact for any stream (enforced by property tests).
 *
 * The encoder's predictor state is continuous across append() calls:
 * block boundaries vanish from the byte stream, so compressing a
 * stream in different chunkings produces identical bytes. Decoding is
 * streaming via Cursor, which owns its predictor-state copy and can
 * stop and resume at any event position (mid-block included).
 *
 * The bytes live in fixed kChunkBytes chunks that are allocated once
 * and never grown, copied or trimmed, so a stream's resident size is
 * its compressed size plus one partly filled chunk (and under
 * kMaxEventBytes of unused tail per full chunk) -- a half-GiB capture
 * costs half a GiB, not the 2x a doubling vector briefly needs. An
 * event never straddles two chunks: the encoder starts a new chunk
 * whenever fewer than kMaxEventBytes remain, and the decoder applies
 * the same test at every event boundary, so the unused tail bytes are
 * never part of the stream.
 *
 * The format is versioned (kFormatVersion) but deliberately never
 * persisted and never part of any cache key -- it is an in-memory
 * transport whose layout may change freely between versions.
 */

#ifndef DMPB_SIM_COMPRESSED_TRACE_HH
#define DMPB_SIM_COMPRESSED_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/access_batch.hh"

namespace dmpb {

/** Append-only delta-compressed event stream; see the file comment. */
class CompressedTrace
{
  public:
    /** In-memory format revision; bump on any codec change. */
    static constexpr std::uint32_t kFormatVersion = 2;

    /** Entries in the branch-site move-to-front dictionary. */
    static constexpr std::size_t kSiteDictSize = 16;

    /** Size of one storage chunk. */
    static constexpr std::size_t kChunkBytes = 1 << 20;

    /** Longest encoded event: the control byte carries 4 delta bits,
     *  each continuation byte 7 more, for a full 64-bit delta. */
    static constexpr std::size_t kMaxEventBytes = 1 + (64 - 4 + 6) / 7;

    /** Append all events of @p block to the stream. */
    void append(const AccessBatch &block);

    /** Total events appended (branches included). */
    std::uint64_t events() const { return events_; }

    /** Branch events appended (they cost 16 raw bytes, not 8). */
    std::uint64_t branchEvents() const { return branches_; }

    /** Size of the compressed byte stream (chunk tail slack
     *  excluded). */
    std::uint64_t compressedBytes() const { return bytes_; }

    /**
     * What the same events cost as raw AccessBatch storage: one
     * 64-bit word per event plus one side-queue word per branch.
     */
    std::uint64_t
    rawBytes() const
    {
        return 8 * (events_ + branches_);
    }

    /** rawBytes()/compressedBytes(); 1.0 for an empty stream. */
    double compressionRatio() const;

    bool empty() const { return events_ == 0; }

    /** Testing hook: bytes held by the allocated chunks. */
    std::uint64_t
    allocatedBytesForTest() const
    {
        return static_cast<std::uint64_t>(chunks_.size()) * kChunkBytes;
    }

    /**
     * Streaming decoder over one CompressedTrace.
     *
     * Holds a private copy of the predictor state, so several cursors
     * can walk the same trace independently; the trace must not be
     * appended to while cursors are outstanding.
     */
    class Cursor
    {
      public:
        explicit Cursor(const CompressedTrace &trace)
            : trace_(&trace)
        {}

        /** True once every event has been decoded. */
        bool done() const { return decoded_ == trace_->events_; }

        /** Events decoded so far. */
        std::uint64_t decodedEvents() const { return decoded_; }

        /**
         * Decode up to @p max_events events into @p out (cleared and
         * reserved first).
         *
         * @return Events decoded (0 iff the cursor is done or
         *         max_events is 0).
         */
        std::size_t decode(AccessBatch &out, std::size_t max_events);

      private:
        const CompressedTrace *trace_;
        std::size_t next_chunk_ = 0;       ///< next chunk to enter
        const std::uint8_t *pos_ = nullptr;  ///< next byte to read
        const std::uint8_t *end_ = nullptr;  ///< end of pos_'s chunk
        std::uint64_t decoded_ = 0;  ///< events decoded so far
        std::uint64_t prev_data_[2] = {0, 0};
        std::uint64_t stride_data_[2] = {0, 0};
        std::uint64_t prev_ifetch_ = 0;
        std::uint64_t stride_ifetch_ = 0;
        std::uint64_t site_mtf_[kSiteDictSize] = {};
    };

  private:
    /** Emit one control byte + varint continuation for @p zz. */
    void putEvent(std::uint8_t code, std::uint64_t zz);

    std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
    /** Bytes written into the last chunk; starts "full" so the first
     *  event allocates. */
    std::size_t chunk_used_ = kChunkBytes;
    std::uint64_t bytes_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t branches_ = 0;
    // Encoder predictor state, continuous across append() calls.
    std::uint64_t prev_data_[2] = {0, 0};
    std::uint64_t stride_data_[2] = {0, 0};
    std::uint64_t prev_ifetch_ = 0;
    std::uint64_t stride_ifetch_ = 0;
    std::uint64_t site_mtf_[kSiteDictSize] = {};
};

} // namespace dmpb

#endif // DMPB_SIM_COMPRESSED_TRACE_HH
