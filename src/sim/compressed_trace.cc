#include "sim/compressed_trace.hh"

#include "base/logging.hh"

namespace dmpb {

namespace {

// Wire opcodes. 0-4 mirror SimOp with the data ops predicting from
// the most recent data address; 5/6 are Load/Store against the
// second-most-recent one (two interleaved data streams -- e.g. a copy
// loop's source and destination -- then both see small deltas).
// Opcode 7 is a branch whose site hit the move-to-front site
// dictionary: sites are hash-like values with random-looking deltas
// but a tiny working set (the current loop back-edge plus a few
// kernel sites), so a dictionary hit costs one byte where a site
// delta costs five or six.
enum : std::uint8_t
{
    kLoadP0 = 0,
    kStoreP0 = 1,
    kIfetch = 2,
    kBranchTaken = 3,
    kBranchNotTaken = 4,
    kLoadP1 = 5,
    kStoreP1 = 6,
    kBranchHit = 7,
};

constexpr std::uint64_t
zigzag(std::uint64_t prev, std::uint64_t value)
{
    // Signed delta mod 2^64; exact for any operands, so the decoder's
    // prev + unzigzag(zz) reconstructs value bit-for-bit.
    const std::uint64_t d = value - prev;
    return (d << 1) ^ (0ULL - (d >> 63));
}

constexpr std::uint64_t
unzigzag(std::uint64_t prev, std::uint64_t zz)
{
    return prev + ((zz >> 1) ^ (0ULL - (zz & 1)));
}

/** Index of @p site in the MTF dictionary, or -1. */
inline int
mtfFind(const std::uint64_t *mtf, std::uint64_t site)
{
    for (int i = 0;
         i < static_cast<int>(CompressedTrace::kSiteDictSize); ++i)
        if (mtf[i] == site)
            return i;
    return -1;
}

/** Move @p site to the dictionary front, shifting slots [0, i). */
inline void
mtfFront(std::uint64_t *mtf, int i, std::uint64_t site)
{
    for (; i > 0; --i)
        mtf[i] = mtf[i - 1];
    mtf[0] = site;
}

} // namespace

void
CompressedTrace::putEvent(std::uint8_t code, std::uint64_t zz)
{
    if (kChunkBytes - chunk_used_ < kMaxEventBytes) {
        chunks_.push_back(
            std::make_unique_for_overwrite<std::uint8_t[]>(kChunkBytes));
        chunk_used_ = 0;
    }
    std::uint8_t *const start = chunks_.back().get() + chunk_used_;
    std::uint8_t *out = start;
    std::uint8_t b =
        static_cast<std::uint8_t>(code | ((zz & 0xf) << 3));
    zz >>= 4;
    if (zz != 0)
        b |= 0x80;
    *out++ = b;
    while (zz != 0) {
        std::uint8_t c = zz & 0x7f;
        zz >>= 7;
        if (zz != 0)
            c |= 0x80;
        *out++ = c;
    }
    const std::size_t len = static_cast<std::size_t>(out - start);
    chunk_used_ += len;
    bytes_ += len;
}

void
CompressedTrace::append(const AccessBatch &block)
{
    const std::size_t n = block.size();
    const std::uint64_t *ev = block.events();
    const std::uint64_t *site = block.sites();

    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t e = ev[i];
        const std::uint64_t addr = e & AccessBatch::kAddrMask;
        switch (static_cast<SimOp>(e >> AccessBatch::kOpShift)) {
          case SimOp::Load:
          case SimOp::Store: {
            const bool store =
                static_cast<SimOp>(e >> AccessBatch::kOpShift) ==
                SimOp::Store;
            // Each slot extrapolates its stream's last stride, so a
            // steady strided walk -- the dominant shape of kernel
            // traffic -- encodes as zz == 0 (one byte per event).
            const std::uint64_t zz0 =
                zigzag(prev_data_[0] + stride_data_[0], addr);
            const std::uint64_t zz1 =
                zigzag(prev_data_[1] + stride_data_[1], addr);
            const std::size_t slot = zz1 < zz0 ? 1 : 0;
            putEvent(slot == 1 ? (store ? kStoreP1 : kLoadP1)
                               : (store ? kStoreP0 : kLoadP0),
                     slot == 1 ? zz1 : zz0);
            const std::uint64_t stride = addr - prev_data_[slot];
            stride_data_[1] = stride_data_[0];
            stride_data_[0] = stride;
            prev_data_[1] = prev_data_[0];
            prev_data_[0] = addr;
            break;
          }
          case SimOp::Ifetch:
            putEvent(kIfetch,
                     zigzag(prev_ifetch_ + stride_ifetch_, addr));
            stride_ifetch_ = addr - prev_ifetch_;
            prev_ifetch_ = addr;
            break;
          case SimOp::BranchTaken:
          case SimOp::BranchNotTaken: {
            const bool taken =
                static_cast<SimOp>(e >> AccessBatch::kOpShift) ==
                SimOp::BranchTaken;
            const std::uint64_t s = *site++;
            const int idx = mtfFind(site_mtf_, s);
            if (idx >= 0) {
                // Dictionary hit: one byte for the front few slots
                // (the taken bit rides in the delta field's low bit).
                putEvent(kBranchHit,
                         (static_cast<std::uint64_t>(idx) << 1) |
                             (taken ? 1 : 0));
                mtfFront(site_mtf_, idx, s);
            } else {
                putEvent(taken ? kBranchTaken : kBranchNotTaken,
                         zigzag(site_mtf_[0], s));
                mtfFront(site_mtf_,
                         static_cast<int>(kSiteDictSize) - 1, s);
            }
            ++branches_;
            break;
          }
        }
    }
    events_ += n;
}

double
CompressedTrace::compressionRatio() const
{
    if (bytes_ == 0)
        return 1.0;
    return static_cast<double>(rawBytes()) /
           static_cast<double>(bytes_);
}

std::size_t
CompressedTrace::Cursor::decode(AccessBatch &out,
                                std::size_t max_events)
{
    out.reserve(max_events);
    const std::uint8_t *pos = pos_;
    const std::uint8_t *end = end_;
    std::size_t produced = 0;

    while (produced < max_events && decoded_ < trace_->events_) {
        // The encoder's chunk-switch test, mirrored at the same event
        // boundary (a fresh cursor has pos == end, so it enters the
        // first chunk here too).
        if (static_cast<std::size_t>(end - pos) < kMaxEventBytes) {
            pos = trace_->chunks_[next_chunk_++].get();
            end = pos + kChunkBytes;
        }
        std::uint8_t b = *pos++;
        const std::uint8_t code = b & 7;
        std::uint64_t zz = (b >> 3) & 0xf;
        unsigned shift = 4;
        while (b & 0x80) {
            b = *pos++;
            zz |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            shift += 7;
        }
        switch (code) {
          case kLoadP0:
          case kStoreP0:
          case kLoadP1:
          case kStoreP1: {
            const std::size_t slot = code >= kLoadP1 ? 1 : 0;
            const std::uint64_t addr = unzigzag(
                prev_data_[slot] + stride_data_[slot], zz);
            out.pushData(addr,
                         code == kStoreP0 || code == kStoreP1);
            const std::uint64_t stride = addr - prev_data_[slot];
            stride_data_[1] = stride_data_[0];
            stride_data_[0] = stride;
            prev_data_[1] = prev_data_[0];
            prev_data_[0] = addr;
            break;
          }
          case kIfetch: {
            const std::uint64_t addr =
                unzigzag(prev_ifetch_ + stride_ifetch_, zz);
            out.pushIfetch(addr);
            stride_ifetch_ = addr - prev_ifetch_;
            prev_ifetch_ = addr;
            break;
          }
          case kBranchTaken:
          case kBranchNotTaken: {
            const std::uint64_t s = unzigzag(site_mtf_[0], zz);
            out.pushBranch(s, code == kBranchTaken);
            mtfFront(site_mtf_,
                     static_cast<int>(kSiteDictSize) - 1, s);
            break;
          }
          case kBranchHit: {
            const std::size_t idx = static_cast<std::size_t>(zz >> 1);
            dmpb_assert(idx < kSiteDictSize,
                        "corrupt compressed trace site index ", idx);
            const std::uint64_t s = site_mtf_[idx];
            out.pushBranch(s, (zz & 1) != 0);
            mtfFront(site_mtf_, static_cast<int>(idx), s);
            break;
          }
        }
        ++decoded_;
        ++produced;
    }
    pos_ = pos;
    end_ = end;
    return produced;
}

} // namespace dmpb
