#include "motifs/bd_motifs.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "base/logging.hh"
#include "datagen/gensort.hh"
#include "datagen/graph.hh"
#include "datagen/text.hh"
#include "datagen/vectors.hh"
#include "motifs/bd_kernels.hh"
#include "motifs/kernel_util.hh"

namespace dmpb {

namespace {

/** Number of whole chunks covering @p total bytes. */
[[maybe_unused]] std::size_t
chunkCount(std::uint64_t total, std::uint64_t chunk)
{
    if (chunk == 0)
        chunk = total;
    return static_cast<std::size_t>((total + chunk - 1) /
                                    (chunk ? chunk : 1));
}

/** Load gensort records and extract traced 64-bit key prefixes. */
TracedBuffer<std::uint64_t>
loadKeyPrefixes(TraceContext &ctx,
                const std::vector<GensortRecord> &records,
                const VirtualRange &records_va)
{
    TracedBuffer<std::uint64_t> keys(ctx, records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ctx.emitLoadAddr(records_va.addr(i,
                                         GensortRecord::kRecordBytes),
                         GensortRecord::kKeyBytes);
        ctx.emitOps(OpClass::IntAlu, 2);  // byte assembly
        keys.wr(i, records[i].keyPrefix());
    }
    return keys;
}

/** Gather pass: move whole records into sorted order (traced). */
std::uint64_t
gatherRecords(TraceContext &ctx, const std::vector<GensortRecord> &in,
              const VirtualRange &in_va,
              const std::vector<std::uint32_t> &order,
              std::vector<GensortRecord> &out)
{
    std::uint64_t checksum = 0;
    out.resize(in.size());
    VirtualRange out_va(ctx,
                        out.size() * GensortRecord::kRecordBytes);
    for (std::size_t i = 0; i < order.size(); ++i) {
        const GensortRecord &r = in[order[i]];
        ctx.emitLoadAddr(in_va.addr(order[i],
                                    GensortRecord::kRecordBytes),
                         GensortRecord::kRecordBytes);
        out[i] = r;
        ctx.emitStoreAddr(out_va.addr(i, GensortRecord::kRecordBytes),
                          GensortRecord::kRecordBytes);
        checksum = checksumMix(checksum, r.keyPrefix());
    }
    return checksum;
}

} // namespace

// ----------------------------------------------------------------- Sort

std::uint64_t
QuickSortMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    const std::size_t per_chunk =
        std::max<std::size_t>(1, p.chunk_size / GensortRecord::kRecordBytes);
    const std::size_t total_records =
        std::max<std::size_t>(2, p.data_size / GensortRecord::kRecordBytes);

    GensortGenerator gen(p.seed);
    std::uint64_t checksum = 0;
    std::size_t done = 0;
    while (done < total_records) {
        std::size_t n = std::min(per_chunk, total_records - done);
        auto records = gen.generate(n);
        VirtualRange records_va(ctx,
                                n * GensortRecord::kRecordBytes);
        auto keys = loadKeyPrefixes(ctx, records, records_va);

        // Sort (key, index) pairs: pack the index into the low bits.
        TracedBuffer<std::uint64_t> tagged(ctx, n);
        for (std::size_t i = 0; i < n; ++i) {
            tagged.wr(i, (keys.rd(i) & ~0xffffffULL) |
                             static_cast<std::uint64_t>(i & 0xffffff));
            ctx.emitOps(OpClass::IntAlu, 2);
        }
        kernels::quickSortU64(ctx, tagged, 0, n - 1);

        std::vector<std::uint32_t> order(n);
        for (std::size_t i = 0; i < n; ++i)
            order[i] = static_cast<std::uint32_t>(tagged.rd(i) &
                                                  0xffffff);
        std::vector<GensortRecord> sorted;
        checksum = checksumMix(
            checksum,
            gatherRecords(ctx, records, records_va, order, sorted));
        done += n;
    }
    return checksum;
}

std::uint64_t
MergeSortMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    const std::size_t per_chunk =
        std::max<std::size_t>(2, p.chunk_size / GensortRecord::kRecordBytes);
    const std::size_t total_records =
        std::max<std::size_t>(2, p.data_size / GensortRecord::kRecordBytes);

    GensortGenerator gen(p.seed);
    std::uint64_t checksum = 0;
    std::size_t done = 0;
    while (done < total_records) {
        std::size_t n = std::min(per_chunk, total_records - done);
        auto records = gen.generate(n);
        VirtualRange records_va(ctx,
                                n * GensortRecord::kRecordBytes);
        auto keys = loadKeyPrefixes(ctx, records, records_va);
        kernels::mergeSortU64(ctx, keys);
        for (std::size_t i = 0; i < n; i += 64)
            checksum = checksumMix(checksum, keys.rd(i));
        done += n;
    }
    return checksum;
}

// ------------------------------------------------------------- Sampling

std::uint64_t
RandomSamplingMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    const std::size_t n = std::max<std::size_t>(16, p.data_size / 8);
    Rng rng(p.seed);
    TracedBuffer<std::uint64_t> in(ctx, n);
    for (std::size_t i = 0; i < n; ++i)
        in.raw()[i] = rng.next();
    TracedBuffer<std::uint64_t> out(ctx, n);
    Rng sample_rng(p.seed ^ 0x5a5aULL);
    std::size_t k = kernels::randomSample(ctx, in, out, 0.1, sample_rng);
    std::uint64_t checksum = k;
    for (std::size_t i = 0; i < k; i += 16)
        checksum = checksumMix(checksum, out.rd(i));
    return checksum;
}

std::uint64_t
IntervalSamplingMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    const std::size_t n = std::max<std::size_t>(16, p.data_size / 8);
    Rng rng(p.seed);
    TracedBuffer<std::uint64_t> in(ctx, n);
    for (std::size_t i = 0; i < n; ++i)
        in.raw()[i] = rng.next();
    TracedBuffer<std::uint64_t> out(ctx, n / 8 + 1);
    std::size_t k = kernels::intervalSample(ctx, in, out, 8);
    std::uint64_t checksum = k;
    for (std::size_t i = 0; i < k; i += 16)
        checksum = checksumMix(checksum, out.rd(i));
    return checksum;
}

// ---------------------------------------------------------------- Graph

std::uint64_t
GraphConstructMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    const std::size_t edges =
        std::max<std::size_t>(64, p.data_size / 8);
    const std::uint64_t vertices = std::max<std::uint64_t>(8, edges / 8);
    Rng rng(p.seed);
    ZipfSampler zipf(vertices, 0.6);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list;
    edge_list.reserve(edges);
    for (std::size_t i = 0; i < edges; ++i) {
        auto src = static_cast<std::uint32_t>(rng.nextU64(vertices));
        auto dst = static_cast<std::uint32_t>(mix64(zipf.sample(rng)) %
                                              vertices);
        edge_list.emplace_back(src, dst);
    }
    Graph g = kernels::graphConstruct(ctx, edge_list, vertices);
    std::uint64_t checksum = g.numEdges();
    for (std::uint64_t v = 0; v < vertices; v += 64)
        checksum = checksumMix(checksum, g.out_offset[v]);
    return checksum;
}

std::uint64_t
GraphTraverseMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    const std::uint64_t vertices =
        std::max<std::uint64_t>(64, p.data_size / 64);
    GraphGenerator gen(p.seed);
    Graph g = gen.generate(vertices, 8.0, 0.6);
    // The generator is untraced; adopt the CSR arrays into this
    // context's simulated address space for the traversal.
    g.out_offset_va = ctx.virtualAlloc(g.out_offset.size() * 8);
    g.out_edges_va = ctx.virtualAlloc(g.out_edges.size() * 4);
    std::vector<std::uint8_t> visited(vertices, 0);
    VirtualRange visited_va(ctx, vertices);
    std::uint64_t reached_total = 0;
    Rng rng(p.seed ^ 0x77ULL);
    // BFS waves from random roots until most of the graph is covered.
    for (int root_trial = 0; root_trial < 8; ++root_trial) {
        auto root = static_cast<std::uint32_t>(rng.nextU64(vertices));
        if (visited[root])
            continue;
        reached_total += kernels::graphBfs(ctx, g, root, visited,
                                           visited_va.base());
    }
    return checksumMix(reached_total, vertices);
}

// ------------------------------------------------------------------ Set

namespace {

std::uint64_t
runSetOp(TraceContext &ctx, const MotifParams &p, int which)
{
    const std::size_t n = std::max<std::size_t>(16, p.data_size / 16);
    TextGenerator ga(p.seed), gb(p.seed ^ 0x1234ULL);
    auto sa = ga.generateIdSet(n, n * 8);
    auto sb = gb.generateIdSet(n, n * 8);
    TracedBuffer<std::uint64_t> a(ctx, std::move(sa));
    TracedBuffer<std::uint64_t> b(ctx, std::move(sb));
    TracedBuffer<std::uint64_t> out(ctx, a.size() + b.size());
    std::size_t k = 0;
    switch (which) {
      case 0: k = kernels::setUnion(ctx, a, b, out); break;
      case 1: k = kernels::setIntersect(ctx, a, b, out); break;
      default: k = kernels::setDifference(ctx, a, b, out); break;
    }
    std::uint64_t checksum = k;
    for (std::size_t i = 0; i < k; i += 32)
        checksum = checksumMix(checksum, out.rd(i));
    return checksum;
}

} // namespace

std::uint64_t
SetUnionMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    return runSetOp(ctx, p, 0);
}

std::uint64_t
SetIntersectionMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    return runSetOp(ctx, p, 1);
}

std::uint64_t
SetDifferenceMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    return runSetOp(ctx, p, 2);
}

// ------------------------------------------------------------ Statistics

std::uint64_t
CountAvgStatsMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    const std::size_t n = std::max<std::size_t>(64, p.data_size / 8);
    const auto vocab = static_cast<std::uint32_t>(
        std::max<std::size_t>(16, n / 64));
    TextGenerator gen(p.seed);
    auto tokens = gen.generateTokens(n, vocab, 0.8);
    TracedBuffer<std::uint32_t> keys(ctx, std::move(tokens));
    TracedBuffer<float> values(ctx, n);
    Rng rng(p.seed ^ 0xabcULL);
    for (std::size_t i = 0; i < n; ++i)
        values.raw()[i] = static_cast<float>(rng.nextDouble(0.0, 100.0));

    std::vector<std::uint32_t> out_keys;
    std::vector<std::uint64_t> out_counts;
    std::vector<double> out_sums;
    std::size_t groups = kernels::hashGroupStats(
        ctx, keys, values, out_keys, out_counts, out_sums);

    // Average computation per group.
    std::uint64_t checksum = groups;
    for (std::size_t g = 0; g < groups; ++g) {
        double avg = out_sums[g] / static_cast<double>(out_counts[g]);
        ctx.emitOps(OpClass::FpMul, 1);
        checksum = checksumMixF(checksum, avg);
    }
    return checksum;
}

std::uint64_t
ProbabilityStatsMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    const std::size_t n = std::max<std::size_t>(64, p.data_size / 4);
    const auto vocab = static_cast<std::uint32_t>(
        std::max<std::size_t>(16, n / 32));
    TextGenerator gen(p.seed);
    auto tokens = gen.generateTokens(n, vocab, 0.8);
    TracedBuffer<std::uint32_t> buf(ctx, std::move(tokens));
    double entropy = kernels::probabilityStats(ctx, buf, vocab);
    return checksumMixF(0, entropy);
}

std::uint64_t
MinMaxMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    const std::size_t n = std::max<std::size_t>(16, p.data_size / 8);
    Rng rng(p.seed);
    TracedBuffer<std::uint64_t> a(ctx, n);
    for (std::size_t i = 0; i < n; ++i)
        a.raw()[i] = rng.next();
    auto [mn, mx] = kernels::minMaxScan(ctx, a);
    return checksumMix(mn, mx);
}

// ---------------------------------------------------------------- Logic

std::uint64_t
Md5Motif::run(TraceContext &ctx, const MotifParams &p) const
{
    const std::size_t n = std::max<std::size_t>(64, p.data_size);
    const std::size_t chunk =
        std::max<std::size_t>(64, p.chunk_size ? p.chunk_size : n);
    Rng rng(p.seed);
    std::uint64_t checksum = 0;
    std::size_t done = 0;
    while (done < n) {
        std::size_t len = std::min(chunk, n - done);
        TracedBuffer<std::uint8_t> data(ctx, len);
        for (std::size_t i = 0; i < len; i += 8) {
            std::uint64_t v = rng.next();
            std::memcpy(data.data() + i,
                        &v, std::min<std::size_t>(8, len - i));
        }
        checksum = checksumMix(checksum, kernels::md5Digest(ctx, data));
        done += len;
    }
    return checksum;
}

std::uint64_t
EncryptionMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    const std::size_t words = std::max<std::size_t>(2, p.data_size / 4);
    Rng rng(p.seed);
    TracedBuffer<std::uint32_t> buf(ctx, words);
    for (auto &w : buf.raw())
        w = static_cast<std::uint32_t>(rng.next());
    const std::uint32_t key[4] = {
        static_cast<std::uint32_t>(rng.next()),
        static_cast<std::uint32_t>(rng.next()),
        static_cast<std::uint32_t>(rng.next()),
        static_cast<std::uint32_t>(rng.next())};
    return kernels::xteaEncrypt(ctx, buf, key);
}

// ------------------------------------------------------------ Transform

std::uint64_t
FftMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    std::size_t n = std::bit_floor(
        std::max<std::size_t>(16, p.data_size / 16));
    Rng rng(p.seed);
    TracedBuffer<double> reim(ctx, 2 * n);
    for (auto &v : reim.raw())
        v = rng.nextDouble(-1.0, 1.0);
    // Forward then inverse (round trip, as FFT/IFFT in Fig. 2).
    kernels::fftRadix2(ctx, reim, n, false);
    kernels::fftRadix2(ctx, reim, n, true);
    std::uint64_t checksum = 0;
    for (std::size_t i = 0; i < 2 * n; i += 64)
        checksum = checksumMixF(checksum, reim.rd(i));
    return checksum;
}

std::uint64_t
DctMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    std::size_t n = std::max<std::size_t>(64, p.data_size / 4);
    n -= n % 64;
    Rng rng(p.seed);
    TracedBuffer<float> samples(ctx, n);
    for (auto &v : samples.raw())
        v = static_cast<float>(rng.nextDouble(0.0, 255.0));
    kernels::dct8x8Blocks(ctx, samples);
    std::uint64_t checksum = 0;
    for (std::size_t i = 0; i < n; i += 64)
        checksum = checksumMixF(checksum, samples.rd(i));
    return checksum;
}

// --------------------------------------------------------------- Matrix

std::uint64_t
MatMulMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    // Three square matrices: 3 * d^2 * 4 bytes ~= data_size.
    std::size_t d = 8;
    while ((d + 8) * (d + 8) * 12 <= p.data_size)
        d += 8;
    Rng rng(p.seed);
    TracedBuffer<float> a(ctx, d * d), b(ctx, d * d), c(ctx, d * d);
    for (auto &v : a.raw())
        v = static_cast<float>(rng.nextDouble(-1.0, 1.0));
    for (auto &v : b.raw())
        v = static_cast<float>(rng.nextDouble(-1.0, 1.0));
    kernels::matMul(ctx, a, b, c, d, d, d);
    std::uint64_t checksum = 0;
    for (std::size_t i = 0; i < d * d; i += 17)
        checksum = checksumMixF(checksum, c.rd(i));
    return checksum;
}

namespace {

VectorDataset
motifVectors(const MotifParams &p, std::size_t dim)
{
    const std::size_t n = std::max<std::size_t>(
        4, p.data_size / (dim * sizeof(float)));
    VectorGenerator gen(p.seed);
    return gen.generate(n, dim, p.sparsity);
}

} // namespace

std::uint64_t
EuclideanDistanceMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    constexpr std::size_t kDim = 64;
    constexpr std::size_t kCentroids = 16;
    VectorDataset ds = motifVectors(p, kDim);
    Rng rng(p.seed ^ 0xc3ULL);
    TracedBuffer<float> centroids(ctx, kCentroids * kDim);
    for (auto &v : centroids.raw())
        v = static_cast<float>(rng.nextDouble(-8.0, 8.0));
    TracedBuffer<std::uint32_t> assign(ctx, ds.num_vectors);

    if (p.sparsity <= 0.0) {
        TracedBuffer<float> points(ctx, std::move(ds.dense));
        double sse = kernels::euclideanAssign(ctx, points,
                                              ds.num_vectors, kDim,
                                              centroids, kCentroids,
                                              assign);
        return checksumMixF(assign.rd(0), sse);
    }

    // Sparse input: honour the data pattern -- CSR traversal with
    // per-centroid partial-sum accumulation, like sparse K-means.
    ds.csr_row_offset_va =
        ctx.virtualAlloc(ds.csr_row_offset.size() * 8);
    ds.csr_col_va = ctx.virtualAlloc(ds.csr_col.size() * 4);
    ds.csr_val_va = ctx.virtualAlloc(ds.csr_val.size() * 4);
    std::vector<double> cent_norm(kCentroids, 0.0);
    for (std::size_t c = 0; c < kCentroids; ++c)
        for (std::size_t d = 0; d < kDim; ++d)
            cent_norm[c] += static_cast<double>(
                                centroids.raw()[c * kDim + d]) *
                            centroids.raw()[c * kDim + d];
    std::vector<double> sums(kCentroids * kDim, 0.0);
    VirtualRange sums_va(ctx, sums.size() * 8);
    double sse = 0.0;
    for (std::size_t i = 0; i < ds.num_vectors; ++i) {
        std::uint64_t b = ds.csr_row_offset[i];
        std::uint64_t e = ds.csr_row_offset[i + 1];
        ctx.emitLoadAddr(ds.csr_row_offset_va + i * 8, 16);
        double best = 1e300;
        std::uint32_t best_c = 0;
        for (std::size_t c = 0; c < kCentroids; ++c) {
            double dot = 0.0, pnorm = 0.0;
            for (std::uint64_t k = b; k < e; ++k) {
                ctx.emitLoadAddr(ds.csr_col_va + k * 4, 4);
                ctx.emitLoadAddr(ds.csr_val_va + k * 4, 4);
                float cv = centroids.rd(c * kDim + ds.csr_col[k]);
                dot += static_cast<double>(ds.csr_val[k]) * cv;
                pnorm += static_cast<double>(ds.csr_val[k]) *
                         ds.csr_val[k];
                ctx.emitOps(OpClass::FpMul, 2);
                ctx.emitOps(OpClass::FpAlu, 2);
            }
            double dist = pnorm - 2.0 * dot + cent_norm[c];
            ctx.emitOps(OpClass::FpAlu, 3);
            bool better = dist < best;
            DMPB_BR(ctx, better);
            if (better) {
                best = dist;
                best_c = static_cast<std::uint32_t>(c);
            }
        }
        for (std::uint64_t k = b; k < e; ++k) {
            std::size_t s = best_c * kDim + ds.csr_col[k];
            ctx.emitLoadAddr(sums_va.addr(s), 8);
            sums[s] += ds.csr_val[k];
            ctx.emitStoreAddr(sums_va.addr(s), 8);
            ctx.emitOps(OpClass::FpAlu, 1);
        }
        assign.wr(i, best_c);
        sse += best;
    }
    return checksumMixF(assign.rd(0), sse);
}

std::uint64_t
CosineDistanceMotif::run(TraceContext &ctx, const MotifParams &p) const
{
    constexpr std::size_t kDim = 64;
    VectorDataset ds = motifVectors(p, kDim);
    if (ds.num_vectors < 2)
        return 0;
    TracedBuffer<float> rows(ctx, std::move(ds.dense));
    double sim = kernels::cosineSimilarity(ctx, rows, ds.num_vectors,
                                           kDim);
    return checksumMixF(0, sim);
}

} // namespace dmpb
