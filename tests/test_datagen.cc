/**
 * @file
 * Unit tests for the data generators: gensort records, sparse vectors,
 * scale-free graphs, images, Zipf text.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <cmath>
#include <set>

#include "datagen/gensort.hh"
#include "datagen/graph.hh"
#include "datagen/images.hh"
#include "datagen/text.hh"
#include "datagen/vectors.hh"

namespace dmpb {
namespace {

TEST(Gensort, RecordLayoutIs100Bytes)
{
    EXPECT_EQ(GensortRecord::kRecordBytes, 100u);
    EXPECT_EQ(sizeof(GensortRecord), 100u);
}

TEST(Gensort, DeterministicForSeed)
{
    GensortGenerator a(5), b(5);
    auto ra = a.generate(100), rb = b.generate(100);
    EXPECT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
        EXPECT_TRUE(ra[i] == rb[i]);
}

TEST(Gensort, KeysArePrintableAscii)
{
    GensortGenerator g(1);
    for (const auto &r : g.generate(500)) {
        for (auto c : r.key) {
            EXPECT_GE(c, ' ');
            EXPECT_LE(c, '~');
        }
    }
}

TEST(Gensort, ComparisonMatchesMemcmpOrder)
{
    GensortGenerator g(3);
    auto recs = g.generate(200);
    std::sort(recs.begin(), recs.end());
    for (std::size_t i = 1; i < recs.size(); ++i)
        EXPECT_LE(std::memcmp(recs[i - 1].key.data(), recs[i].key.data(),
                              10), 0);
}

TEST(Gensort, KeyPrefixOrderConsistent)
{
    GensortGenerator g(4);
    auto recs = g.generate(300);
    for (std::size_t i = 0; i + 1 < recs.size(); ++i) {
        if (recs[i].keyPrefix() < recs[i + 1].keyPrefix()) {
            EXPECT_TRUE(recs[i] < recs[i + 1]);
        }
    }
}

TEST(Gensort, SkewedKeysCollide)
{
    GensortGenerator g(6);
    auto recs = g.generateSkewed(2000, 50, 0.9);
    std::set<std::uint64_t> distinct;
    for (const auto &r : recs)
        distinct.insert(r.keyPrefix());
    EXPECT_LE(distinct.size(), 50u);
}

TEST(Vectors, SparsityHonoured)
{
    VectorGenerator g(1);
    auto ds = g.generate(500, 64, 0.9);
    std::size_t zeros = 0;
    for (float v : ds.dense)
        zeros += v == 0.0f;
    double frac = static_cast<double>(zeros) / ds.dense.size();
    EXPECT_NEAR(frac, 0.9, 0.02);
}

TEST(Vectors, DenseHasNoZeros)
{
    VectorGenerator g(2);
    auto ds = g.generate(200, 32, 0.0);
    for (float v : ds.dense)
        EXPECT_NE(v, 0.0f);
}

TEST(Vectors, CsrMatchesDense)
{
    VectorGenerator g(3);
    auto ds = g.generate(100, 16, 0.5);
    ASSERT_EQ(ds.csr_row_offset.size(), 101u);
    for (std::size_t r = 0; r < 100; ++r) {
        // Reconstruct the row from CSR and compare.
        std::vector<float> row(16, 0.0f);
        for (std::uint64_t k = ds.csr_row_offset[r];
             k < ds.csr_row_offset[r + 1]; ++k) {
            row[ds.csr_col[k]] = ds.csr_val[k];
        }
        for (std::size_t d = 0; d < 16; ++d)
            EXPECT_EQ(row[d], ds.dense[r * 16 + d]);
    }
}

TEST(Vectors, NonZeroCountConsistent)
{
    VectorGenerator g(4);
    auto ds = g.generate(300, 24, 0.7);
    std::size_t nz = 0;
    for (float v : ds.dense)
        nz += v != 0.0f;
    EXPECT_EQ(nz, ds.nonZeros());
}

TEST(Graph, EdgeCountNearAverageDegree)
{
    GraphGenerator g(1);
    Graph gr = g.generate(2000, 8.0, 0.6);
    double avg = static_cast<double>(gr.numEdges()) / 2000.0;
    EXPECT_GT(avg, 4.0);
    EXPECT_LT(avg, 16.0);
}

TEST(Graph, OffsetsMonotoneAndTargetsValid)
{
    GraphGenerator g(2);
    Graph gr = g.generate(1000, 6.0, 0.5);
    ASSERT_EQ(gr.out_offset.size(), 1001u);
    for (std::size_t v = 0; v < 1000; ++v)
        EXPECT_LE(gr.out_offset[v], gr.out_offset[v + 1]);
    EXPECT_EQ(gr.out_offset.back(), gr.numEdges());
    for (auto t : gr.out_edges)
        EXPECT_LT(t, 1000u);
}

TEST(Graph, NoSelfLoops)
{
    GraphGenerator g(3);
    Graph gr = g.generate(500, 4.0, 0.4);
    for (std::uint64_t v = 0; v < 500; ++v) {
        for (std::uint64_t e = gr.out_offset[v]; e < gr.out_offset[v + 1];
             ++e) {
            EXPECT_NE(gr.out_edges[e], v);
        }
    }
}

TEST(Graph, InDegreesSumToEdges)
{
    GraphGenerator g(4);
    Graph gr = g.generate(800, 5.0, 0.6);
    auto in = gr.inDegrees();
    std::uint64_t sum = 0;
    for (auto d : in)
        sum += d;
    EXPECT_EQ(sum, gr.numEdges());
}

TEST(Graph, DegreeDistributionIsSkewed)
{
    GraphGenerator g(5);
    Graph gr = g.generate(5000, 8.0, 0.6);
    std::vector<std::uint64_t> degs;
    for (std::uint64_t v = 0; v < 5000; ++v)
        degs.push_back(gr.outDegree(v));
    std::sort(degs.begin(), degs.end());
    // Max degree much larger than the median: heavy tail.
    EXPECT_GT(degs.back(), 4 * degs[2500]);
}

TEST(Images, ShapeAndRange)
{
    ImageGenerator g(1);
    auto b = g.cifar10(4);
    EXPECT_EQ(b.batch, 4u);
    EXPECT_EQ(b.channels, 3u);
    EXPECT_EQ(b.height, 32u);
    EXPECT_EQ(b.width, 32u);
    EXPECT_EQ(b.data.size(), 4u * 3 * 32 * 32);
    for (float v : b.data) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
    for (auto l : b.labels)
        EXPECT_LT(l, 10u);
}

TEST(Images, IlsvrcScaling)
{
    ImageGenerator g(2);
    auto full = g.ilsvrc2012(1, 1.0);
    EXPECT_EQ(full.height, 299u);
    auto scaled = g.ilsvrc2012(1, 0.25);
    EXPECT_EQ(scaled.height, 74u);
    for (auto l : scaled.labels)
        EXPECT_LT(l, 1000u);
}

TEST(Images, NhwcLayoutSizesMatch)
{
    ImageGenerator g(3);
    auto b = g.generate(2, 3, 8, 8, 10, DataLayout::NHWC);
    EXPECT_EQ(b.data.size(), 2u * 3 * 8 * 8);
    EXPECT_EQ(b.layout, DataLayout::NHWC);
}

TEST(Images, SpatialSmoothness)
{
    // Natural-image proxy: neighbouring pixels correlate more than
    // random pixels would.
    ImageGenerator g(4);
    auto b = g.generate(1, 1, 64, 64, 10);
    double neighbour_diff = 0.0;
    int count = 0;
    for (std::size_t y = 0; y < 64; ++y) {
        for (std::size_t x = 0; x + 1 < 64; ++x) {
            neighbour_diff += std::abs(b.data[y * 64 + x] -
                                       b.data[y * 64 + x + 1]);
            ++count;
        }
    }
    EXPECT_LT(neighbour_diff / count, 0.15);
}

TEST(Text, TokensWithinVocab)
{
    TextGenerator g(1);
    auto toks = g.generateTokens(10000, 500, 0.8);
    for (auto t : toks)
        EXPECT_LT(t, 500u);
}

TEST(Text, FrequencySkewed)
{
    TextGenerator g(2);
    auto toks = g.generateTokens(50000, 1000, 0.9);
    std::vector<std::uint64_t> freq(1000, 0);
    for (auto t : toks)
        ++freq[t];
    std::sort(freq.rbegin(), freq.rend());
    // Top-10 words should dominate relative to uniform (50 each).
    EXPECT_GT(freq[0], 1000u);
}

TEST(Text, IdSetsSortedUniqueExactSize)
{
    TextGenerator g(3);
    auto ids = g.generateIdSet(1000, 100000);
    EXPECT_EQ(ids.size(), 1000u);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    for (auto v : ids)
        EXPECT_LT(v, 100000u);
}

TEST(Text, TokenWordRoundTripDistinct)
{
    std::set<std::string> words;
    for (std::uint32_t i = 0; i < 1000; ++i)
        words.insert(TextGenerator::tokenWord(i));
    EXPECT_EQ(words.size(), 1000u);
}

} // namespace
} // namespace dmpb
