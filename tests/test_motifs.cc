/**
 * @file
 * Tests for the motif layer: registry completeness (Fig. 2 coverage),
 * determinism, parameter sensitivity, and per-class behaviour
 * signatures (instruction mix and memory patterns).
 */

#include <gtest/gtest.h>

#include <set>

#include "base/units.hh"
#include "motifs/motif.hh"
#include "sim/machine.hh"
#include "sim/metrics.hh"

namespace dmpb {
namespace {

MotifParams
smallParams()
{
    MotifParams p;
    p.data_size = 64 * kKiB;
    p.chunk_size = 16 * kKiB;
    p.batch_size = 2;
    p.height = 12;
    p.width = 12;
    p.channels = 4;
    p.filters = 6;
    return p;
}

TEST(MotifRegistry, CoversFigureTwo)
{
    // Big-data implementations named in Fig. 2.
    const char *bd[] = {
        "quick_sort", "merge_sort", "random_sampling",
        "interval_sampling", "graph_construct", "graph_traverse",
        "set_union", "set_intersection", "set_difference",
        "count_avg_stats", "probability_stats", "min_max", "md5_hash",
        "encryption", "fft", "dct", "matrix_multiply",
        "euclidean_distance", "cosine_distance"};
    // AI implementations named in Fig. 2.
    const char *ai[] = {
        "fully_connected", "element_mul", "sigmoid", "tanh", "softmax",
        "max_pool", "avg_pool", "convolution", "dropout", "batch_norm",
        "cosine_norm", "reduce_sum", "reduce_max", "relu"};
    for (const char *n : bd) {
        const Motif *m = findMotif(n);
        ASSERT_NE(m, nullptr) << n;
        EXPECT_FALSE(m->isAi()) << n;
    }
    for (const char *n : ai) {
        const Motif *m = findMotif(n);
        ASSERT_NE(m, nullptr) << n;
        EXPECT_TRUE(m->isAi()) << n;
    }
    EXPECT_EQ(motifRegistry().size(), std::size(bd) + std::size(ai));
}

TEST(MotifRegistry, AllEightClassesPresent)
{
    std::set<MotifClass> classes;
    for (const Motif *m : motifRegistry())
        classes.insert(m->motifClass());
    EXPECT_EQ(classes.size(),
              static_cast<std::size_t>(MotifClass::NumClasses));
}

TEST(MotifRegistry, NamesUnique)
{
    std::set<std::string> names;
    for (const Motif *m : motifRegistry())
        EXPECT_TRUE(names.insert(m->name()).second) << m->name();
}

TEST(MotifRegistry, ProjectionKeepsOnlyDeclaredReads)
{
    MotifParams p;
    p.seed = 1234;
    MotifParams bd = projectParams(p, kBigDataReads);
    EXPECT_EQ(bd.seed, 1234u);
    EXPECT_EQ(bd.data_size, p.data_size);
    EXPECT_EQ(bd.chunk_size, 0u);
    EXPECT_EQ(bd.num_tasks, 0u);
    EXPECT_EQ(bd.batch_size, 0u);
    MotifParams ai = projectParams(p, kAiReads);
    EXPECT_EQ(ai.data_size, 0u);
    EXPECT_EQ(ai.chunk_size, 0u);
    EXPECT_EQ(ai.num_tasks, 0u);
    EXPECT_EQ(ai.batch_size, p.batch_size);
    EXPECT_EQ(ai.channels, p.channels);
    // Exactly the sort and MD5 motifs read chunk_size; no motif reads
    // num_tasks.
    std::set<std::string> chunk_readers;
    for (const Motif *m : motifRegistry()) {
        if (m->paramReads() & kReadsChunkSize)
            chunk_readers.insert(m->name());
        EXPECT_EQ(m->isAi(), (m->paramReads() & kReadsTensorShape) != 0)
            << m->name();
    }
    EXPECT_EQ(chunk_readers, (std::set<std::string>{
                                 "md5_hash", "merge_sort", "quick_sort"}));
}

TEST(MotifRegistry, UnknownNameReturnsNull)
{
    EXPECT_EQ(findMotif("not_a_motif"), nullptr);
}

class EveryMotif : public ::testing::TestWithParam<const Motif *>
{
};

TEST_P(EveryMotif, RunsAndEmitsWork)
{
    const Motif *m = GetParam();
    MachineConfig mach = westmereE5645();
    TraceContext ctx(mach);
    MotifParams p = smallParams();
    m->run(ctx, p);
    KernelProfile prof = ctx.profile();
    EXPECT_GT(prof.instructions(), 1000u) << m->name();
    EXPECT_GT(prof.l1d.accesses, 0u) << m->name();
}

TEST_P(EveryMotif, DeterministicForSameSeed)
{
    const Motif *m = GetParam();
    MachineConfig mach = westmereE5645();
    MotifParams p = smallParams();
    TraceContext c1(mach), c2(mach);
    std::uint64_t r1 = m->run(c1, p);
    std::uint64_t r2 = m->run(c2, p);
    EXPECT_EQ(r1, r2) << m->name();
    EXPECT_EQ(c1.profile().instructions(), c2.profile().instructions())
        << m->name();
}

TEST_P(EveryMotif, SeedChangesData)
{
    const Motif *m = GetParam();
    MachineConfig mach = westmereE5645();
    MotifParams p = smallParams();
    TraceContext c1(mach), c2(mach);
    std::uint64_t r1 = m->run(c1, p);
    p.seed ^= 0xdeadbeefULL;
    std::uint64_t r2 = m->run(c2, p);
    // Different data, different checksum (collision chance ~2^-64).
    EXPECT_NE(r1, r2) << m->name();
}

TEST_P(EveryMotif, RunsIdenticallyOnItsParameterProjection)
{
    // The edge-trace memo keys on projectParams(): a motif that read a
    // field outside its declared paramReads() would diverge here.
    const Motif *m = GetParam();
    MachineConfig mach = westmereE5645();
    MotifParams p = smallParams();
    p.num_tasks = 7;
    p.total_size = 5;
    p.kernel = 5;
    p.stride = 2;
    p.layout = DataLayout::NHWC;
    p.weight = 0.3;
    p.sparsity = 0.4;
    TraceContext full(mach), projected(mach);
    std::uint64_t r1 = m->run(full, p);
    std::uint64_t r2 = m->run(projected, projectParams(p, m->paramReads()));
    EXPECT_EQ(r1, r2) << m->name();
    const KernelProfile a = full.profile();
    const KernelProfile b = projected.profile();
    EXPECT_EQ(a.instructions(), b.instructions()) << m->name();
    EXPECT_EQ(a.l1d.accesses, b.l1d.accesses) << m->name();
    EXPECT_EQ(a.l1d.misses, b.l1d.misses) << m->name();
    EXPECT_EQ(a.l2.misses, b.l2.misses) << m->name();
    EXPECT_EQ(a.branch.mispredicts, b.branch.mispredicts) << m->name();
}

INSTANTIATE_TEST_SUITE_P(
    All, EveryMotif, ::testing::ValuesIn(motifRegistry()),
    [](const ::testing::TestParamInfo<const Motif *> &info) {
        return info.param->name();
    });

TEST(MotifBehaviour, SortIsIntegerAndBranchHeavy)
{
    MachineConfig mach = westmereE5645();
    TraceContext ctx(mach);
    findMotif("quick_sort")->run(ctx, smallParams());
    MetricVector v = computeMetrics(ctx.profile(), mach.core, 1.0);
    EXPECT_LT(v[Metric::RatioFp], 0.02);
    EXPECT_GT(v[Metric::RatioBranch], 0.08);
}

TEST(MotifBehaviour, ConvolutionIsFpHeavy)
{
    MachineConfig mach = westmereE5645();
    TraceContext ctx(mach);
    findMotif("convolution")->run(ctx, smallParams());
    MetricVector v = computeMetrics(ctx.profile(), mach.core, 1.0);
    EXPECT_GT(v[Metric::RatioFp], 0.25);
}

TEST(MotifBehaviour, GraphTraversalMissesMoreThanScan)
{
    MachineConfig mach = westmereE5645();
    MotifParams p;
    p.data_size = 2 * kMiB;
    TraceContext scan_ctx(mach), graph_ctx(mach);
    findMotif("min_max")->run(scan_ctx, p);
    findMotif("graph_traverse")->run(graph_ctx, p);
    // Irregular pointer chasing should have worse L1D behaviour than
    // a sequential scan.
    EXPECT_LT(graph_ctx.profile().l1d.hitRatio(),
              scan_ctx.profile().l1d.hitRatio());
}

TEST(MotifBehaviour, LargerDataLowersCacheHitRatio)
{
    MachineConfig mach = westmereE5645();
    MotifParams small = smallParams();
    small.data_size = 32 * kKiB;
    small.chunk_size = 32 * kKiB;
    MotifParams big = smallParams();
    big.data_size = 8 * kMiB;
    big.chunk_size = 8 * kMiB;
    TraceContext cs(mach), cb(mach);
    findMotif("merge_sort")->run(cs, small);
    findMotif("merge_sort")->run(cb, big);
    EXPECT_GT(cs.profile().l1d.hitRatio() + 1e-9,
              cb.profile().l1d.hitRatio());
}

TEST(MotifBehaviour, WeightFieldDoesNotAffectSingleRun)
{
    // weight is a DAG-combination knob, not a kernel parameter.
    MachineConfig mach = westmereE5645();
    MotifParams a = smallParams(), b = smallParams();
    b.weight = 0.25;
    TraceContext ca(mach), cb(mach);
    std::uint64_t ra = findMotif("fft")->run(ca, a);
    std::uint64_t rb = findMotif("fft")->run(cb, b);
    EXPECT_EQ(ra, rb);
}

TEST(MotifBehaviour, TotalSizeScalesAiIterations)
{
    MachineConfig mach = westmereE5645();
    MotifParams one = smallParams();
    MotifParams four = smallParams();
    four.total_size = 4 * four.batch_size;
    TraceContext c1(mach), c4(mach);
    findMotif("relu")->run(c1, one);
    findMotif("relu")->run(c4, four);
    double ratio =
        static_cast<double>(c4.profile().instructions()) /
        static_cast<double>(c1.profile().instructions());
    EXPECT_NEAR(ratio, 4.0, 0.2);
}

TEST(MotifBehaviour, SparsityAffectsDistanceMotifData)
{
    MachineConfig mach = westmereE5645();
    MotifParams dense = smallParams();
    dense.sparsity = 0.0;
    MotifParams sparse = smallParams();
    sparse.sparsity = 0.9;
    TraceContext cd(mach), cs(mach);
    std::uint64_t rd = findMotif("euclidean_distance")->run(cd, dense);
    std::uint64_t rs = findMotif("euclidean_distance")->run(cs, sparse);
    EXPECT_NE(rd, rs);
}

TEST(MotifBehaviour, Md5IsPureInteger)
{
    MachineConfig mach = westmereE5645();
    TraceContext ctx(mach);
    findMotif("md5_hash")->run(ctx, smallParams());
    KernelProfile p = ctx.profile();
    EXPECT_EQ(p.ops[static_cast<std::size_t>(OpClass::FpAlu)], 0u);
    EXPECT_EQ(p.ops[static_cast<std::size_t>(OpClass::FpMul)], 0u);
}

} // namespace
} // namespace dmpb
