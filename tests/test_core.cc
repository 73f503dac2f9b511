/**
 * @file
 * Tests for the paper's core contribution: the decision tree, the
 * proxy-benchmark DAG and parameter vector, the decomposer, the
 * auto-tuner and the parameter cache. Includes the end-to-end
 * integration test of the Section II pipeline at small scale.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "core/auto_tuner.hh"
#include "core/decision_tree.hh"
#include "core/proxy_benchmark.hh"
#include "core/proxy_cache.hh"
#include "core/proxy_factory.hh"
#include "workloads/workload.hh"

namespace dmpb {
namespace {

// ------------------------------------------------------- DecisionTree

TEST(DecisionTree, FitsStepFunction)
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 100; ++i) {
        double v = i / 100.0;
        x.push_back({v});
        y.push_back(v < 0.5 ? 1.0 : 5.0);
    }
    DecisionTree tree;
    tree.fit(x, y);
    EXPECT_NEAR(tree.predict({0.2}), 1.0, 1e-9);
    EXPECT_NEAR(tree.predict({0.8}), 5.0, 1e-9);
}

TEST(DecisionTree, PicksInformativeFeature)
{
    // Target depends on feature 1 only; feature 0 is noise.
    Rng rng(3);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 200; ++i) {
        double noise = rng.nextDouble();
        double signal = rng.nextDouble();
        x.push_back({noise, signal});
        y.push_back(signal > 0.5 ? 10.0 : -10.0);
    }
    DecisionTree tree;
    tree.fit(x, y);
    auto imp = tree.featureImportance();
    EXPECT_GT(imp[1], 10.0 * std::max(imp[0], 1e-12));
}

TEST(DecisionTree, ConstantTargetSingleLeaf)
{
    std::vector<std::vector<double>> x{{0.1}, {0.5}, {0.9}};
    std::vector<double> y{2.0, 2.0, 2.0};
    DecisionTree tree;
    tree.fit(x, y);
    EXPECT_EQ(tree.nodeCount(), 1u);
    EXPECT_DOUBLE_EQ(tree.predict({0.3}), 2.0);
}

TEST(DecisionTree, RespectsMaxDepth)
{
    Rng rng(5);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 500; ++i) {
        double v = rng.nextDouble();
        x.push_back({v});
        y.push_back(v);  // continuous target forces deep growth
    }
    DecisionTree::Config cfg;
    cfg.max_depth = 3;
    DecisionTree tree(cfg);
    tree.fit(x, y);
    // Depth-3 binary tree has at most 2^4 - 1 nodes.
    EXPECT_LE(tree.nodeCount(), 15u);
}

TEST(DecisionTree, ReducesRegressionErrorVsMean)
{
    Rng rng(7);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 300; ++i) {
        double a = rng.nextDouble(), b = rng.nextDouble();
        x.push_back({a, b});
        y.push_back(3.0 * a - 2.0 * b);
    }
    DecisionTree tree;
    tree.fit(x, y);
    double mean_y = 0;
    for (double v : y)
        mean_y += v;
    mean_y /= y.size();
    double sse_tree = 0, sse_mean = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sse_tree += (tree.predict(x[i]) - y[i]) * (tree.predict(x[i]) -
                                                   y[i]);
        sse_mean += (mean_y - y[i]) * (mean_y - y[i]);
    }
    EXPECT_LT(sse_tree, 0.25 * sse_mean);
}

// ----------------------------------------------------- ProxyBenchmark

ProxyBenchmark
tinyProxy()
{
    MotifParams base;
    base.data_size = 4 * kMiB;
    base.chunk_size = 256 * kKiB;
    base.num_tasks = 4;
    ProxyBenchmark proxy("tiny", base);
    proxy.addEdge("quick_sort", 0.5);
    proxy.addEdge("min_max", 0.3);
    proxy.addEdge("md5_hash", 0.2);
    return proxy;
}

TEST(ProxyBenchmark, ExecutesAndProducesMetrics)
{
    ProxyBenchmark proxy = tinyProxy();
    ProxyResult r = proxy.execute(westmereE5645(), 256 * kKiB);
    EXPECT_GT(r.runtime_s, 0.0);
    EXPECT_GT(r.profile.instructions(), 100000u);
    EXPECT_GT(r.metrics[Metric::Ipc], 0.0);
    EXPECT_NE(r.checksum, 0u);
}

TEST(ProxyBenchmark, DeterministicExecution)
{
    ProxyBenchmark proxy = tinyProxy();
    ProxyResult a = proxy.execute(westmereE5645(), 256 * kKiB);
    ProxyResult b = proxy.execute(westmereE5645(), 256 * kKiB);
    // Computation and op stream are exactly reproducible; cache
    // ratios carry a <0.1% wobble because traced buffers live at
    // real (allocator-dependent) heap addresses.
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.profile.instructions(), b.profile.instructions());
    EXPECT_NEAR(a.runtime_s, b.runtime_s, 0.01 * a.runtime_s);
    EXPECT_NEAR(a.metrics[Metric::L1dHit], b.metrics[Metric::L1dHit],
                0.002);
}

TEST(ProxyBenchmark, WeightScalesContribution)
{
    ProxyBenchmark proxy = tinyProxy();
    ProxyResult base = proxy.execute(westmereE5645(), 256 * kKiB);
    proxy.setParameter("weight:2:md5_hash", 0.6);
    ProxyResult more = proxy.execute(westmereE5645(), 256 * kKiB);
    // md5 contributes integer ops; tripling its weight raises the
    // integer share of the mix.
    EXPECT_GT(more.metrics[Metric::RatioInt],
              base.metrics[Metric::RatioInt]);
}

TEST(ProxyBenchmark, ParameterRoundTrip)
{
    ProxyBenchmark proxy = tinyProxy();
    proxy.setParameter("data_size", 8.0 * kMiB);
    EXPECT_DOUBLE_EQ(proxy.parameter("data_size"), 8.0 * kMiB);
    proxy.setParameter("num_tasks", 7.4);
    EXPECT_DOUBLE_EQ(proxy.parameter("num_tasks"), 7.0);  // integer
    proxy.setParameter("gc_intensity", 3.5);
    EXPECT_DOUBLE_EQ(proxy.parameter("gc_intensity"), 3.5);
}

TEST(ProxyBenchmark, ParameterListStructure)
{
    ProxyBenchmark proxy = tinyProxy();
    auto params = proxy.parameters();
    // data, chunk, tasks, gc + 3 weights (no AI shapes: no AI motif).
    EXPECT_EQ(params.size(), 7u);
    for (const auto &p : params) {
        EXPECT_LT(p.lo, p.hi) << p.name;
        EXPECT_GE(p.value, p.lo) << p.name;
        EXPECT_LE(p.value, p.hi) << p.name;
    }
}

TEST(ProxyBenchmark, AiProxyExposesShapeParameters)
{
    MotifParams base;
    ProxyBenchmark proxy("ai", base);
    proxy.addEdge("convolution", 0.6);
    proxy.addEdge("relu", 0.4);
    EXPECT_TRUE(proxy.hasAiMotifs());
    bool has_batch = false;
    for (const auto &p : proxy.parameters())
        has_batch = has_batch || p.name == "batch_size";
    EXPECT_TRUE(has_batch);
}

TEST(ProxyBenchmark, NormalizeWeights)
{
    ProxyBenchmark proxy = tinyProxy();
    proxy.normalizeWeights();
    double sum = 0;
    for (const auto &e : proxy.edges())
        sum += e.weight;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ProxyBenchmark, GcIntensityRaisesIpc)
{
    // The management module is L1-resident and predictable; adding it
    // raises IPC, as the heavy stack does for the real workloads.
    ProxyBenchmark proxy = tinyProxy();
    proxy.setGcIntensity(0.0);
    ProxyResult none = proxy.execute(westmereE5645(), 256 * kKiB);
    proxy.setGcIntensity(12.0);
    ProxyResult heavy = proxy.execute(westmereE5645(), 256 * kKiB);
    EXPECT_GT(heavy.metrics[Metric::Ipc], none.metrics[Metric::Ipc]);
}

// ---------------------------------------------------- Edge-trace memo

/** Every field a ProxyResult carries, compared bit for bit. */
void
expectSameResult(const ProxyResult &a, const ProxyResult &b)
{
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.runtime_s, b.runtime_s);
    EXPECT_EQ(a.profile.instructions(), b.profile.instructions());
    EXPECT_EQ(a.profile.l1d.misses, b.profile.l1d.misses);
    EXPECT_EQ(a.profile.l2.misses, b.profile.l2.misses);
    EXPECT_EQ(a.profile.l3.misses, b.profile.l3.misses);
    EXPECT_EQ(a.profile.branch.mispredicts, b.profile.branch.mispredicts);
    EXPECT_EQ(a.profile.disk_read_bytes, b.profile.disk_read_bytes);
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
        const Metric m = static_cast<Metric>(i);
        EXPECT_EQ(a.metrics[m], b.metrics[m]) << metricName(m);
    }
}

/** A proxy over @p motifs tracing into its own, inspectable memo.
 *  The 256 KiB trace cap keeps every per-task working set at the cap
 *  (so heap size is fixed) for the data sizes used below. */
ProxyBenchmark
memoProxy(const std::vector<std::string> &motifs,
          std::shared_ptr<EdgeTraceMemo> memo)
{
    MotifParams base;
    base.data_size = 64 * kMiB;
    base.chunk_size = 64 * kKiB;
    base.num_tasks = 12;  // = westmereE5645().totalCores()
    base.batch_size = 2;
    base.height = 12;
    base.width = 12;
    base.channels = 4;
    base.filters = 6;
    ProxyBenchmark proxy("memo", base);
    for (const std::string &m : motifs)
        proxy.addEdge(m, 1.0 / static_cast<double>(motifs.size()));
    proxy.setTraceMemo(std::move(memo));
    return proxy;
}

constexpr std::uint64_t kMemoTraceCap = 256 * kKiB;

/** @p proxy executed by a copy with a fresh memo of its own. */
ProxyResult
executeUnmemoized(const ProxyBenchmark &proxy)
{
    ProxyBenchmark fresh = proxy;
    fresh.setTraceMemo(
        std::make_shared<EdgeTraceMemo>(kEdgeTraceMemoEntries));
    return fresh.execute(westmereE5645(), kMemoTraceCap);
}

TEST(TraceMemo, AiProxyHitsOnBigDataParameterMoves)
{
    auto memo = std::make_shared<EdgeTraceMemo>(kEdgeTraceMemoEntries);
    ProxyBenchmark proxy = memoProxy({"convolution", "relu"}, memo);
    proxy.execute(westmereE5645(), kMemoTraceCap);
    EXPECT_EQ(memo->stats().misses, 2u);

    // No AI motif reads data_size, chunk_size or num_tasks; the task
    // count stays at or above the core count, so the LLC sharers and
    // the traced working set do not move either.
    proxy.setParameter("data_size", 96.0 * kMiB);
    proxy.setParameter("chunk_size", 512.0 * kKiB);
    proxy.setParameter("num_tasks", 16.0);
    ProxyResult memoized = proxy.execute(westmereE5645(), kMemoTraceCap);
    EXPECT_EQ(memo->stats().misses, 2u);
    EXPECT_EQ(memo->stats().hits, 2u);
    expectSameResult(memoized, executeUnmemoized(proxy));
}

TEST(TraceMemo, ChunkSizeMovesMissOnlyForMotifsThatReadIt)
{
    auto stats_memo = std::make_shared<EdgeTraceMemo>(kEdgeTraceMemoEntries);
    auto sort_memo = std::make_shared<EdgeTraceMemo>(kEdgeTraceMemoEntries);
    ProxyBenchmark stats = memoProxy({"count_avg_stats"}, stats_memo);
    ProxyBenchmark sort = memoProxy({"quick_sort"}, sort_memo);
    for (ProxyBenchmark *proxy : {&stats, &sort}) {
        proxy->execute(westmereE5645(), kMemoTraceCap);
        // Below the traced working set, so the clamp keeps the move.
        proxy->setParameter("chunk_size", 128.0 * kKiB);
    }
    ProxyResult stats_moved = stats.execute(westmereE5645(), kMemoTraceCap);
    ProxyResult sort_moved = sort.execute(westmereE5645(), kMemoTraceCap);
    EXPECT_EQ(stats_memo->stats().hits, 1u);
    EXPECT_EQ(stats_memo->stats().misses, 1u);
    EXPECT_EQ(sort_memo->stats().hits, 0u);
    EXPECT_EQ(sort_memo->stats().misses, 2u);
    expectSameResult(stats_moved, executeUnmemoized(stats));
    expectSameResult(sort_moved, executeUnmemoized(sort));
}

TEST(TraceMemo, TensorShapeMovesMissOnlyForAiMotifs)
{
    auto memo = std::make_shared<EdgeTraceMemo>(kEdgeTraceMemoEntries);
    ProxyBenchmark conv = memoProxy({"convolution"}, memo);
    ProxyBenchmark sort = memoProxy({"quick_sort"}, memo);
    conv.execute(westmereE5645(), kMemoTraceCap);
    sort.execute(westmereE5645(), kMemoTraceCap);
    EXPECT_EQ(memo->stats().misses, 2u);

    conv.setParameter("batch_size", 3.0);
    sort.baseParams().batch_size = 3;
    conv.execute(westmereE5645(), kMemoTraceCap);
    EXPECT_EQ(memo->stats().misses, 3u);
    ProxyResult sort_moved = sort.execute(westmereE5645(), kMemoTraceCap);
    EXPECT_EQ(memo->stats().misses, 3u);
    EXPECT_EQ(memo->stats().hits, 1u);
    expectSameResult(sort_moved, executeUnmemoized(sort));
}

// --------------------------------------------------------- Decomposer

TEST(Decomposer, BuildsProxyFromTableThree)
{
    auto w = makeTeraSort();
    ProxyBenchmark proxy = decomposeWorkload(*w);
    EXPECT_EQ(proxy.name(), "Proxy TeraSort");
    EXPECT_EQ(proxy.edges().size(), w->motifWeights().size());
    double sum = 0;
    for (const auto &e : proxy.edges())
        sum += e.weight;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_EQ(proxy.baseParams().data_size, w->proxyDataBytes());
}

TEST(Decomposer, KMeansProxyKeepsSparsity)
{
    auto w = makeKMeans(1ULL << 30, 0.9);
    ProxyBenchmark proxy = decomposeWorkload(*w);
    EXPECT_DOUBLE_EQ(proxy.baseParams().sparsity, 0.9);
}

// ---------------------------------------------------------- AutoTuner

TEST(Tuner, MetricDeviationFloorsProtectTinyReferences)
{
    // A 0.1% vs 1.1% store-ratio difference is one percentage point,
    // not a 10x relative error.
    double d = metricDeviation(Metric::RatioStore, 0.001, 0.011);
    EXPECT_LT(d, 0.55);
    EXPECT_DOUBLE_EQ(metricDeviation(Metric::Ipc, 1.0, 1.0), 0.0);
}

TEST(Tuner, ImprovesAccuracyOverInitialWeights)
{
    // Small end-to-end run of the Section II pipeline.
    auto w = makeTeraSort(2ULL << 30);
    WorkloadResult real = w->run(paperCluster5());

    ProxyBenchmark untouched = decomposeWorkload(*w);
    ProxyResult before = untouched.execute(westmereE5645(),
                                           512 * kKiB);
    double acc_before = averageAccuracy(real.metrics, before.metrics);

    ProxyBenchmark tuned = decomposeWorkload(*w);
    TunerConfig cfg;
    cfg.max_iterations = 10;
    cfg.impact_samples = 2;
    cfg.trace_cap = 512 * kKiB;
    AutoTuner tuner(real.metrics, cfg);
    TunerReport rep = tuner.tune(tuned, westmereE5645());

    EXPECT_GE(rep.avg_accuracy, acc_before - 0.02);
    EXPECT_GT(rep.evaluations, 10u);
    EXPECT_FALSE(rep.metric_accuracy.empty());
}

TEST(Tuner, ReportsParameterImportance)
{
    auto w = makeTeraSort(2ULL << 30);
    WorkloadResult real = w->run(paperCluster5());
    ProxyBenchmark proxy = decomposeWorkload(*w);
    TunerConfig cfg;
    cfg.max_iterations = 4;
    cfg.trace_cap = 256 * kKiB;
    AutoTuner tuner(real.metrics, cfg);
    tuner.tune(proxy, westmereE5645());
    auto imp = tuner.parameterImportance();
    EXPECT_EQ(imp.size(), proxy.parameters().size());
    // Sorted descending.
    for (std::size_t i = 1; i < imp.size(); ++i)
        EXPECT_GE(imp[i - 1].second, imp[i].second);
}

// -------------------------------------------------------- ProxyCache

TEST(ProxyCache, SaveLoadRoundTrip)
{
    std::string dir = "test-cache-dir";
    ProxyBenchmark a = tinyProxy();
    a.setParameter("data_size", 12.0 * kMiB);
    a.setParameter("weight:0:quick_sort", 0.77);
    ASSERT_TRUE(saveProxyParams(dir, "roundtrip", a));

    ProxyBenchmark b = tinyProxy();
    ASSERT_TRUE(loadProxyParams(dir, "roundtrip", b));
    EXPECT_DOUBLE_EQ(b.parameter("data_size"), 12.0 * kMiB);
    EXPECT_DOUBLE_EQ(b.parameter("weight:0:quick_sort"), 0.77);
    std::filesystem::remove_all(dir);
}

TEST(ProxyCache, MissingKeyFails)
{
    ProxyBenchmark p = tinyProxy();
    EXPECT_FALSE(loadProxyParams("test-cache-dir-missing", "nope", p));
}

TEST(ProxyCache, IncompatibleStructureRejected)
{
    std::string dir = "test-cache-dir2";
    ProxyBenchmark a = tinyProxy();
    ASSERT_TRUE(saveProxyParams(dir, "structural", a));
    // A proxy with different edges must refuse the cached vector.
    MotifParams base;
    ProxyBenchmark other("other", base);
    other.addEdge("fft", 1.0);
    EXPECT_FALSE(loadProxyParams(dir, "structural", other));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace dmpb
