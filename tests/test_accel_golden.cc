/**
 * @file
 * Golden-profile regression suite for the accelerator cluster: pinned
 * quick-scale fingerprints of the AI workloads (plus NaiveBayes, whose
 * matMul also runs on the array) measured on accelCluster3.
 *
 * The fingerprint extends the CPU golden serialization with the
 * accel_macs / accel_cycles counters, so any drift in the systolic
 * tiling, DMA burst shaping, or array-cycle accounting fails here with
 * a diff-ready table. The engine knobs (--sim-shards, --sim-batch)
 * remain pure wall-clock controls on the accelerator path too: every
 * combination must fingerprint bit-identically.
 *
 * Intentional model changes update the pinned table: run the suite
 * and copy the regeneration block it prints on mismatch.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "base/names.hh"
#include "sim/metrics.hh"
#include "workloads/registry.hh"

namespace dmpb {
namespace {

/** The pinned quick-scale fingerprints (accelCluster3). */
struct GoldenCase
{
    const char *name;
    std::uint64_t fingerprint;
};

constexpr GoldenCase kGolden[] = {
    {"AlexNet", 0xeed31c7425f3197bULL},
    {"Inception-V3", 0xee93c87d47c7e825ULL},
    {"NaiveBayes", 0x289730e09f95ac57ULL},
};

void
appendU64(std::string &s, std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu|",
                  static_cast<unsigned long long>(v));
    s += buf;
}

void
appendF(std::string &s, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g|", v);
    s += buf;
}

void
appendCache(std::string &s, const CacheStats &c)
{
    appendU64(s, c.accesses);
    appendU64(s, c.misses);
    appendU64(s, c.writebacks);
}

/** CPU golden serialization + the accelerator counters, hashed. */
std::uint64_t
fingerprint(const WorkloadResult &r)
{
    std::string s;
    s.reserve(1024);
    for (std::uint64_t ops : r.profile.ops)
        appendU64(s, ops);
    appendCache(s, r.profile.l1i);
    appendCache(s, r.profile.l1d);
    appendCache(s, r.profile.l2);
    appendCache(s, r.profile.l3);
    appendU64(s, r.profile.branch.branches);
    appendU64(s, r.profile.branch.mispredicts);
    appendU64(s, r.profile.disk_read_bytes);
    appendU64(s, r.profile.disk_write_bytes);
    appendU64(s, r.profile.net_bytes);
    appendU64(s, r.profile.accel_macs);
    appendU64(s, r.profile.accel_cycles);
    appendF(s, r.runtime_s);
    for (std::size_t i = 0; i < kNumMetrics; ++i)
        appendF(s, r.metrics[static_cast<Metric>(i)]);
    return fnv1a64(s);
}

struct Measured
{
    std::string name;
    std::uint64_t accel_macs;
    /** shards {1,4} x batch {auto, 1 = unbatched}; canonical combo
     *  first. */
    std::uint64_t fp[4];
};

Measured
measure(const std::string &name)
{
    Measured m;
    m.name = name;
    struct Combo
    {
        std::size_t shards;
        std::size_t batch;
    };
    const Combo combos[4] = {{1, 0}, {1, 1}, {4, 0}, {4, 1}};
    for (std::size_t slot = 0; slot < 4; ++slot) {
        WorkloadSpec spec;
        spec.name = name;
        spec.scale = Scale::Quick;
        auto workload = WorkloadRegistry::instance().make(spec);
        ClusterConfig cluster = accelCluster3();
        cluster.sim.shards = combos[slot].shards;
        cluster.sim.batch_capacity = combos[slot].batch;
        WorkloadResult r = workload->run(cluster);
        if (slot == 0)
            m.accel_macs = r.profile.accel_macs;
        m.fp[slot] = fingerprint(r);
    }
    return m;
}

/** Measurements computed once per test binary. */
const std::vector<Measured> &
allMeasured()
{
    static const std::vector<Measured> measured = [] {
        std::vector<Measured> out;
        for (const GoldenCase &g : kGolden)
            out.push_back(measure(g.name));
        return out;
    }();
    return measured;
}

/** The regeneration block printed on any mismatch. */
std::string
goldenTable()
{
    std::string s = "accel golden fingerprint table (paste into "
                    "tests/test_accel_golden.cc):\n";
    for (const Measured &m : allMeasured()) {
        char line[128];
        std::snprintf(line, sizeof(line), "    {\"%s\", 0x%016llxULL},\n",
                      m.name.c_str(),
                      static_cast<unsigned long long>(m.fp[0]));
        s += line;
    }
    return s;
}

TEST(AccelGolden, EveryAiWorkloadRunsOnTheArray)
{
    // A zero MAC count would mean the dispatch silently fell back to
    // the CPU path and the "accelerator" rows measure nothing.
    for (const Measured &m : allMeasured())
        EXPECT_GT(m.accel_macs, 0u) << m.name;
}

TEST(AccelGolden, FingerprintsBitIdenticalAcrossEngineKnobs)
{
    for (const Measured &m : allMeasured()) {
        for (std::size_t i = 1; i < 4; ++i) {
            EXPECT_EQ(m.fp[0], m.fp[i])
                << m.name << ": shards/batch combination " << i
                << " diverged from the serial batched path";
        }
    }
}

TEST(AccelGolden, QuickScaleFingerprintsMatchPinnedGolden)
{
    const auto &measured = allMeasured();
    ASSERT_EQ(measured.size(), std::size(kGolden));
    bool all_ok = true;
    for (std::size_t i = 0; i < measured.size(); ++i) {
        EXPECT_EQ(measured[i].name, kGolden[i].name);
        if (measured[i].fp[0] != kGolden[i].fingerprint)
            all_ok = false;
        EXPECT_EQ(measured[i].fp[0], kGolden[i].fingerprint)
            << measured[i].name
            << ": accelerator quick-scale profile drifted";
    }
    if (!all_ok)
        ADD_FAILURE() << goldenTable();
}

} // namespace
} // namespace dmpb
