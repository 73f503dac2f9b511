/**
 * @file
 * Correctness tests for the instrumented AI kernels against hand
 * computations and reference implementations.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "base/rng.hh"
#include "motifs/ai_kernels.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace dmpb {
namespace {

class AiKernelTest : public ::testing::Test
{
  protected:
    AiKernelTest() : machine_(westmereE5645()), ctx_(machine_) {}

    TracedBuffer<float>
    randomF(std::size_t n, std::uint64_t seed, double lo = -1,
            double hi = 1)
    {
        Rng rng(seed);
        TracedBuffer<float> buf(ctx_, n);
        for (auto &v : buf.raw())
            v = static_cast<float>(rng.nextDouble(lo, hi));
        return buf;
    }

    MachineConfig machine_;
    TraceContext ctx_;
};

TEST_F(AiKernelTest, ConvOutDim)
{
    EXPECT_EQ(kernels::convOutDim(32, 3, 1, 1), 32u);
    EXPECT_EQ(kernels::convOutDim(32, 3, 2, 1), 16u);
    EXPECT_EQ(kernels::convOutDim(224, 11, 4, 2), 55u);  // AlexNet conv1
    EXPECT_EQ(kernels::convOutDim(5, 5, 1, 0), 1u);
}

TEST_F(AiKernelTest, ConvIdentityKernelReproducesInput)
{
    // 1x1 kernel with weight 1: output == input.
    Shape4 s{1, 1, 4, 4};
    auto in = randomF(s.elems(), 1);
    TracedBuffer<float> w(ctx_, std::vector<float>{1.0f});
    TracedBuffer<float> bias(ctx_, 0);
    TracedBuffer<float> out(ctx_, s.elems());
    Shape4 os = kernels::conv2d(ctx_, in, s, w, bias, out, 1, 1, 1, 0);
    EXPECT_EQ(os, s);
    for (std::size_t i = 0; i < s.elems(); ++i)
        EXPECT_FLOAT_EQ(out.raw()[i], in.raw()[i]);
}

TEST_F(AiKernelTest, ConvHandComputed3x3)
{
    // 3x3 input, 3x3 all-ones kernel, valid padding: single output =
    // sum of all inputs.
    Shape4 s{1, 1, 3, 3};
    TracedBuffer<float> in(
        ctx_, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
    TracedBuffer<float> w(ctx_, std::vector<float>(9, 1.0f));
    TracedBuffer<float> bias(ctx_, std::vector<float>{0.5f});
    TracedBuffer<float> out(ctx_, 1);
    Shape4 os = kernels::conv2d(ctx_, in, s, w, bias, out, 1, 3, 1, 0);
    EXPECT_EQ(os.h, 1u);
    EXPECT_EQ(os.w, 1u);
    EXPECT_FLOAT_EQ(out.raw()[0], 45.0f + 0.5f);
}

TEST_F(AiKernelTest, ConvPaddingZeroesBorder)
{
    // Same-padded 3x3 ones-kernel over a constant image: corner sums
    // cover 4 pixels, centre sums cover 9.
    Shape4 s{1, 1, 3, 3};
    TracedBuffer<float> in(ctx_, std::vector<float>(9, 1.0f));
    TracedBuffer<float> w(ctx_, std::vector<float>(9, 1.0f));
    TracedBuffer<float> bias(ctx_, 0);
    TracedBuffer<float> out(ctx_, 9);
    kernels::conv2d(ctx_, in, s, w, bias, out, 1, 3, 1, 1);
    EXPECT_FLOAT_EQ(out.raw()[0], 4.0f);   // corner
    EXPECT_FLOAT_EQ(out.raw()[1], 6.0f);   // edge
    EXPECT_FLOAT_EQ(out.raw()[4], 9.0f);   // centre
}

TEST_F(AiKernelTest, ConvMultiChannelAccumulates)
{
    Shape4 s{1, 2, 2, 2};
    // channel 0 = all 1, channel 1 = all 2.
    TracedBuffer<float> in(
        ctx_, std::vector<float>{1, 1, 1, 1, 2, 2, 2, 2});
    // One filter: weight 1 on c0, weight 10 on c1, 1x1 kernel.
    TracedBuffer<float> w(ctx_, std::vector<float>{1.0f, 10.0f});
    TracedBuffer<float> bias(ctx_, 0);
    TracedBuffer<float> out(ctx_, 4);
    kernels::conv2d(ctx_, in, s, w, bias, out, 1, 1, 1, 0);
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(out.raw()[i], 21.0f);
}

TEST_F(AiKernelTest, ConvNhwcMatchesNchw)
{
    Shape4 s{2, 3, 6, 6};
    Rng rng(7);
    std::vector<float> values(s.elems());
    for (auto &v : values)
        v = static_cast<float>(rng.nextDouble(-1, 1));

    // Build NCHW and NHWC copies of the same logical tensor.
    TracedBuffer<float> nchw(ctx_, s.elems());
    TracedBuffer<float> nhwc(ctx_, s.elems());
    for (std::uint32_t n = 0; n < s.n; ++n)
        for (std::uint32_t c = 0; c < s.c; ++c)
            for (std::uint32_t y = 0; y < s.h; ++y)
                for (std::uint32_t x = 0; x < s.w; ++x) {
                    float v = values[s.index(DataLayout::NCHW, n, c, y,
                                             x)];
                    nchw.raw()[s.index(DataLayout::NCHW, n, c, y, x)] =
                        v;
                    nhwc.raw()[s.index(DataLayout::NHWC, n, c, y, x)] =
                        v;
                }

    auto w = randomF(4u * 3 * 3 * 3, 8);
    TracedBuffer<float> bias(ctx_, 0);
    Shape4 os{2, 4, 6, 6};
    TracedBuffer<float> out_a(ctx_, os.elems());
    TracedBuffer<float> out_b(ctx_, os.elems());
    kernels::conv2d(ctx_, nchw, s, w, bias, out_a, 4, 3, 1, 1,
                    DataLayout::NCHW);
    kernels::conv2d(ctx_, nhwc, s, w, bias, out_b, 4, 3, 1, 1,
                    DataLayout::NHWC);
    for (std::uint32_t n = 0; n < os.n; ++n)
        for (std::uint32_t c = 0; c < os.c; ++c)
            for (std::uint32_t y = 0; y < os.h; ++y)
                for (std::uint32_t x = 0; x < os.w; ++x) {
                    EXPECT_NEAR(
                        out_a.raw()[os.index(DataLayout::NCHW, n, c, y,
                                             x)],
                        out_b.raw()[os.index(DataLayout::NHWC, n, c, y,
                                             x)],
                        1e-4);
                }
}

TEST_F(AiKernelTest, MaxPoolPicksWindowMax)
{
    Shape4 s{1, 1, 4, 4};
    TracedBuffer<float> in(
        ctx_, std::vector<float>{1, 2, 5, 6, 3, 4, 7, 8,
                                 9, 10, 13, 14, 11, 12, 15, 16});
    TracedBuffer<float> out(ctx_, 4);
    Shape4 os = kernels::maxPool2d(ctx_, in, s, out, 2, 2);
    EXPECT_EQ(os.h, 2u);
    EXPECT_FLOAT_EQ(out.raw()[0], 4.0f);
    EXPECT_FLOAT_EQ(out.raw()[1], 8.0f);
    EXPECT_FLOAT_EQ(out.raw()[2], 12.0f);
    EXPECT_FLOAT_EQ(out.raw()[3], 16.0f);
}

TEST_F(AiKernelTest, AvgPoolAverages)
{
    Shape4 s{1, 1, 2, 2};
    TracedBuffer<float> in(ctx_, std::vector<float>{1, 3, 5, 7});
    TracedBuffer<float> out(ctx_, 1);
    kernels::avgPool2d(ctx_, in, s, out, 2, 2);
    EXPECT_FLOAT_EQ(out.raw()[0], 4.0f);
}

TEST_F(AiKernelTest, FullyConnectedMatchesManualDot)
{
    // 1 batch, 3 inputs, 2 outputs.
    TracedBuffer<float> x(ctx_, std::vector<float>{1, 2, 3});
    TracedBuffer<float> w(ctx_, std::vector<float>{1, 0, -1, 0.5, 0.5,
                                                   0.5});
    TracedBuffer<float> b(ctx_, std::vector<float>{10, 20});
    TracedBuffer<float> y(ctx_, 2);
    kernels::fullyConnected(ctx_, x, 1, 3, w, b, y, 2);
    EXPECT_FLOAT_EQ(y.raw()[0], 1 - 3 + 10);
    EXPECT_FLOAT_EQ(y.raw()[1], 3.0f + 20);
}

TEST_F(AiKernelTest, ReluClampsNegatives)
{
    auto x = randomF(1000, 9, -2, 2);
    auto orig = x.raw();
    kernels::relu(ctx_, x);
    for (std::size_t i = 0; i < orig.size(); ++i)
        EXPECT_FLOAT_EQ(x.raw()[i], orig[i] < 0 ? 0.0f : orig[i]);
}

TEST_F(AiKernelTest, SigmoidRangeAndMonotone)
{
    auto x = randomF(500, 10, -6, 6);
    auto orig = x.raw();
    kernels::sigmoid(ctx_, x);
    for (std::size_t i = 0; i < orig.size(); ++i) {
        EXPECT_GT(x.raw()[i], 0.0f);
        EXPECT_LT(x.raw()[i], 1.0f);
        EXPECT_NEAR(x.raw()[i], 1.0 / (1.0 + std::exp(-orig[i])), 1e-5);
    }
}

TEST_F(AiKernelTest, TanhMatchesStd)
{
    auto x = randomF(500, 11, -3, 3);
    auto orig = x.raw();
    kernels::tanhAct(ctx_, x);
    for (std::size_t i = 0; i < orig.size(); ++i)
        EXPECT_NEAR(x.raw()[i], std::tanh(orig[i]), 1e-5);
}

TEST_F(AiKernelTest, SoftmaxRowsSumToOne)
{
    auto x = randomF(8 * 50, 12, -5, 5);
    kernels::softmax(ctx_, x, 8, 50);
    for (std::size_t r = 0; r < 8; ++r) {
        double sum = 0;
        for (std::size_t d = 0; d < 50; ++d) {
            sum += x.raw()[r * 50 + d];
            EXPECT_GE(x.raw()[r * 50 + d], 0.0f);
        }
        EXPECT_NEAR(sum, 1.0, 1e-4);
    }
}

TEST_F(AiKernelTest, SoftmaxInvariantToShift)
{
    TracedBuffer<float> a(ctx_, std::vector<float>{1, 2, 3});
    TracedBuffer<float> b(ctx_, std::vector<float>{101, 102, 103});
    kernels::softmax(ctx_, a, 1, 3);
    kernels::softmax(ctx_, b, 1, 3);
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(a.raw()[i], b.raw()[i], 1e-5);
}

TEST_F(AiKernelTest, DropoutKeepsExpectedFractionAndScales)
{
    auto x = randomF(20000, 13, 1, 1.0001);  // all ~1
    Rng rng(14);
    std::size_t kept = kernels::dropout(ctx_, x, 0.4, rng);
    EXPECT_NEAR(static_cast<double>(kept) / x.size(), 0.6, 0.02);
    for (float v : x.raw()) {
        if (v != 0.0f) {
            EXPECT_NEAR(v, 1.0 / 0.6, 0.01);
        }
    }
}

TEST_F(AiKernelTest, BatchNormNormalisesPerChannel)
{
    Shape4 s{4, 3, 8, 8};
    auto x = randomF(s.elems(), 15, -10, 30);
    TracedBuffer<float> gamma(ctx_, 0), beta(ctx_, 0);
    kernels::batchNorm(ctx_, x, s, gamma, beta);
    for (std::uint32_t c = 0; c < 3; ++c) {
        double sum = 0, sq = 0;
        std::size_t cnt = 0;
        for (std::uint32_t n = 0; n < 4; ++n)
            for (std::uint32_t y = 0; y < 8; ++y)
                for (std::uint32_t xx = 0; xx < 8; ++xx) {
                    float v = x.raw()[s.index(DataLayout::NCHW, n, c, y,
                                              xx)];
                    sum += v;
                    sq += static_cast<double>(v) * v;
                    ++cnt;
                }
        double mean = sum / cnt;
        double var = sq / cnt - mean * mean;
        EXPECT_NEAR(mean, 0.0, 1e-3);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST_F(AiKernelTest, CosineNormMakesUnitRows)
{
    auto x = randomF(16 * 32, 16, -4, 4);
    kernels::cosineNorm(ctx_, x, 16, 32);
    for (std::size_t r = 0; r < 16; ++r) {
        double norm = 0;
        for (std::size_t d = 0; d < 32; ++d)
            norm += static_cast<double>(x.raw()[r * 32 + d]) *
                    x.raw()[r * 32 + d];
        EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4);
    }
}

TEST_F(AiKernelTest, ReduceSumMatchesAccumulate)
{
    auto x = randomF(4096, 17);
    double expect = std::accumulate(x.raw().begin(), x.raw().end(), 0.0);
    EXPECT_NEAR(kernels::reduceSum(ctx_, x), expect, 1e-3);
}

TEST_F(AiKernelTest, ReduceMaxMatchesMaxElement)
{
    auto x = randomF(4096, 18);
    EXPECT_FLOAT_EQ(kernels::reduceMax(ctx_, x),
                    *std::max_element(x.raw().begin(), x.raw().end()));
}

TEST_F(AiKernelTest, ElementWiseMul)
{
    auto a = randomF(512, 19);
    auto b = randomF(512, 20);
    TracedBuffer<float> out(ctx_, 512);
    kernels::elementWiseMul(ctx_, a, b, out);
    for (std::size_t i = 0; i < 512; ++i)
        EXPECT_FLOAT_EQ(out.raw()[i], a.raw()[i] * b.raw()[i]);
}

TEST_F(AiKernelTest, ConvIsFpDominated)
{
    Shape4 s{1, 8, 16, 16};
    auto in = randomF(s.elems(), 21);
    auto w = randomF(16u * 8 * 3 * 3, 22);
    TracedBuffer<float> bias(ctx_, 16);
    Shape4 os{1, 16, 16, 16};
    TracedBuffer<float> out(ctx_, os.elems());
    ctx_.reset();
    kernels::conv2d(ctx_, in, s, w, bias, out, 16, 3, 1, 1);
    KernelProfile p = ctx_.profile();
    double fp = static_cast<double>(
        p.ops[static_cast<std::size_t>(OpClass::FpAlu)] +
        p.ops[static_cast<std::size_t>(OpClass::FpMul)]);
    EXPECT_GT(fp / static_cast<double>(p.instructions()), 0.28);
}

} // namespace
} // namespace dmpb
