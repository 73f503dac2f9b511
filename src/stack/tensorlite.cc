#include "stack/tensorlite.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/logging.hh"
#include "base/names.hh"
#include "base/rng.hh"
#include "sim/engine.hh"
#include "sim/replica_pool.hh"

namespace dmpb {

// ------------------------------------------------------------ LayerSpec

LayerSpec
LayerSpec::conv(std::uint32_t filters, std::uint32_t kernel,
                std::uint32_t stride, std::uint32_t pad)
{
    LayerSpec s;
    s.type = Type::Conv;
    s.filters = filters;
    s.kernel = kernel;
    s.stride = stride;
    s.pad = pad;
    return s;
}

LayerSpec
LayerSpec::maxPool(std::uint32_t kernel, std::uint32_t stride)
{
    LayerSpec s;
    s.type = Type::MaxPool;
    s.kernel = kernel;
    s.stride = stride;
    return s;
}

LayerSpec
LayerSpec::avgPool(std::uint32_t kernel, std::uint32_t stride)
{
    LayerSpec s;
    s.type = Type::AvgPool;
    s.kernel = kernel;
    s.stride = stride;
    return s;
}

LayerSpec
LayerSpec::fc(std::uint32_t out_dim)
{
    LayerSpec s;
    s.type = Type::Fc;
    s.out_dim = out_dim;
    return s;
}

LayerSpec
LayerSpec::relu()
{
    LayerSpec s;
    s.type = Type::Relu;
    return s;
}

LayerSpec
LayerSpec::batchNorm()
{
    LayerSpec s;
    s.type = Type::BatchNorm;
    return s;
}

LayerSpec
LayerSpec::softmax()
{
    LayerSpec s;
    s.type = Type::Softmax;
    return s;
}

LayerSpec
LayerSpec::dropout(double rate)
{
    LayerSpec s;
    s.type = Type::Dropout;
    s.rate = rate;
    return s;
}

// -------------------------------------------------------------- Network

Network &
Network::add(const LayerSpec &spec)
{
    NetNode node;
    node.spec = spec;
    nodes_.push_back(std::move(node));
    return *this;
}

Network &
Network::addInception(std::vector<InceptionBranch> branches)
{
    dmpb_assert(!branches.empty(), "inception module with no branches");
    NetNode node;
    node.is_inception = true;
    node.branches = std::move(branches);
    nodes_.push_back(std::move(node));
    return *this;
}

namespace {

/** Clamp conv/pool windows so tiny simulated resolutions stay legal. */
std::uint32_t
clampKernel(std::uint32_t kernel, const Shape4 &s, std::uint32_t pad)
{
    std::uint32_t limit = std::min(s.h + 2 * pad, s.w + 2 * pad);
    return std::min(kernel == 0 ? limit : kernel,
                    std::max<std::uint32_t>(1, limit));
}

/** Apply one plain layer; returns the new shape and buffer. */
Shape4
applyLayer(TraceContext &ctx, const LayerSpec &spec,
           TracedBuffer<float> &in, Shape4 s,
           TracedBuffer<float> &out, Rng &wrng, Rng &drop_rng)
{
    switch (spec.type) {
      case LayerSpec::Type::Conv: {
        std::uint32_t k = clampKernel(spec.kernel, s, spec.pad);
        TracedBuffer<float> w(
            ctx, static_cast<std::size_t>(spec.filters) * s.c * k * k);
        for (auto &v : w.raw())
            v = static_cast<float>(wrng.nextGaussian() * 0.05);
        TracedBuffer<float> bias(ctx, spec.filters);
        for (auto &v : bias.raw())
            v = 0.01f;
        Shape4 os{s.n, spec.filters,
                  kernels::convOutDim(s.h, k, spec.stride, spec.pad),
                  kernels::convOutDim(s.w, k, spec.stride, spec.pad)};
        out.raw().resize(os.elems());
        return kernels::conv2d(ctx, in, s, w, bias, out, spec.filters,
                               k, spec.stride, spec.pad);
      }
      case LayerSpec::Type::MaxPool:
      case LayerSpec::Type::AvgPool: {
        std::uint32_t k = clampKernel(spec.kernel, s, 0);
        std::uint32_t stride = std::max<std::uint32_t>(1, spec.stride);
        Shape4 os{s.n, s.c, kernels::convOutDim(s.h, k, stride, 0),
                  kernels::convOutDim(s.w, k, stride, 0)};
        out.raw().resize(os.elems());
        if (spec.type == LayerSpec::Type::MaxPool)
            return kernels::maxPool2d(ctx, in, s, out, k, stride);
        return kernels::avgPool2d(ctx, in, s, out, k, stride);
      }
      case LayerSpec::Type::Fc: {
        std::size_t in_dim = static_cast<std::size_t>(s.c) * s.h * s.w;
        TracedBuffer<float> w(ctx, spec.out_dim * in_dim);
        for (auto &v : w.raw())
            v = static_cast<float>(wrng.nextGaussian() * 0.05);
        TracedBuffer<float> bias(ctx, spec.out_dim);
        for (auto &v : bias.raw())
            v = 0.01f;
        out.raw().resize(static_cast<std::size_t>(s.n) * spec.out_dim);
        kernels::fullyConnected(ctx, in, s.n, in_dim, w, bias, out,
                                spec.out_dim);
        return Shape4{s.n, spec.out_dim, 1, 1};
      }
      case LayerSpec::Type::Relu:
        kernels::relu(ctx, in);
        out.raw().swap(in.raw());
        return s;
      case LayerSpec::Type::BatchNorm: {
        TracedBuffer<float> gamma(ctx, 0), beta(ctx, 0);
        kernels::batchNorm(ctx, in, s, gamma, beta);
        out.raw().swap(in.raw());
        return s;
      }
      case LayerSpec::Type::Softmax:
        kernels::softmax(ctx, in, s.n,
                         static_cast<std::size_t>(s.c) * s.h * s.w);
        out.raw().swap(in.raw());
        return s;
      case LayerSpec::Type::Dropout:
        kernels::dropout(ctx, in, spec.rate, drop_rng);
        out.raw().swap(in.raw());
        return s;
    }
    dmpb_panic("unhandled layer type");
}

/**
 * Seed of one inception branch's private weight stream. Keyed by the
 * module position and branch index only -- never by how many values
 * the trunk or sibling branches consumed -- so the stream is the same
 * whether branches run sequentially or sharded.
 */
std::uint64_t
branchSeed(std::uint64_t weight_seed, std::size_t node_index,
           std::size_t branch_index)
{
    return mix64(weight_seed ^
                 mix64((static_cast<std::uint64_t>(node_index) << 20) |
                       (branch_index + 1)));
}

} // namespace

Shape4
Network::forward(TraceContext &ctx, const ImageBatch &input,
                 const ForwardOptions &opts) const
{
    dmpb_assert(input.layout == DataLayout::NCHW,
                "tensorlite executes NCHW activations");
    Shape4 s{static_cast<std::uint32_t>(input.batch),
             static_cast<std::uint32_t>(input.channels),
             static_cast<std::uint32_t>(input.height),
             static_cast<std::uint32_t>(input.width)};
    TracedBuffer<float> act(ctx, input.data);
    Rng wrng(opts.weight_seed);
    Rng drop_rng(opts.weight_seed ^ 0xd00dULL);

    for (std::size_t li = 0; li < nodes_.size(); ++li) {
        const NetNode &node = nodes_[li];
        if (!node.is_inception) {
            TracedBuffer<float> out(ctx, 0);
            Shape4 os = applyLayer(ctx, node.spec, act, s, out, wrng,
                                   drop_rng);
            act.raw().swap(out.raw());
            s = os;
            continue;
        }

        // Inception module: every branch consumes the same input and
        // the outputs concatenate along the channel dimension. The
        // branches are data-independent, so each runs as one shard
        // job on a private TraceContext replica (own cache/predictor
        // models, own address space) with a private weight stream;
        // afterwards the replica profiles are absorbed and the
        // concatenation is traced in fixed branch order. One code
        // path for every shards value keeps the result bit-identical
        // whether the branches ran back to back or concurrently.
        struct BranchRun
        {
            std::vector<float> data;
            Shape4 shape;
            KernelProfile profile;
        };
        std::vector<BranchRun> runs(node.branches.size());
        std::vector<std::function<void()>> jobs;
        jobs.reserve(node.branches.size());
        for (std::size_t b = 0; b < node.branches.size(); ++b) {
            jobs.push_back([&ctx, &node, &runs, &act, &opts, s, li,
                            b]() {
                auto run_branch = [&](TraceContext &bctx) {
                    std::uint64_t seed =
                        branchSeed(opts.weight_seed, li, b);
                    Rng bwrng(seed);
                    Rng bdrop(seed ^ 0xd00dULL);
                    TracedBuffer<float> bact(bctx, act.raw());
                    Shape4 bs = s;
                    for (const LayerSpec &spec :
                         node.branches[b].layers) {
                        TracedBuffer<float> out(bctx, 0);
                        Shape4 os = applyLayer(bctx, spec, bact, bs,
                                               out, bwrng, bdrop);
                        bact.raw().swap(out.raw());
                        bs = os;
                    }
                    runs[b] = BranchRun{std::move(bact.raw()), bs,
                                        bctx.profile()};
                };
                if (opts.pool != nullptr) {
                    // Pooled replica; carries the parent's code
                    // footprint exactly like replica() would.
                    ReplicaPool::Lease lease = opts.pool->acquire();
                    lease.ctx().setCodeFootprint(ctx.codeFootprint());
                    run_branch(lease.ctx());
                } else {
                    // replica() only reads construction parameters,
                    // which no other shard mutates; safe from worker
                    // threads.
                    TraceContext bctx = ctx.replica();
                    run_branch(bctx);
                }
            });
        }
        runShardedJobs(opts.shards, std::move(jobs), opts.should_stop,
                       "inception branches");
        for (const BranchRun &run : runs)
            ctx.absorb(run.profile);

        // All branches must agree on n, h, w.
        std::uint32_t total_c = 0;
        for (std::size_t b = 0; b < runs.size(); ++b) {
            dmpb_assert(runs[b].shape.h == runs[0].shape.h &&
                        runs[b].shape.w == runs[0].shape.w,
                        name_, ": branch ", b,
                        " spatial mismatch in inception module ", li);
            total_c += runs[b].shape.c;
        }
        Shape4 os{s.n, total_c, runs[0].shape.h, runs[0].shape.w};
        TracedBuffer<float> cat(ctx, os.elems());
        std::uint32_t c_off = 0;
        for (std::size_t b = 0; b < runs.size(); ++b) {
            const Shape4 &bs = runs[b].shape;
            TracedBuffer<float> src(ctx, std::move(runs[b].data));
            for (std::uint32_t n = 0; n < bs.n; ++n)
                for (std::uint32_t c = 0; c < bs.c; ++c)
                    for (std::uint32_t y = 0; y < bs.h; ++y)
                        for (std::uint32_t x = 0; x < bs.w; ++x) {
                            float v = src.rd(bs.index(
                                DataLayout::NCHW, n, c, y, x));
                            cat.wr(os.index(DataLayout::NCHW, n,
                                            c_off + c, y, x), v);
                        }
            c_off += bs.c;
        }
        act.raw().swap(cat.raw());
        s = os;
    }
    return s;
}

namespace {

/** Shape/param bookkeeping without execution. */
Shape4
dryLayer(const LayerSpec &spec, Shape4 s, std::uint64_t &params)
{
    switch (spec.type) {
      case LayerSpec::Type::Conv: {
        std::uint32_t k = clampKernel(spec.kernel, s, spec.pad);
        params += static_cast<std::uint64_t>(spec.filters) * s.c * k *
                      k + spec.filters;
        return Shape4{s.n, spec.filters,
                      kernels::convOutDim(s.h, k, spec.stride, spec.pad),
                      kernels::convOutDim(s.w, k, spec.stride,
                                          spec.pad)};
      }
      case LayerSpec::Type::MaxPool:
      case LayerSpec::Type::AvgPool: {
        std::uint32_t k = clampKernel(spec.kernel, s, 0);
        std::uint32_t stride = std::max<std::uint32_t>(1, spec.stride);
        return Shape4{s.n, s.c, kernels::convOutDim(s.h, k, stride, 0),
                      kernels::convOutDim(s.w, k, stride, 0)};
      }
      case LayerSpec::Type::Fc:
        params += static_cast<std::uint64_t>(spec.out_dim) * s.c * s.h *
                      s.w + spec.out_dim;
        return Shape4{s.n, spec.out_dim, 1, 1};
      case LayerSpec::Type::BatchNorm:
        params += 2ULL * s.c;
        return s;
      default:
        return s;
    }
}

} // namespace

std::uint64_t
Network::paramCount(Shape4 s) const
{
    std::uint64_t params = 0;
    for (const NetNode &node : nodes_) {
        if (!node.is_inception) {
            s = dryLayer(node.spec, s, params);
            continue;
        }
        std::uint32_t total_c = 0;
        Shape4 bs_last = s;
        for (const InceptionBranch &br : node.branches) {
            Shape4 bs = s;
            for (const LayerSpec &spec : br.layers)
                bs = dryLayer(spec, bs, params);
            total_c += bs.c;
            bs_last = bs;
        }
        s = Shape4{s.n, total_c, bs_last.h, bs_last.w};
    }
    return params;
}

// --------------------------------------------------------- Net builders

Network
buildAlexNet(std::uint32_t num_classes)
{
    // The CIFAR-10-input AlexNet variant BigDataBench trains (the
    // original 224x224 topology scaled to 32x32 inputs, batch-norm in
    // place of LRN as the paper's motif table lists batch
    // normalization for AlexNet).
    Network net("AlexNet");
    net.add(LayerSpec::conv(64, 5, 1, 2))
        .add(LayerSpec::relu())
        .add(LayerSpec::maxPool(3, 2))
        .add(LayerSpec::batchNorm())
        .add(LayerSpec::conv(64, 5, 1, 2))
        .add(LayerSpec::relu())
        .add(LayerSpec::batchNorm())
        .add(LayerSpec::maxPool(3, 2))
        .add(LayerSpec::fc(384))
        .add(LayerSpec::relu())
        .add(LayerSpec::dropout(0.5))
        .add(LayerSpec::fc(192))
        .add(LayerSpec::relu())
        .add(LayerSpec::fc(num_classes))
        .add(LayerSpec::softmax());
    return net;
}

namespace {

InceptionBranch
branch(std::initializer_list<LayerSpec> layers)
{
    InceptionBranch b;
    b.layers = layers;
    return b;
}

} // namespace

Network
buildInceptionV3(std::uint32_t num_classes)
{
    // Szegedy et al. (2016) topology with exact channel widths. Two
    // simplifications, documented in DESIGN.md: (1) the factorised
    // 1x7/7x1 and 1x3/3x1 convolution pairs are folded into square
    // 3x3 convolutions of the same output width; (2) the avg-pool
    // projection branches inside modules are replaced by 1x1
    // projection convolutions (our pooling has no 'same' padding).
    Network net("Inception-V3");
    // Stem: 299 -> 149 -> 147 -> 147 -> 73 -> 73 -> 71 -> 35.
    net.add(LayerSpec::conv(32, 3, 2, 0))
        .add(LayerSpec::batchNorm())
        .add(LayerSpec::relu())
        .add(LayerSpec::conv(32, 3, 1, 0))
        .add(LayerSpec::relu())
        .add(LayerSpec::conv(64, 3, 1, 1))
        .add(LayerSpec::relu())
        .add(LayerSpec::maxPool(3, 2))
        .add(LayerSpec::conv(80, 1, 1, 0))
        .add(LayerSpec::relu())
        .add(LayerSpec::conv(192, 3, 1, 0))
        .add(LayerSpec::relu())
        .add(LayerSpec::maxPool(3, 2));

    // 2 x Inception-A (35x35, out 64+64+96+64 = 288).
    for (int i = 0; i < 2; ++i) {
        net.addInception({
            branch({LayerSpec::conv(64, 1)}),
            branch({LayerSpec::conv(48, 1), LayerSpec::conv(64, 5, 1, 2)}),
            branch({LayerSpec::conv(64, 1), LayerSpec::conv(96, 3, 1, 1),
                    LayerSpec::conv(96, 3, 1, 1)}),
            branch({LayerSpec::conv(64, 1)}),
        });
        net.add(LayerSpec::relu());
    }

    // Reduction-A (35 -> 17, out 384+96+288 = 768).
    net.addInception({
        branch({LayerSpec::conv(384, 3, 2, 0)}),
        branch({LayerSpec::conv(64, 1), LayerSpec::conv(96, 3, 1, 1),
                LayerSpec::conv(96, 3, 2, 0)}),
        branch({LayerSpec::maxPool(3, 2)}),
    });
    net.add(LayerSpec::relu());

    // 2 x Inception-B (17x17, out 192*4 = 768); 7x1/1x7 folded to 3x3.
    for (int i = 0; i < 2; ++i) {
        net.addInception({
            branch({LayerSpec::conv(192, 1)}),
            branch({LayerSpec::conv(128, 1),
                    LayerSpec::conv(192, 3, 1, 1)}),
            branch({LayerSpec::conv(128, 1),
                    LayerSpec::conv(128, 3, 1, 1),
                    LayerSpec::conv(192, 3, 1, 1)}),
            branch({LayerSpec::conv(192, 1)}),
        });
        net.add(LayerSpec::relu());
    }

    // Reduction-B (17 -> 8, out 320+192+768 = 1280).
    net.addInception({
        branch({LayerSpec::conv(192, 1), LayerSpec::conv(320, 3, 2, 0)}),
        branch({LayerSpec::conv(192, 1), LayerSpec::conv(192, 3, 1, 1),
                LayerSpec::conv(192, 3, 2, 0)}),
        branch({LayerSpec::maxPool(3, 2)}),
    });
    net.add(LayerSpec::relu());

    // 2 x Inception-C (8x8, out 320+768+768+192 = 2048).
    for (int i = 0; i < 2; ++i) {
        net.addInception({
            branch({LayerSpec::conv(320, 1)}),
            branch({LayerSpec::conv(384, 1),
                    LayerSpec::conv(768, 3, 1, 1)}),
            branch({LayerSpec::conv(448, 1),
                    LayerSpec::conv(384, 3, 1, 1),
                    LayerSpec::conv(768, 3, 1, 1)}),
            branch({LayerSpec::conv(192, 1)}),
        });
        net.add(LayerSpec::relu());
    }

    // Head: global average pool, dropout, fc, softmax.
    net.add(LayerSpec::avgPool(0, 1))  // kernel 0 = global
        .add(LayerSpec::dropout(0.2))
        .add(LayerSpec::fc(num_classes))
        .add(LayerSpec::softmax());
    return net;
}

// --------------------------------------------------------- TensorEngine

std::uint64_t
trainSampleSeed(const std::string &job_name, std::uint32_t image_index)
{
    // fnv1a64, not std::hash: the seed must be the same value on
    // every standard library. Images of one sampled batch get
    // decorrelated sibling seeds keyed by their index, independent of
    // which shard traces them.
    return mix64(fnv1a64(job_name) +
                 0x9e3779b97f4a7c15ULL * image_index);
}

TensorEngine::TensorEngine(const ClusterConfig &cluster)
    : cluster_(cluster)
{
    dmpb_assert(cluster_.num_nodes >= 2,
                "need a parameter server and at least one worker");
}

TrainResult
TensorEngine::run(const TrainJob &job) const
{
    dmpb_assert(job.net != nullptr, "train job without a network");
    dmpb_assert(job.total_steps > 0 && job.batch_size > 0,
                "train job needs steps and a batch size");

    TrainResult res;
    res.name = job.name;
    const double workers = cluster_.slaveNodes();
    const std::uint32_t cores = cluster_.node.totalCores();
    const SimConfig &sim = cluster_.sim;

    std::uint32_t sim_dim = job.sim_dim ? job.sim_dim : job.image_dim;
    std::uint32_t sample_batch =
        std::min(job.sample_batch, job.batch_size);

    // ---- Trace one sampled forward pass, sharded per image: every
    // image of the sampled batch is an independent simulated core
    // (private TraceContext / cache / predictor replica, private
    // deterministic image seed), so the images run concurrently on
    // the shard pool and their profiles merge in image order --
    // bit-identical totals for every sim.shards value, with inception
    // branches sharded the same way inside each image's forward pass.
    // Split the shard budget between the two nesting levels instead
    // of multiplying it: each of the (up to shards) concurrent image
    // jobs gets shards/image_fan workers for its inception branches,
    // bounding live threads near sim.shards rather than shards^2.
    // Shard counts never change results, only wall-clock, so this
    // split is free to be a heuristic.
    std::size_t image_fan = std::min<std::size_t>(
        sample_batch, std::max<std::size_t>(1, sim.shards));
    std::size_t branch_shards =
        std::max<std::size_t>(1, sim.shards / image_fan);
    // One pool serves both nesting levels: image contexts and their
    // inception-branch replicas share construction parameters, so a
    // finished branch context is immediately reusable by the next
    // image (or branch) job.
    ReplicaPool pool(cluster_.node, cores, 1, sim.batch_capacity);
    std::vector<KernelProfile> image_profiles(sample_batch);
    std::vector<std::function<void()>> image_jobs;
    image_jobs.reserve(sample_batch);
    for (std::uint32_t i = 0; i < sample_batch; ++i) {
        image_jobs.push_back([&job, &image_profiles, &sim, &pool,
                              branch_shards, sim_dim, i]() {
            ImageGenerator gen(trainSampleSeed(job.name, i));
            ImageBatch batch = gen.generate(1, job.channels, sim_dim,
                                            sim_dim, job.num_classes);
            ReplicaPool::Lease lease = pool.acquire();
            TraceContext &ctx = lease.ctx();
            ctx.setCodeFootprint(job.code_footprint);
            ForwardOptions fwd;
            fwd.shards = branch_shards;
            fwd.should_stop = sim.should_stop;
            fwd.pool = &pool;
            job.net->forward(ctx, batch, fwd);
            image_profiles[i] = ctx.profile();
        });
    }
    runShardedJobs(sim.shards, std::move(image_jobs), sim.should_stop,
                   "reference forward pass");
    KernelProfile step;
    for (const KernelProfile &p : image_profiles)
        step.merge(p);

    // ---- Extrapolate: full batch, full resolution, plus backward.
    double spatial = static_cast<double>(job.image_dim) /
                     static_cast<double>(sim_dim);
    double scale = (static_cast<double>(job.batch_size) / sample_batch) *
                   spatial * spatial * (1.0 + job.backward_multiplier);
    step.scale(scale);

    // ---- Step time: data-parallel across the worker's cores with
    // imperfect scaling, then a parameter-server synchronisation.
    // Cores data-parallel with imperfect scaling; the node's systolic
    // array (when present) is one shared serial resource, so its step
    // time adds undivided.
    double compute_s = cluster_.node.core.seconds(step) /
                           (0.85 * cores) +
                       cluster_.node.accel.seconds(step);
    Shape4 in_shape{1, job.channels, job.image_dim, job.image_dim};
    std::uint64_t params = job.net->paramCount(in_shape);
    std::uint64_t sync_bytes = 2ULL * 4 * params;  // grads up + params
    double sync_s = cluster_.node.net.transferSeconds(
        static_cast<std::uint64_t>(static_cast<double>(sync_bytes) *
                                   workers));
    res.step_time_s = compute_s + sync_s;
    res.steps_per_worker = static_cast<std::uint64_t>(
        std::ceil(job.total_steps / workers));
    res.runtime_s = job.setup_s +
                    static_cast<double>(res.steps_per_worker) *
                        res.step_time_s;

    // ---- Cluster totals over all steps, all workers.
    KernelProfile total = step;
    total.scale(static_cast<double>(job.total_steps));
    // Parameter-server update: params * (load, fma, store) per step.
    total.ops[static_cast<std::size_t>(OpClass::FpAlu)] +=
        2 * params * job.total_steps / 4;
    total.ops[static_cast<std::size_t>(OpClass::Load)] +=
        params * job.total_steps / 2;
    total.ops[static_cast<std::size_t>(OpClass::Store)] +=
        params * job.total_steps / 2;
    // Input pipeline: each step reads batch images (uint8) from disk.
    total.disk_read_bytes +=
        static_cast<std::uint64_t>(job.total_steps) * job.batch_size *
        job.channels * job.image_dim * job.image_dim;
    total.net_bytes += sync_bytes * job.total_steps;

    res.cluster_profile = total;
    res.metrics = computeMetrics(total, cluster_.node.core,
                                 res.runtime_s, workers);
    return res;
}

} // namespace dmpb
