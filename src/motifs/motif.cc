#include "motifs/motif.hh"

#include "motifs/ai_motifs.hh"
#include "motifs/bd_motifs.hh"

namespace dmpb {

const char *
motifClassName(MotifClass c)
{
    switch (c) {
      case MotifClass::Matrix: return "Matrix";
      case MotifClass::Sampling: return "Sampling";
      case MotifClass::Transform: return "Transform";
      case MotifClass::Graph: return "Graph";
      case MotifClass::Logic: return "Logic";
      case MotifClass::Set: return "Set";
      case MotifClass::Sort: return "Sort";
      case MotifClass::Statistics: return "Statistics";
      default: return "Invalid";
    }
}

MotifParams
projectParams(const MotifParams &p, std::uint32_t reads)
{
    MotifParams q = p;
    q.num_tasks = 0;
    q.weight = 0.0;
    if (!(reads & kReadsDataSize))
        q.data_size = 0;
    if (!(reads & kReadsChunkSize))
        q.chunk_size = 0;
    if (!(reads & kReadsSparsity))
        q.sparsity = 0.0;
    if (!(reads & kReadsTensorShape)) {
        q.batch_size = q.height = q.width = q.channels = 0;
        q.filters = q.kernel = q.stride = 0;
        q.total_size = 0;
        q.layout = DataLayout::NCHW;
    }
    return q;
}

const std::vector<const Motif *> &
motifRegistry()
{
    // Static singletons: motifs are stateless (all state lives in the
    // TraceContext and the per-run generated data).
    static const QuickSortMotif quick_sort;
    static const MergeSortMotif merge_sort;
    static const RandomSamplingMotif random_sampling;
    static const IntervalSamplingMotif interval_sampling;
    static const GraphConstructMotif graph_construct;
    static const GraphTraverseMotif graph_traverse;
    static const SetUnionMotif set_union;
    static const SetIntersectionMotif set_intersection;
    static const SetDifferenceMotif set_difference;
    static const CountAvgStatsMotif count_avg_stats;
    static const ProbabilityStatsMotif probability_stats;
    static const MinMaxMotif min_max;
    static const Md5Motif md5_hash;
    static const EncryptionMotif encryption;
    static const FftMotif fft;
    static const DctMotif dct;
    static const MatMulMotif matrix_multiply;
    static const EuclideanDistanceMotif euclidean_distance;
    static const CosineDistanceMotif cosine_distance;

    static const FullyConnectedMotif fully_connected;
    static const ElementMulMotif element_mul;
    static const SigmoidMotif sigmoid;
    static const TanhMotif tanh_motif;
    static const SoftmaxMotif softmax;
    static const MaxPoolMotif max_pool;
    static const AvgPoolMotif avg_pool;
    static const ConvolutionMotif convolution;
    static const DropoutMotif dropout;
    static const BatchNormMotif batch_norm;
    static const CosineNormMotif cosine_norm;
    static const ReduceSumMotif reduce_sum;
    static const ReduceMaxMotif reduce_max;
    static const ReluMotif relu;

    static const std::vector<const Motif *> registry = {
        &quick_sort, &merge_sort, &random_sampling, &interval_sampling,
        &graph_construct, &graph_traverse, &set_union,
        &set_intersection, &set_difference, &count_avg_stats,
        &probability_stats, &min_max, &md5_hash, &encryption, &fft,
        &dct, &matrix_multiply, &euclidean_distance, &cosine_distance,
        &fully_connected, &element_mul, &sigmoid, &tanh_motif, &softmax,
        &max_pool, &avg_pool, &convolution, &dropout, &batch_norm,
        &cosine_norm, &reduce_sum, &reduce_max, &relu,
    };
    return registry;
}

const Motif *
findMotif(const std::string &name)
{
    for (const Motif *m : motifRegistry()) {
        if (m->name() == name)
            return m;
    }
    return nullptr;
}

} // namespace dmpb
