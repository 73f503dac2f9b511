/**
 * @file
 * AI motif implementations (Fig. 2, right half).
 *
 * Shapes follow Section II-A: batch size, height/width, channel count,
 * filter shape, stride and the NCHW/NHWC storage formats. total_size
 * (Table I) is the number of input samples to process; iterations of
 * batch_size samples run until it is covered.
 */

#ifndef DMPB_MOTIFS_AI_MOTIFS_HH
#define DMPB_MOTIFS_AI_MOTIFS_HH

#include "motifs/motif.hh"

namespace dmpb {

#define DMPB_DECLARE_AI_MOTIF(ClassName, motif_name, motif_class)        \
    class ClassName : public Motif                                        \
    {                                                                     \
      public:                                                             \
        std::string name() const override { return motif_name; }         \
        MotifClass motifClass() const override                            \
        {                                                                 \
            return MotifClass::motif_class;                               \
        }                                                                 \
        bool isAi() const override { return true; }                      \
        std::uint32_t paramReads() const override { return kAiReads; }   \
        std::uint64_t run(TraceContext &ctx,                              \
                          const MotifParams &p) const override;           \
    }

/** @{ Matrix class (Fig. 2): fully connected, element-wise,
 *     sigmoid/tanh/softmax. */
DMPB_DECLARE_AI_MOTIF(FullyConnectedMotif, "fully_connected", Matrix);
DMPB_DECLARE_AI_MOTIF(ElementMulMotif, "element_mul", Matrix);
DMPB_DECLARE_AI_MOTIF(SigmoidMotif, "sigmoid", Matrix);
DMPB_DECLARE_AI_MOTIF(TanhMotif, "tanh", Matrix);
DMPB_DECLARE_AI_MOTIF(SoftmaxMotif, "softmax", Matrix);
/** @} */

/** @{ Sampling class: pooling. */
DMPB_DECLARE_AI_MOTIF(MaxPoolMotif, "max_pool", Sampling);
DMPB_DECLARE_AI_MOTIF(AvgPoolMotif, "avg_pool", Sampling);
/** @} */

/** @{ Transform class: convolution. */
DMPB_DECLARE_AI_MOTIF(ConvolutionMotif, "convolution", Transform);
/** @} */

/** @{ Statistics class: dropout, batch norm, cosine norm, reduce sum. */
DMPB_DECLARE_AI_MOTIF(DropoutMotif, "dropout", Statistics);
DMPB_DECLARE_AI_MOTIF(BatchNormMotif, "batch_norm", Statistics);
DMPB_DECLARE_AI_MOTIF(CosineNormMotif, "cosine_norm", Statistics);
DMPB_DECLARE_AI_MOTIF(ReduceSumMotif, "reduce_sum", Statistics);
/** @} */

/** @{ Logic class: ReLU. */
DMPB_DECLARE_AI_MOTIF(ReluMotif, "relu", Logic);
/** @} */

/** @{ Sort class: reduce max. */
DMPB_DECLARE_AI_MOTIF(ReduceMaxMotif, "reduce_max", Sort);
/** @} */

} // namespace dmpb

#endif // DMPB_MOTIFS_AI_MOTIFS_HH
