/**
 * @file
 * Big-data motif implementations (Fig. 2, left half).
 *
 * Every class generates its own input data (type, pattern and
 * distribution are parameterised, per Section II-A) and runs the
 * corresponding instrumented kernel(s). The sort and MD5 motifs
 * process their input in chunk_size blocks -- the paper's "chunk data
 * allocation per thread"; the others take data_size as one block.
 */

#ifndef DMPB_MOTIFS_BD_MOTIFS_HH
#define DMPB_MOTIFS_BD_MOTIFS_HH

#include "motifs/motif.hh"

namespace dmpb {

/**
 * Declare a concrete big-data motif class with the standard
 * interface. @p reads is its ParamRead set (motif.hh).
 */
#define DMPB_DECLARE_MOTIF(ClassName, motif_name, motif_class, reads)     \
    class ClassName : public Motif                                        \
    {                                                                     \
      public:                                                             \
        std::string name() const override { return motif_name; }         \
        MotifClass motifClass() const override                            \
        {                                                                 \
            return MotifClass::motif_class;                               \
        }                                                                 \
        bool isAi() const override { return false; }                     \
        std::uint32_t paramReads() const override { return reads; }      \
        std::uint64_t run(TraceContext &ctx,                              \
                          const MotifParams &p) const override;           \
    }

/** @{ Sort motif: quick sort and merge sort over gensort records,
 *     sorted in chunk_size runs. */
DMPB_DECLARE_MOTIF(QuickSortMotif, "quick_sort", Sort,
                   kBigDataReads | kReadsChunkSize);
DMPB_DECLARE_MOTIF(MergeSortMotif, "merge_sort", Sort,
                   kBigDataReads | kReadsChunkSize);
/** @} */

/** @{ Sampling motif: Bernoulli and strided selection. */
DMPB_DECLARE_MOTIF(RandomSamplingMotif, "random_sampling", Sampling,
                   kBigDataReads);
DMPB_DECLARE_MOTIF(IntervalSamplingMotif, "interval_sampling", Sampling,
                   kBigDataReads);
/** @} */

/** @{ Graph motif: CSR construction and BFS traversal. */
DMPB_DECLARE_MOTIF(GraphConstructMotif, "graph_construct", Graph,
                   kBigDataReads);
DMPB_DECLARE_MOTIF(GraphTraverseMotif, "graph_traverse", Graph,
                   kBigDataReads);
/** @} */

/** @{ Set motif (relational-algebra primitives). */
DMPB_DECLARE_MOTIF(SetUnionMotif, "set_union", Set, kBigDataReads);
DMPB_DECLARE_MOTIF(SetIntersectionMotif, "set_intersection", Set,
                   kBigDataReads);
DMPB_DECLARE_MOTIF(SetDifferenceMotif, "set_difference", Set,
                   kBigDataReads);
/** @} */

/** @{ Statistics motif. */
DMPB_DECLARE_MOTIF(CountAvgStatsMotif, "count_avg_stats", Statistics,
                   kBigDataReads);
DMPB_DECLARE_MOTIF(ProbabilityStatsMotif, "probability_stats", Statistics,
                   kBigDataReads);
DMPB_DECLARE_MOTIF(MinMaxMotif, "min_max", Statistics, kBigDataReads);
/** @} */

/** @{ Logic motif: MD5 hashing (chunk_size messages) and XTEA
 *     encryption. */
DMPB_DECLARE_MOTIF(Md5Motif, "md5_hash", Logic,
                   kBigDataReads | kReadsChunkSize);
DMPB_DECLARE_MOTIF(EncryptionMotif, "encryption", Logic, kBigDataReads);
/** @} */

/** @{ Transform motif: FFT/IFFT round trip and 8x8 DCT. */
DMPB_DECLARE_MOTIF(FftMotif, "fft", Transform, kBigDataReads);
DMPB_DECLARE_MOTIF(DctMotif, "dct", Transform, kBigDataReads);
/** @} */

/** @{ Matrix motif: dense multiply and distance computations. */
DMPB_DECLARE_MOTIF(MatMulMotif, "matrix_multiply", Matrix,
                   kBigDataReads);
DMPB_DECLARE_MOTIF(EuclideanDistanceMotif, "euclidean_distance", Matrix,
                   kBigDataReads);
DMPB_DECLARE_MOTIF(CosineDistanceMotif, "cosine_distance", Matrix,
                   kBigDataReads);
/** @} */

} // namespace dmpb

#endif // DMPB_MOTIFS_BD_MOTIFS_HH
