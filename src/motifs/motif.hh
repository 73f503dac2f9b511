/**
 * @file
 * The data-motif abstraction (paper Section II-A).
 *
 * A data motif is a unit of computation performed on initial or
 * intermediate data. Eight classes are identified by the paper:
 * Matrix, Sampling, Transform, Graph, Logic, Set, Sort, Statistics.
 * Each concrete motif here performs *real* computation on generated
 * data with real data types/patterns/distributions, and reports its
 * dynamic behaviour through a TraceContext, exactly as the paper's
 * light-weight POSIX-thread implementations report through PMCs.
 */

#ifndef DMPB_MOTIFS_MOTIF_HH
#define DMPB_MOTIFS_MOTIF_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "datagen/images.hh"
#include "sim/trace.hh"

namespace dmpb {

/** The eight data-motif classes of the paper. */
enum class MotifClass : std::uint8_t
{
    Matrix = 0,
    Sampling,
    Transform,
    Graph,
    Logic,
    Set,
    Sort,
    Statistics,
    NumClasses
};

/** Printable class name. */
const char *motifClassName(MotifClass c);

/**
 * Tunable parameters of a motif instance -- Table I of the paper,
 * plus the convolution-shape extras of Section II-A (filter size,
 * stride, layout).
 */
struct MotifParams
{
    /** @{ Big-data motif parameters (Table I). */
    std::uint64_t data_size = kMiB;      ///< input bytes
    std::uint64_t chunk_size = 256 * kKiB; ///< per-thread block bytes
    std::uint32_t num_tasks = 4;          ///< threads/processes
    /** @} */

    /** @{ AI motif parameters (Table I). */
    std::uint32_t batch_size = 16;
    std::uint64_t total_size = 0;        ///< total elements (0=derive)
    std::uint32_t height = 32;
    std::uint32_t width = 32;
    std::uint32_t channels = 16;
    /** @} */

    /** @{ Convolution/layout extras (Section II-A). */
    std::uint32_t filters = 16;          ///< output channels
    std::uint32_t kernel = 3;            ///< filter spatial size
    std::uint32_t stride = 1;
    DataLayout layout = DataLayout::NCHW;
    /** @} */

    /** Contribution of this motif in a DAG combination (Table I). */
    double weight = 1.0;

    /** Data-generation seed (proxies keep the original data type and
     *  distribution by sharing generator seeds with the workload). */
    std::uint64_t seed = 42;

    /** Sparsity for vector-consuming motifs (Fig. 7/8 experiments). */
    double sparsity = 0.0;
};

/**
 * The MotifParams fields one motif's run() reads, as a bit set of
 * these flags. Every motif reads `seed`; no motif reads `num_tasks`
 * or `weight` (the proxy executor applies both after the run).
 */
enum ParamRead : std::uint32_t
{
    kReadsDataSize = 1u << 0,   ///< data_size
    kReadsChunkSize = 1u << 1,  ///< chunk_size
    kReadsSparsity = 1u << 2,   ///< sparsity
    /** batch_size, total_size, height, width, channels, filters,
     *  kernel, stride and layout */
    kReadsTensorShape = 1u << 3,
};

/** What a big-data motif reads unless it also declares chunk_size. */
constexpr std::uint32_t kBigDataReads = kReadsDataSize | kReadsSparsity;
/** What every AI motif reads. */
constexpr std::uint32_t kAiReads = kReadsTensorShape;

/**
 * @p p with every field outside @p reads (and outside `seed`) set to
 * zero. A motif run on the projection is bit-identical to one run on
 * @p p, so the projection is an exact memo key for the run.
 */
MotifParams projectParams(const MotifParams &p, std::uint32_t reads);

/** Abstract data motif. */
class Motif
{
  public:
    virtual ~Motif() = default;

    /** Unique implementation name, e.g. "quick_sort". */
    virtual std::string name() const = 0;

    /** Which of the eight classes this implementation belongs to. */
    virtual MotifClass motifClass() const = 0;

    /** AI motif (true) vs big-data motif (false), per Fig. 2. */
    virtual bool isAi() const = 0;

    /** The ParamRead flags naming every field run() reads. */
    virtual std::uint32_t paramReads() const = 0;

    /**
     * Execute the motif: generate input data from p.seed, perform
     * the real computation over the fields paramReads() names (one
     * logical task; the proxy executor scales to num_tasks), and
     * emit every dynamic event into @p ctx.
     *
     * @return a checksum of the computed results (prevents dead-code
     *         elimination; determinism is unit-tested).
     */
    virtual std::uint64_t run(TraceContext &ctx,
                              const MotifParams &p) const = 0;
};

/** All registered motif implementations (big data + AI, Fig. 2). */
const std::vector<const Motif *> &motifRegistry();

/** Look up one implementation by name; nullptr when absent. */
const Motif *findMotif(const std::string &name);

} // namespace dmpb

#endif // DMPB_MOTIFS_MOTIF_HH
