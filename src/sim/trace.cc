#include "sim/trace.hh"

#include "base/logging.hh"

namespace dmpb {

namespace {

/** Initial i-fetch footprint; reset() restores it too. */
constexpr std::uint64_t kDefaultCodeFootprint = 32 * 1024;

} // namespace

TraceContext::TraceContext(const MachineConfig &machine,
                           std::uint32_t l3_sharers,
                           std::uint64_t sample_period,
                           std::size_t batch_capacity)
    : machine_(machine),
      caches_(std::make_unique<CacheHierarchy>(machine.caches,
                                               l3_sharers)),
      predictor_(std::make_unique<GsharePredictor>(
          machine.predictor.table_bits, machine.predictor.history_bits)),
      code_footprint_(kDefaultCodeFootprint),
      line_bytes_(machine.caches.l1d.line_bytes),
      sample_period_(sample_period == 0 ? 1 : sample_period),
      l3_sharers_(l3_sharers),
      batch_capacity_(batch_capacity == 0 ? defaultSimBatchCapacity()
                                          : batch_capacity)
{
    dmpb_assert(line_bytes_ > 0, "bad line size");
    if (batch_capacity_ > 1)
        batch_.reserve(batch_capacity_);
}

void
TraceContext::setCodeFootprint(std::uint64_t bytes)
{
    // Clamp to at least one line so advancePc always makes progress.
    code_footprint_ = bytes < line_bytes_ ? line_bytes_ : bytes;
    hot_base_ = 0;
    hot_off_ = 0;
}

KernelProfile
TraceContext::profile() const
{
    flushBatch();
    KernelProfile p;
    p.ops = counts_;
    p.l1i = caches_->l1i().stats();
    p.l1d = caches_->l1d().stats();
    p.l2 = caches_->l2().stats();
    p.l3 = caches_->l3().stats();
    if (sample_period_ > 1) {
        double f = static_cast<double>(sample_period_);
        p.l1i.scale(f);
        p.l1d.scale(f);
        p.l2.scale(f);
        p.l3.scale(f);
    }
    p.branch = predictor_->stats();
    p.disk_read_bytes = disk_read_;
    p.disk_write_bytes = disk_write_;
    p.net_bytes = net_;
    p.accel_macs = accel_macs_;
    p.accel_cycles = accel_cycles_;
    p.merge(absorbed_);
    return p;
}

void
TraceContext::reset()
{
    // Settle the replay worker before touching model state: any
    // in-flight block is applied, then wiped with the reset below --
    // observationally identical to discarding it. The worker thread
    // itself stays alive, which is most of what replica pooling
    // saves (no thread create/join per job).
    if (replayer_)
        replayer_->drain();
    batch_.clear();
    counts_ = OpCounts{};
    absorbed_ = KernelProfile{};
    disk_read_ = disk_write_ = net_ = 0;
    accel_macs_ = accel_cycles_ = 0;
    code_footprint_ = kDefaultCodeFootprint;
    hot_base_ = hot_off_ = pc_bytes_ = 0;
    ops_since_loop_br_ = 0;
    if_lcg_ = 0x2545f4914f6cdd1dULL;
    jump_countdown_ = 777;
    sample_clock_ = 0;
    // Fresh-construction equivalence needs the virtual-address arena
    // back at its start, or a reused replica would hand out different
    // addresses -- and therefore a different trace -- than a new one.
    va_next_ = kDataBase;
    va_free_.clear();
    capture_sink_ = nullptr;
    // Models reset in place (no reallocation): state-hash-identical
    // to fresh construction, enforced by tests.
    caches_->reset();
    predictor_->reset();
}

} // namespace dmpb
