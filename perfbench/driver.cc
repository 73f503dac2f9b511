/**
 * @file
 * In-process half of the dmpb benchmark (run.py is the other half).
 *
 * Runs one measured phase against the library's public API and prints
 * one JSON document on stdout. Modes:
 *
 *   generate  cold PipelineService::execute for every registry
 *             workload at quick scale, fresh empty cache dirs per pass
 *   colocate  runColocation(pagerank, wordcount, alexnet) under
 *             critical-phase-aware, reference cache off
 *   probe     per-layer probes: proxy execution and cache-layer hits,
 *             then the motif-emission vs sim-replay split
 *
 * --passes N repeats the measured work N times. --ready-only 1 does a
 * mode's set-up, prints the moment it finished and exits (run.py times
 * set-up with it).
 *
 * With --spans PATH, generate and colocate first run their phase
 * untraced, then again with spans around the calls into each module,
 * and write the spans to PATH. probe always records spans.
 *
 * Thread knobs are pinned: tuner.jobs = 2, sim.shards = 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/names.hh"
#include "base/rng.hh"
#include "core/auto_tuner.hh"
#include "core/cache_layer.hh"
#include "core/proxy_cache.hh"
#include "core/proxy_factory.hh"
#include "core/reference_cache.hh"
#include "runner/pipeline_service.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/engine.hh"
#include "sim/trace.hh"
#include "stack/cluster.hh"
#include "workloads/registry.hh"

namespace {

using namespace dmpb;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kTunerJobs = 2;
constexpr std::size_t kSimShards = 1;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::uint64_t
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One recorded span; parent is an index into the same vector. */
struct Span
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t request = 0;
    std::uint64_t count = 0;
};

/** In-memory span recorder; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    int
    begin(const std::string &name, std::uint64_t request)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.name = name;
        s.parent = open_.empty() ? -1 : open_.back();
        s.request = request;
        s.start_ns = nowNs();
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size() - 1));
        return open_.back();
    }

    void
    end(int id, std::uint64_t count = 0)
    {
        if (id < 0)
            return;
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.end_ns = nowNs();
        s.count = count;
        open_.pop_back();
    }

    void
    write(const std::string &path) const
    {
        JsonWriter json;
        json.openArray();
        for (const Span &s : spans_) {
            json.openObject();
            json.field("name", s.name);
            json.field("start_ns", static_cast<double>(s.start_ns));
            json.field("end_ns", static_cast<double>(s.end_ns));
            json.field("parent", static_cast<double>(s.parent));
            json.field("request", s.request);
            json.field("count", s.count);
            json.closeObject();
        }
        json.closeArray();
        std::ofstream out(path);
        out << json.str() << "\n";
        if (!out)
            throw std::runtime_error("cannot write spans to " + path);
    }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

struct Options
{
    std::string mode;
    std::uint64_t seed = 99;
    std::string work = ".perfbench/run";
    std::string spans;
    std::uint32_t passes = 1;
    bool ready_only = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver generate|colocate|probe"
                 " [--seed N] [--work DIR] [--passes N] [--spans PATH]"
                 " [--ready-only 0|1]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    Options o;
    o.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        std::string value = argv[++i];
        if (arg == "--seed")
            o.seed = std::stoull(value);
        else if (arg == "--work")
            o.work = value;
        else if (arg == "--spans")
            o.spans = value;
        else if (arg == "--passes")
            o.passes = static_cast<std::uint32_t>(std::stoul(value));
        else if (arg == "--ready-only")
            o.ready_only = value == "1";
        else
            usage("unknown option " + arg);
    }
    if (o.passes == 0)
        usage("--passes must be >= 1");
    return o;
}

ServiceConfig
serviceConfig(const std::string &cache_dir)
{
    ServiceConfig cfg;
    cfg.cluster = paperCluster5();
    cfg.tuner.jobs = kTunerJobs;
    cfg.sim.shards = kSimShards;
    if (!cache_dir.empty()) {
        cfg.cache.proxy_dir = cache_dir + "/tuner";
        cfg.cache.ref_dir = cache_dir + "/ref";
    }
    return cfg;
}

/** A fresh, empty directory. */
std::string
freshDir(const std::string &path)
{
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

std::vector<std::string>
registryNames()
{
    std::vector<std::string> names;
    for (const WorkloadRegistry::Entry &e :
         WorkloadRegistry::instance().entries())
        names.push_back(e.name);
    return names;
}

std::unique_ptr<Workload>
makeQuick(const std::string &name)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.scale = Scale::Quick;
    return WorkloadRegistry::instance().make(spec);
}

/** The proxy PipelineService::run builds before tuning. */
ProxyBenchmark
seededProxy(const Workload &workload, const ServiceConfig &cfg,
            std::uint64_t seed)
{
    ProxyBenchmark proxy = decomposeWorkload(workload);
    proxy.setSimConfig(cfg.sim);
    proxy.baseParams().seed = mixSeed(seed, shortName(workload.name()));
    return proxy;
}

/** The tuner budget PipelineService::run tunes that proxy under. */
TunerConfig
seededTuner(const Workload &workload, const ServiceConfig &cfg,
            std::uint64_t seed)
{
    TunerConfig tuner = scaleTunerConfig(Scale::Quick, cfg.tuner);
    tuner.seed = mixSeed(seed, shortName(workload.name()) + "/tuner");
    return tuner;
}

/** Close @p json with the fields every mode reports and print it. */
void
printResult(JsonWriter &json, std::int64_t ready_ns)
{
    json.field("ready_mono", static_cast<double>(ready_ns) * 1e-9);
    json.field("peak_rss_kb", peakRssKb());
    json.closeObject();
    std::cout << json.str() << "\n";
}

// ------------------------------------------------------------ generate

struct GeneratePlan
{
    std::vector<std::string> names;
    std::vector<std::unique_ptr<PipelineService>> services;  // per pass
};

GeneratePlan
setUpGenerate(const Options &o)
{
    GeneratePlan plan;
    plan.names = registryNames();
    for (std::uint32_t p = 0; p < o.passes; ++p) {
        std::string dir =
            freshDir(o.work + "/generate-pass" + std::to_string(p));
        plan.services.push_back(
            std::make_unique<PipelineService>(serviceConfig(dir)));
    }
    return plan;
}

int
runGenerate(const Options &o)
{
    GeneratePlan plan = setUpGenerate(o);
    const std::int64_t ready = nowNs();
    JsonWriter json;
    json.openObject();
    json.field("mode", "generate");
    if (o.ready_only) {
        printResult(json, ready);
        return 0;
    }
    Tracer tracer(!o.spans.empty());

    // Measured phase: every pass executes every workload cold.
    std::vector<std::vector<WorkloadOutcome>> passes(o.passes);
    const double cpu0 = cpuSeconds();
    const std::int64_t t0 = nowNs();
    for (std::uint32_t p = 0; p < o.passes; ++p) {
        for (std::size_t i = 0; i < plan.names.size(); ++i) {
            PipelineRequest req;
            req.workload = plan.names[i];
            req.scale = Scale::Quick;
            req.seed = o.seed;
            int span = tracer.begin("runner.execute", i);
            passes[p].push_back(plan.services[p]->execute(req));
            tracer.end(span);
        }
    }
    const double wall_s = static_cast<double>(nowNs() - t0) * 1e-9;
    const double cpu_s = cpuSeconds() - cpu0;

    json.field("wall_s", wall_s);
    json.field("cpu_s", cpu_s);
    json.openArray("ops");
    for (std::uint32_t p = 0; p < o.passes; ++p) {
        for (std::size_t i = 0; i < passes[p].size(); ++i) {
            const WorkloadOutcome &w = passes[p][i];
            json.openObject();
            json.field("pass", static_cast<std::uint64_t>(p));
            json.field("workload", w.short_name);
            json.field("status", runStatusName(w.status));
            json.field("error", w.error);
            json.field("checksum", hex(w.proxy.checksum));
            json.field("avg_accuracy", w.avg_accuracy);
            json.field("qualified", w.qualified);
            json.field("evaluations",
                       static_cast<std::uint64_t>(w.evaluations));
            json.field("iterations",
                       static_cast<std::uint64_t>(w.iterations));
            json.closeObject();
        }
    }
    json.closeArray();

    if (!o.spans.empty()) {
        // Traced recomposition of pass 0: the stages
        // PipelineService::run calls, with the same seeds and tuner
        // budget, each under its own span. It must reproduce
        // execute() bit for bit.
        const ServiceConfig &cfg = plan.services[0]->config();
        const std::int64_t r0 = nowNs();
        json.openArray("recompose");
        for (std::size_t i = 0; i < plan.names.size(); ++i) {
            std::unique_ptr<Workload> wl = makeQuick(plan.names[i]);
            int root = tracer.begin("runner.pipeline", i);
            int span = tracer.begin("workloads.run", i);
            WorkloadResult real = wl->run(cfg.cluster);
            tracer.end(span);
            span = tracer.begin("core.decompose", i);
            ProxyBenchmark proxy = seededProxy(*wl, cfg, o.seed);
            TunerConfig tuner = seededTuner(*wl, cfg, o.seed);
            tracer.end(span);
            span = tracer.begin("core.tune", i);
            AutoTuner auto_tuner(real.metrics, tuner);
            TunerReport report = auto_tuner.tune(proxy, cfg.cluster.node);
            tracer.end(span, report.evaluations);
            tracer.end(root);

            const WorkloadOutcome &ref = passes[0][i];
            const bool match =
                report.final_result.checksum == ref.proxy.checksum &&
                report.avg_accuracy == ref.avg_accuracy &&
                report.qualified == ref.qualified &&
                report.evaluations == ref.evaluations &&
                report.iterations == ref.iterations;
            json.openObject();
            json.field("workload", ref.short_name);
            json.field("checksum", hex(report.final_result.checksum));
            json.field("avg_accuracy", report.avg_accuracy);
            json.field("evaluations",
                       static_cast<std::uint64_t>(report.evaluations));
            json.field("iterations",
                       static_cast<std::uint64_t>(report.iterations));
            json.field("qualified", report.qualified);
            json.field("match", match);
            json.closeObject();
        }
        json.closeArray();
        json.field("traced_wall_s",
                   static_cast<double>(nowNs() - r0) * 1e-9);
        tracer.write(o.spans);
    }
    printResult(json, ready);
    return 0;
}

// ------------------------------------------------------------ colocate

ColocationRequest
colocationRequest(std::uint64_t seed)
{
    ColocationRequest req;
    req.spec.workloads = {"pagerank", "wordcount", "alexnet"};
    req.spec.policy = "critical-phase-aware";
    req.spec.scale = Scale::Quick;
    req.spec.seed = seed;
    return req;
}

void
writeColocation(JsonWriter &json, const ColocationOutcome &out)
{
    std::uint64_t bytes = 0;
    for (const TenantOutcome &t : out.tenants)
        bytes += t.compressed_bytes;
    json.field("status", runStatusName(out.status));
    json.field("error", out.error);
    json.field("checksum", hex(out.checksum));
    json.field("compressed_bytes", bytes);
}

int
runColocate(const Options &o)
{
    // Reference cache off: an empty CacheConfig disables every level.
    PipelineService service(serviceConfig(""));
    const ColocationRequest req = colocationRequest(o.seed);
    const std::int64_t ready = nowNs();
    JsonWriter json;
    json.openObject();
    json.field("mode", "colocate");
    if (o.ready_only) {
        printResult(json, ready);
        return 0;
    }

    const double cpu0 = cpuSeconds();
    const std::int64_t t0 = nowNs();
    std::vector<ColocationOutcome> runs;
    for (std::uint32_t p = 0; p < o.passes; ++p)
        runs.push_back(service.executeColocation(req));
    json.field("wall_s", static_cast<double>(nowNs() - t0) * 1e-9);
    json.field("cpu_s", cpuSeconds() - cpu0);
    json.openArray("ops");
    for (const ColocationOutcome &out : runs) {
        json.openObject();
        writeColocation(json, out);
        json.closeObject();
    }
    json.closeArray();

    if (!o.spans.empty()) {
        Tracer tracer(true);
        const std::int64_t r0 = nowNs();
        int span = tracer.begin("core.colocate", 0);
        ColocationOutcome traced = service.executeColocation(req);
        std::uint64_t events = 0;
        for (const TenantOutcome &t : traced.tenants)
            events += t.captured_events;
        tracer.end(span, events);
        json.field("traced_wall_s",
                   static_cast<double>(nowNs() - r0) * 1e-9);
        json.openObject("traced");
        writeColocation(json, traced);
        json.closeObject();
        tracer.write(o.spans);
    }
    printResult(json, ready);
    return 0;
}

// --------------------------------------------------------------- probe

/** Replays each captured block as it arrives, under a sim.replay span
 *  (a child of the motif span that emitted it). */
class ReplaySink : public BatchSink
{
  public:
    ReplaySink(const MachineConfig &machine, std::uint32_t sharers,
               Tracer &tracer, std::uint64_t request)
        : caches_(machine.caches, sharers),
          predictor_(machine.predictor.table_bits,
                     machine.predictor.history_bits),
          tracer_(tracer), request_(request)
    {}

    void
    consume(AccessBatch &block) override
    {
        int span = tracer_.begin("sim.replay", request_);
        replayBatch(block, caches_, predictor_);
        tracer_.end(span, block.size());
        events_ += block.size();
    }

    std::uint64_t events() const { return events_; }

  private:
    CacheHierarchy caches_;
    GsharePredictor predictor_;
    Tracer &tracer_;
    std::uint64_t request_;
    std::uint64_t events_ = 0;
};

/**
 * Emit every edge motif of @p proxy exactly as ProxyBenchmark::execute
 * parameterises it (per-task working set at @p trace_cap, per-edge
 * seed), replaying inline into fresh models. Each motif span counts
 * the events it emitted.
 */
void
probeMotifs(const ProxyBenchmark &proxy, const MachineConfig &machine,
            std::uint64_t trace_cap, std::size_t batch_capacity,
            Tracer &tracer, std::uint64_t request,
            std::uint64_t &checksum)
{
    const MotifParams &base = proxy.baseParams();
    const std::uint32_t tasks =
        std::max<std::uint32_t>(1, base.num_tasks);
    const std::uint32_t sharers = std::min(tasks, machine.totalCores());
    const std::uint64_t working_set = std::max<std::uint64_t>(
        64 * 1024, std::min<std::uint64_t>(base.data_size / tasks,
                                           trace_cap));
    for (std::size_t ei = 0; ei < proxy.edges().size(); ++ei) {
        const Motif &motif = *proxy.edges()[ei].motif;
        MotifParams p = base;
        p.seed = base.seed ^ mix64(ei + 1);
        if (motif.isAi()) {
            p.total_size = 0;
        } else {
            p.data_size = working_set;
            p.chunk_size = std::min<std::uint64_t>(p.chunk_size,
                                                   p.data_size);
        }
        TraceContext ctx(machine, sharers, 1, batch_capacity);
        ctx.setCodeFootprint(48 * 1024);
        ReplaySink sink(machine, sharers, tracer, request);
        ctx.setCaptureSink(&sink);
        int span = tracer.begin("motifs.run", request);
        checksum ^= motif.run(ctx, p);
        ctx.flushBatch();
        tracer.end(span, sink.events());
    }
}

int
runProbe(const Options &o)
{
    const ServiceConfig cfg = PipelineService(serviceConfig(""))
                                  .config();
    const MachineConfig &node = cfg.cluster.node;
    const std::string dir = freshDir(o.work + "/probe-cache");
    Tracer tracer(true);
    std::size_t failures = 0;
    std::string first_error;
    auto fail = [&](const std::string &what) {
        if (failures++ == 0)
            first_error = what;
    };

    JsonWriter json;
    json.openObject();
    json.field("mode", "probe");
    json.openArray("proxies");
    const std::vector<std::string> names = registryNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::unique_ptr<Workload> wl = makeQuick(names[i]);
        const std::string name = shortName(wl->name());
        const TunerConfig tuner = seededTuner(*wl, cfg, o.seed);
        const std::string key =
            "perfbench-" + name + "-seed" + std::to_string(o.seed);

        // A fresh proxy carries no trace memo: this is the full cost
        // of one proxy execution.
        ProxyBenchmark proxy = seededProxy(*wl, cfg, o.seed);
        int span = tracer.begin("core.proxy_exec", i);
        ProxyResult exec = proxy.execute(node, tuner.trace_cap);
        tracer.end(span);

        WorkloadResult ref;
        ref.name = wl->name();
        ref.runtime_s = exec.runtime_s;
        ref.metrics = exec.metrics;
        if (!saveReference(dir, key, ref) ||
            !saveProxyParams(dir, key, proxy, false))
            fail(name + ": cannot write the probe cache");

        // Reference layer: disk hit on a fresh layer, then memory hit.
        ReferenceLayer ref_layer(dir, 16);
        bool disk_hit = false;
        bool mem_hit = false;
        span = tracer.begin("core.refcache_disk_hit", i);
        WorkloadResult disk = ref_layer.measure(key, *wl, cfg.cluster,
                                                &disk_hit);
        tracer.end(span);
        span = tracer.begin("core.refcache_hit", i);
        WorkloadResult mem = ref_layer.measure(key, *wl, cfg.cluster,
                                               &mem_hit);
        tracer.end(span);
        if (!disk_hit || !mem_hit || disk.runtime_s != exec.runtime_s ||
            mem.runtime_s != exec.runtime_s)
            fail(name + ": reference cache did not serve the entry");

        // Tuner layer: disk hit, then the memory hit a warm served
        // request takes; each replays the tuned proxy on a fresh copy.
        TunerLayer tuner_layer(dir, 16);
        ProxyBenchmark cold = seededProxy(*wl, cfg, o.seed);
        span = tracer.begin("core.tunercache_disk_hit", i);
        TunerReport r1 = tuner_layer.tune(key, cold, exec.metrics, node,
                                          tuner);
        tracer.end(span);
        ProxyBenchmark warm = seededProxy(*wl, cfg, o.seed);
        span = tracer.begin("core.tunercache_hit", i);
        TunerReport r2 = tuner_layer.tune(key, warm, exec.metrics, node,
                                          tuner);
        tracer.end(span);
        if (!r1.from_cache || !r2.from_cache ||
            r1.final_result.checksum != exec.checksum ||
            r2.final_result.checksum != exec.checksum)
            fail(name + ": tuner cache did not replay the entry");

        json.openObject();
        json.field("workload", name);
        json.field("checksum", hex(exec.checksum));
        json.closeObject();
    }
    json.closeArray();

    // Motif emission vs sim replay over the untuned decompositions.
    const std::size_t batch = defaultSimBatchCapacity() > 1
                                  ? defaultSimBatchCapacity()
                                  : 32768;
    std::uint64_t motif_checksum = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::unique_ptr<Workload> wl = makeQuick(names[i]);
        const ProxyBenchmark proxy = seededProxy(*wl, cfg, o.seed);
        const TunerConfig tuner = seededTuner(*wl, cfg, o.seed);
        probeMotifs(proxy, node, tuner.trace_cap, batch, tracer, i,
                    motif_checksum);
    }
    json.field("motif_checksum", hex(motif_checksum));
    json.field("failures", static_cast<std::uint64_t>(failures));
    json.field("error", first_error);
    tracer.write(o.spans);
    printResult(json, nowNs());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    try {
        std::filesystem::create_directories(o.work);
        if (o.mode == "generate")
            return runGenerate(o);
        if (o.mode == "colocate")
            return runColocate(o);
        if (o.mode == "probe")
            return runProbe(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
    usage("unknown mode " + o.mode);
}
