/**
 * @file
 * Host-cost harness behind perfbench/run.py (see perfbench/README.md).
 *
 * One invocation runs one benchmark workload once, at one seed, and
 * prints one JSON object on stdout: host seconds spent constructing
 * each System and inside System::run(), the jobs and events simulated,
 * peak RSS, the simulated-stats digest, and per-layer model counters
 * read from System::statsRegistry().
 *
 * --trace=FILE runs the same cells a second time with spans around
 * System construction, System::run() and every Workload::nextJob, then
 * replays the recorded job stream through the run's own layer
 * instances, timing batches of calls, to price each layer from
 * outside the program; the spans go to FILE as JSONL.
 *
 * Only stable public API is used: SystemConfig, System's
 * constructor, run(), statsRegistry(), eventsExecuted(),
 * setJobSource() and layer accessors, Workload::nextJob,
 * Histogram::sample and SweepRunner.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "sim/json.hh"
#include "sim/option_parser.hh"
#include "sim/sweep_runner.hh"

using namespace astriflash;
using core::System;
using core::SystemConfig;
using core::SystemKind;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workloads ------------------------------------------------------

/**
 * Fig. 9 columns after the DRAM-only baseline, with the paper's mean
 * throughput normalized to DRAM-only, in percent. Source: Gupta et
 * al., "AstriFlash: A Flash-Based System for Online Services", HPCA
 * 2023, Fig. 9; the simulator's own numbers for the same grid are the
 * "Figure 9" table in EXPERIMENTS.md.
 */
struct Fig9Column {
    SystemKind kind;
    const char *metric;
    double paperPct;
};
constexpr Fig9Column kFig9Columns[] = {
    {SystemKind::AstriFlash, "fig9.astriflash_norm", 95.0},
    {SystemKind::AstriFlashIdeal, "fig9.ideal_norm", 96.0},
    {SystemKind::OsSwap, "fig9.osswap_norm", 58.0},
    {SystemKind::FlashSync, "fig9.flashsync_norm", 27.0},
};
constexpr std::size_t kFig9RowWidth = std::size(kFig9Columns) + 1;

struct BenchWorkload {
    std::vector<SystemConfig> cells;
    unsigned threads = 1;
    bool fig9 = false;
};

/** Build @p name's cells; @p toy shrinks every run for self-checks. */
bool
makeWorkload(const std::string &name, std::uint64_t seed, bool toy,
             BenchWorkload *out)
{
    SystemConfig cfg;
    cfg.seed = seed;
    cfg.workload.datasetBytes = toy ? 256ull << 20 : 1ull << 30;
    cfg.warmupJobs = toy ? 200 : 2000;
    cfg.measureJobs = toy ? 2000 : 20000;
    if (name == "tatp_256c") {
        // ROADMAP's headline config: 256 private hierarchies, MSR
        // saturated, closed loop.
        cfg.kind = SystemKind::AstriFlash;
        cfg.workloadKind = workload::Kind::Tatp;
        cfg.cores = toy ? 16 : 256;
        out->cells.push_back(cfg);
        return true;
    }
    if (name == "tpcc_16c_open") {
        // Open loop in simulated time only: a fixed mean gap of 5 us
        // is ~70% of this config's closed-loop maximum (~288k jobs/s).
        cfg.kind = SystemKind::AstriFlash;
        cfg.workloadKind = workload::Kind::Tpcc;
        cfg.cores = toy ? 4 : 16;
        cfg.meanInterarrival = sim::microseconds(toy ? 20 : 5);
        out->cells.push_back(cfg);
        return true;
    }
    if (name == "fig9_grid") {
        // The cells of bench/fig9_throughput: every workload under
        // DRAM-only (the row's baseline) and the four Fig. 9 columns.
        cfg.cores = toy ? 2 : 8;
        cfg.warmupJobs = toy ? 100 : 800;
        cfg.measureJobs = toy ? 600 : 6000;
        for (workload::Kind wl : workload::kAllKinds) {
            cfg.workloadKind = wl;
            cfg.kind = SystemKind::DramOnly;
            out->cells.push_back(cfg);
            for (const Fig9Column &col : kFig9Columns) {
                cfg.kind = col.kind;
                out->cells.push_back(cfg);
            }
        }
        out->threads = 2;
        out->fig9 = true;
        return true;
    }
    return false;
}

// --- Stats tree access -----------------------------------------------

using StatMap = std::map<std::string, double>;

/** Parse StatRegistry::dump()'s "name = value" lines. */
StatMap
parseDump(const std::string &dump)
{
    StatMap out;
    std::istringstream in(dump);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t eq = line.find(" = ");
        if (eq == std::string::npos)
            continue;
        out[line.substr(0, eq)] =
            std::strtod(line.c_str() + eq + 3, nullptr);
    }
    return out;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/**
 * Visit every stat named @p prefix + <index> + @p suffix, where <index>
 * is empty or all digits: per-core subtrees ("core", ".hier.accesses")
 * and BC shards ("dcache.bc", ".msr.set_full_stalls" matches "bc" and
 * "bc0", "bc1", ... but never "bc_to_fc").
 */
template <typename Fn>
void
forEachIndexed(const StatMap &stats, const std::string &prefix,
               const std::string &suffix, Fn &&fn)
{
    for (auto it = stats.lower_bound(prefix);
         it != stats.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        const std::string &name = it->first;
        if (name.size() < prefix.size() + suffix.size() ||
            !endsWith(name, suffix))
            continue;
        const std::size_t idx_end = name.size() - suffix.size();
        bool digits = true;
        for (std::size_t i = prefix.size(); i < idx_end; ++i)
            digits = digits && name[i] >= '0' && name[i] <= '9';
        if (digits)
            fn(name.substr(0, idx_end), it->second);
    }
}

double
sumIndexed(const StatMap &stats, const std::string &prefix,
           const std::string &suffix)
{
    double total = 0;
    forEachIndexed(stats, prefix, suffix,
                   [&](const std::string &, double v) { total += v; });
    return total;
}

double
maxIndexed(const StatMap &stats, const std::string &prefix,
           const std::string &suffix)
{
    double best = 0;
    forEachIndexed(stats, prefix, suffix, [&](const std::string &, double v) {
        best = std::max(best, v);
    });
    return best;
}

double
stat(const StatMap &stats, const std::string &name)
{
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second;
}

/*
 * Stat lifetimes. System::beginMeasurement() zeroes the service and
 * response histograms and the own stats of each SimCore, the DRAM
 * cache's FC and BC controllers, the flash devices and the OS model,
 * so those count the measurement window only. It leaves the structures
 * below them alone: core hierarchies (and their MSHRs), TLBs and
 * schedulers, the BC's MSR and evict buffer, the DRAM model, the
 * channels and the OS shootdown bus count the whole run, warmup and
 * prewarm included.
 */

/** Whether histogram @p name (a path without ".count") is one that
 *  System::beginMeasurement() resets. */
bool
windowHistogram(const std::string &name)
{
    return name == "system.service" || name == "system.response" ||
           name == "dcache.fc.hit_latency" ||
           name == "os.fault_to_runnable" ||
           (name.compare(0, 9, "dcache.bc") == 0 &&
            endsWith(name, ".miss_penalty")) ||
           (name.compare(0, 6, "flash.") == 0 &&
            (endsWith(name, ".read_latency") ||
             endsWith(name, ".write_latency")));
}

/** Samples recorded by the histograms in a dump (the leaves that
 *  render a p50 line), split by lifetime. */
struct HistSamples {
    double window = 0; ///< Reset at the start of measurement.
    double whole = 0;  ///< Counting the whole run.

    double total() const { return window + whole; }
};

HistSamples
histogramSamples(const StatMap &stats)
{
    HistSamples out;
    static const std::string p50 = ".p50";
    for (const auto &[name, v] : stats) {
        (void)v;
        if (!endsWith(name, p50))
            continue;
        const std::string hist = name.substr(0, name.size() - p50.size());
        (windowHistogram(hist) ? out.window : out.whole) +=
            stat(stats, hist + ".count");
    }
    return out;
}

/** DramCache accesses (hits, misses and merged misses) in a dump. */
double
fcAccesses(const StatMap &stats)
{
    return stat(stats, "dcache.fc.hits") + stat(stats, "dcache.fc.misses") +
           stat(stats, "dcache.fc.misses_merged");
}

double
subtreeHistogramSamples(const System &sys, const char *path)
{
    const sim::StatRegistry *sub = sys.statsRegistry().findSub(path);
    return sub ? histogramSamples(parseDump(sub->dump())).total() : 0.0;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 1469598103934665603ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// --- Tracing -----------------------------------------------------------

/** One traced interval, in ns since the cell's epoch. */
struct Span {
    const char *name;
    std::int64_t startNs;
    std::int64_t endNs;
    std::int32_t parent; ///< Index into the cell's spans, or -1.
};

struct LayerTime {
    double seconds = 0;
    std::uint64_t calls = 0;

    double
    ns() const
    {
        return calls ? seconds * 1e9 / static_cast<double>(calls) : 0.0;
    }
};

/** Host cost of each layer, as replayed from outside. */
struct ReplayCost {
    LayerTime hier;  ///< CacheHierarchy::access (+ fill on LLC miss).
    LayerTime fc;    ///< DramCache::access, inclusive.
    LayerTime flash; ///< FlashFabric::submit, inclusive.
    LayerTime hist;  ///< Histogram::sample.
    /** Calls the timed fc batches made into nested layers. */
    std::uint64_t fcFlashCmds = 0;
    std::uint64_t fcHistSamples = 0;
    /** Histogram samples the timed flash batches made. */
    std::uint64_t flashHistSamples = 0;
};

/** One job the traced run's generators produced, with its core. */
struct RecordedJob {
    std::uint32_t core;
    std::vector<workload::Op> ops;
};

class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : epoch(epoch) {}

    std::int32_t
    open(const char *name, std::int32_t parent)
    {
        spans.push_back({name, now(), -1, parent});
        return static_cast<std::int32_t>(spans.size() - 1);
    }

    void close(std::int32_t idx) { spans[idx].endNs = now(); }

    void
    add(const char *name, Clock::time_point t0, Clock::time_point t1,
        std::int32_t parent)
    {
        spans.push_back({name, at(t0), at(t1), parent});
    }

    std::int64_t now() const { return at(Clock::now()); }

    std::vector<Span> spans;

  private:
    std::int64_t
    at(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch)
            .count();
    }

    Clock::time_point epoch;
};

/**
 * Job source for the traced run: per-core generators seeded exactly
 * as System seeds its own, each call spanned and its ops kept for the
 * replay.
 */
class RecordingJobSource
{
  public:
    RecordingJobSource(const SystemConfig &cfg, SpanLog &log)
        : log(log)
    {
        for (std::uint32_t c = 0; c < cfg.cores; ++c) {
            workload::WorkloadConfig wc = cfg.workload;
            wc.seed = cfg.seed * 1000003 + c;
            gens.push_back(workload::makeWorkload(cfg.workloadKind, wc));
        }
    }

    workload::Job
    next(std::uint32_t core)
    {
        const auto t0 = Clock::now();
        workload::Job job = gens[core]->nextJob();
        const auto t1 = Clock::now();
        log.add("workload.nextJob", t0, t1, parentSpan);
        cost.seconds += std::chrono::duration<double>(t1 - t0).count();
        ++cost.calls;
        ops += job.ops.size();
        stream.push_back({core, job.ops});
        return job;
    }

    std::int32_t parentSpan = -1;
    LayerTime cost;
    std::uint64_t ops = 0;
    std::vector<RecordedJob> stream;

  private:
    SpanLog &log;
    std::vector<std::unique_ptr<workload::Workload>> gens;
};

/** Run the event queue until nothing is pending (post-run quiesce). */
void
drain(System &sys)
{
    sim::EventQueue &eq = sys.eventQueue();
    std::uint64_t steps = 0;
    while (!eq.empty()) {
        steps += eq.runSteps(1u << 16);
        if (steps > 200'000'000ull) {
            std::fprintf(stderr, "perfbench: post-run drain did not "
                                 "quiesce\n");
            std::exit(1);
        }
    }
}

struct Access {
    mem::Addr pa;
    std::uint32_t core;
    bool write;
};

constexpr std::size_t kBatch = 1024;

/**
 * Replay @p stream after @p sys's run. The on-chip hierarchies are
 * cold at the start of a run and small enough to hold a core's whole
 * access history afterwards, so the mem replay goes through @p fresh,
 * an unrun System of the same config. System::run() prewarms the DRAM
 * cache, so the fc replay feeds the replayed LLC-miss stream to the
 * run's own DramCache, draining the queue between batches so misses
 * complete. The flash replay submits the replayed
 * DRAM-cache misses, plus writebacks at the run's write:read ratio, to
 * @p sys's fabric; the histogram replay samples the replayed latencies
 * into a fresh Histogram. Replayed calls are spaced in simulated time
 * as the run's measurement window spaced its own (@p window_fc DramCache
 * calls and res.flashReads + res.flashWrites flash commands).
 */
ReplayCost
replayLayers(System &sys, System &fresh,
             const std::vector<RecordedJob> &stream,
             const core::RunResults &res, double window_fc,
             SpanLog &log, std::int32_t parent)
{
    ReplayCost cost;
    drain(sys);

    std::vector<Access> accesses;
    for (const RecordedJob &job : stream) {
        for (const workload::Op &op : job.ops) {
            if (op.type == workload::Op::Type::Compute)
                continue;
            accesses.push_back(
                {sys.dataPa(op.addr), job.core,
                 op.type == workload::Op::Type::Store});
        }
    }

    // mem: every access of every job, on the core that ran it.
    std::vector<std::uint8_t> llc_miss(accesses.size());
    std::vector<std::uint64_t> latency(accesses.size());
    auto span_t0 = Clock::now();
    for (std::size_t b = 0; b < accesses.size(); b += kBatch) {
        const std::size_t e = std::min(accesses.size(), b + kBatch);
        const auto t0 = Clock::now();
        for (std::size_t i = b; i < e; ++i) {
            const Access &a = accesses[i];
            mem::CacheHierarchy &hier = fresh.coreAt(a.core).hierarchy();
            const mem::HierarchyAccess h = hier.access(a.pa, a.write);
            if (h.llcMiss)
                hier.fillFromMemory(a.pa, a.write);
            llc_miss[i] = h.llcMiss;
            latency[i] = h.latency;
        }
        cost.hier.seconds += secondsSince(t0);
        cost.hier.calls += e - b;
    }
    log.add("replay.mem.hier", span_t0, Clock::now(), parent);

    // core.fc: the LLC-miss stream, spaced as the run spaced it.
    std::vector<Access> misses;
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        if (llc_miss[i])
            misses.push_back(accesses[i]);
    }
    std::vector<Access> dc_misses;
    core::DramCache *dc = sys.dramCache();
    sim::EventQueue &eq = sys.eventQueue();
    const auto flash_cmds = [&sys] {
        return sys.flash().readsCompleted() + sys.flash().writesAccepted();
    };
    span_t0 = Clock::now();
    if (dc && !misses.empty() && window_fc > 0) {
        const sim::Ticks gap = std::max<sim::Ticks>(
            1, static_cast<sim::Ticks>(
                   static_cast<double>(res.measureTicks) / window_fc));
        sim::Ticks t = eq.curTick();
        dc_misses.reserve(misses.size());
        latency.reserve(latency.size() + misses.size());
        for (std::size_t b = 0; b < misses.size(); b += kBatch) {
            const std::size_t e = std::min(misses.size(), b + kBatch);
            const double hist0 = subtreeHistogramSamples(sys, "dcache");
            const std::uint64_t flash0 = flash_cmds();
            const auto t0 = Clock::now();
            for (std::size_t i = b; i < e; ++i) {
                const Access &m = misses[i];
                const core::DcAccess r = dc->access(m.pa, m.write, t, m.core);
                if (!r.hit)
                    dc_misses.push_back(m);
                latency.push_back(r.ready - t);
                t += gap;
            }
            cost.fc.seconds += secondsSince(t0);
            cost.fc.calls += e - b;
            cost.fcFlashCmds += flash_cmds() - flash0;
            cost.fcHistSamples += static_cast<std::uint64_t>(
                subtreeHistogramSamples(sys, "dcache") - hist0);
            drain(sys);
            t = std::max(t, eq.curTick());
        }
    }
    log.add("replay.core.fc", span_t0, Clock::now(), parent);

    // flash: reads for the replayed DRAM-cache misses, plus writebacks
    // at the run's write:read ratio.
    std::vector<flash::FlashCommand> cmds;
    const double wr_ratio =
        res.flashReads ? static_cast<double>(res.flashWrites) /
                             static_cast<double>(res.flashReads)
                       : 0.0;
    double writes_due = 0;
    for (const Access &m : dc_misses) {
        const flash::Lpn lpn = sys.addressMap().flashPage(m.pa);
        cmds.push_back({flash::FlashCommand::Op::Read, lpn, mem::Bytes{0}});
        for (writes_due += wr_ratio; writes_due >= 1.0; writes_due -= 1.0)
            cmds.push_back(
                {flash::FlashCommand::Op::Write, lpn, mem::Bytes{0}});
    }
    span_t0 = Clock::now();
    const std::uint64_t run_cmds = res.flashReads + res.flashWrites;
    if (!cmds.empty() && run_cmds > 0) {
        const sim::Ticks gap = std::max<sim::Ticks>(
            1, res.measureTicks / run_cmds);
        sim::Ticks t = eq.curTick();
        flash::FlashFabric &fabric = sys.flash();
        for (std::size_t b = 0; b < cmds.size(); b += kBatch) {
            const std::size_t e = std::min(cmds.size(), b + kBatch);
            const double hist0 = subtreeHistogramSamples(sys, "flash");
            const auto t0 = Clock::now();
            for (std::size_t i = b; i < e; ++i) {
                fabric.submit(cmds[i], t);
                t += gap;
            }
            cost.flash.seconds += secondsSince(t0);
            cost.flash.calls += e - b;
            cost.flashHistSamples += static_cast<std::uint64_t>(
                subtreeHistogramSamples(sys, "flash") - hist0);
        }
    }
    log.add("replay.flash", span_t0, Clock::now(), parent);

    // sim.hist: the replayed latencies into a histogram sized as
    // System sizes its own.
    span_t0 = Clock::now();
    sim::Histogram hist;
    hist.reserveFor(sys.config().maxSimTicks);
    for (std::size_t b = 0; b < latency.size(); b += 4 * kBatch) {
        const std::size_t e = std::min(latency.size(), b + 4 * kBatch);
        const auto t0 = Clock::now();
        for (std::size_t i = b; i < e; ++i)
            hist.sample(latency[i]);
        cost.hist.seconds += secondsSince(t0);
        cost.hist.calls += e - b;
    }
    log.add("replay.sim.hist", span_t0, Clock::now(), parent);
    if (hist.count() != cost.hist.calls) {
        std::fprintf(stderr, "perfbench: histogram replay lost samples\n");
        std::exit(1);
    }
    return cost;
}

// --- One cell ----------------------------------------------------------

struct CellOut {
    SystemConfig cfg;
    double setupS = 0;
    double runS = 0;
    std::uint64_t completed = 0;
    std::uint64_t events = 0;
    std::uint64_t digest = 0;
    bool reachedTarget = false;
    core::RunResults res;
    StatMap stats;

    // Traced runs only.
    LayerTime workload;
    std::uint64_t ops = 0;
    ReplayCost replay;
    std::vector<Span> spans;
};

CellOut
runCell(const SystemConfig &cfg, bool traced)
{
    CellOut out;
    out.cfg = cfg;
    SpanLog log(Clock::now());
    std::unique_ptr<RecordingJobSource> source;
    if (traced)
        source = std::make_unique<RecordingJobSource>(cfg, log);

    const std::int32_t setup_span = log.open("System()", -1);
    const auto t0 = Clock::now();
    auto sys = std::make_unique<System>(cfg);
    out.setupS = secondsSince(t0);
    log.close(setup_span);

    if (source) {
        sys->setJobSource([src = source.get()](std::uint32_t core) {
            return src->next(core);
        });
    }
    const std::int32_t run_span = log.open("System::run", -1);
    if (source)
        source->parentSpan = run_span;
    const auto t1 = Clock::now();
    out.res = sys->run();
    out.runS = secondsSince(t1);
    log.close(run_span);

    const std::string dump = sys->statsRegistry().dump();
    out.digest = fnv1a(dump);
    out.stats = parseDump(dump);
    out.events = sys->eventsExecuted();
    out.completed =
        static_cast<std::uint64_t>(stat(out.stats, "system.completed_jobs"));
    out.reachedTarget = out.res.jobs == cfg.measureJobs &&
                        out.res.measureTicks > 0 &&
                        out.res.invariantViolations == 0;

    if (source) {
        // Post-run drains may still fire arrival events; let them use
        // System's own generators so the recorded stream stays the run's.
        sys->setJobSource(nullptr);
        out.workload = source->cost;
        out.ops = source->ops;
        const std::int32_t replay_span = log.open("replay", -1);
        System fresh(cfg);
        out.replay = replayLayers(*sys, fresh, source->stream, out.res,
                                  fcAccesses(out.stats), log, replay_span);
        log.close(replay_span);
        out.spans = std::move(log.spans);
    }
    return out;
}

std::vector<CellOut>
runCells(const BenchWorkload &w, bool traced, double *wall_s)
{
    std::vector<std::function<CellOut()>> tasks;
    for (const SystemConfig &cfg : w.cells)
        tasks.emplace_back([cfg, traced] { return runCell(cfg, traced); });
    const sim::SweepRunner runner(w.threads);
    const auto t0 = Clock::now();
    std::vector<CellOut> cells = runner.run(std::move(tasks));
    *wall_s = secondsSince(t0);
    return cells;
}

// --- Metrics -----------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, double>>;

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Calls into each priced layer over the whole run (warmup and prewarm
 *  included). Whole-run counters are taken as they are; window counters
 *  are scaled by completed / measured jobs, assuming warmup jobs make
 *  the calls measured ones do. */
struct RunCalls {
    double hier = 0, fc = 0, flash = 0, hist = 0;

    void
    add(const RunCalls &o)
    {
        hier += o.hier;
        fc += o.fc;
        flash += o.flash;
        hist += o.hist;
    }
};

RunCalls
runCalls(const CellOut &c)
{
    const StatMap &s = c.stats;
    const double scale =
        ratio(static_cast<double>(c.completed),
              static_cast<double>(c.res.jobs));
    const HistSamples samples = histogramSamples(s);
    RunCalls calls;
    calls.hier = sumIndexed(s, "core", ".hier.accesses");
    calls.fc = fcAccesses(s) * scale;
    calls.flash =
        static_cast<double>(c.res.flashReads + c.res.flashWrites) * scale;
    calls.hist = samples.window * scale + samples.whole;
    return calls;
}

/**
 * Model outputs and exact per-job counts (simulated; deterministic).
 * Window counters are divided by measured jobs, whole-run ones by
 * completed jobs; the cache, TLB and MSR figures are whole-run.
 */
Metrics
modelMetrics(const std::vector<CellOut> &cells)
{
    double measured = 0, completed = 0, events = 0, measure_s = 0;
    double l1_hits = 0, l1_misses = 0, llc_hits = 0, llc_misses = 0;
    double tlb_hits = 0, tlb_misses = 0;
    double fc_hits = 0, fc_misses = 0, fc_merged = 0;
    double set_full = 0, msr_misses = 0, msr_occ_sum = 0, msr_occ_n = 0;
    double msr_peak = 0, penalty_p99 = 0, fc_to_bc_stall = 0, dirty_wb = 0;
    double evict_full = 0, flash_reads = 0, flash_writes = 0;
    double flash_p99 = 0, switches = 0, overflows = 0, aging = 0;
    double busy = 0, core_ticks = 0, shootdowns = 0;
    RunCalls calls;
    sim::Histogram service, response;
    for (const CellOut &c : cells) {
        const StatMap &s = c.stats;
        measured += static_cast<double>(c.res.jobs);
        completed += static_cast<double>(c.completed);
        events += static_cast<double>(c.events);
        measure_s += sim::toSeconds(c.res.measureTicks);
        calls.add(runCalls(c));
        service.merge(c.res.service);
        response.merge(c.res.response);
        l1_hits += sumIndexed(s, "core", ".hier.l1d.hits");
        l1_misses += sumIndexed(s, "core", ".hier.l1d.misses");
        llc_hits += sumIndexed(s, "core", ".hier.llc.hits");
        llc_misses += sumIndexed(s, "core", ".hier.llc.misses");
        tlb_hits += sumIndexed(s, "core", ".tlb.l1_hits") +
                    sumIndexed(s, "core", ".tlb.l2_hits");
        tlb_misses += sumIndexed(s, "core", ".tlb.misses");
        fc_hits += stat(s, "dcache.fc.hits");
        fc_misses += stat(s, "dcache.fc.misses");
        fc_merged += stat(s, "dcache.fc.misses_merged");
        set_full += sumIndexed(s, "dcache.bc", ".msr.set_full_stalls");
        msr_misses += sumIndexed(s, "dcache.bc", ".msr.allocations") +
                      sumIndexed(s, "dcache.bc", ".msr.duplicates");
        // Count-weighted mean across shards.
        forEachIndexed(s, "dcache.bc", ".msr.occupancy.count",
                       [&](const std::string &shard, double n) {
                           msr_occ_n += n;
                           msr_occ_sum +=
                               n * stat(s, shard + ".msr.occupancy.mean");
                       });
        msr_peak = std::max(
            msr_peak, sumIndexed(s, "dcache.bc", ".msr.peak_occupancy"));
        penalty_p99 = std::max(
            penalty_p99, maxIndexed(s, "dcache.bc", ".miss_penalty.p99"));
        fc_to_bc_stall += sumIndexed(s, "dcache.fc_to_bc", ".stall_ticks");
        dirty_wb += sumIndexed(s, "dcache.bc", ".dirty_writebacks");
        evict_full += sumIndexed(s, "dcache.bc", ".evictbuf.full_stalls");
        flash_reads += static_cast<double>(c.res.flashReads);
        flash_writes += static_cast<double>(c.res.flashWrites);
        flash_p99 = std::max(flash_p99, stat(s, "flash.read_latency.p99"));
        switches += sumIndexed(s, "core", ".switch_on_miss");
        overflows += sumIndexed(s, "core", ".sched.pending_overflows");
        aging += sumIndexed(s, "core", ".sched.aging_promotions");
        busy += sumIndexed(s, "core", ".busy_ticks");
        core_ticks += static_cast<double>(c.cfg.cores) *
                      static_cast<double>(c.res.measureTicks);
        shootdowns += static_cast<double>(c.res.shootdowns);
    }
    const double us = static_cast<double>(sim::kMicrosecond);
    return {
        {"model.sim_jobs_per_s", ratio(measured, measure_s)},
        {"model.p99_service_us",
         static_cast<double>(service.percentile(0.99)) / us},
        {"model.p99_response_us",
         static_cast<double>(response.percentile(0.99)) / us},
        {"mem.l1d.hit_ratio", ratio(l1_hits, l1_hits + l1_misses)},
        {"mem.llc.miss_ratio", ratio(llc_misses, llc_hits + llc_misses)},
        {"mem.tlb.miss_ratio", ratio(tlb_misses, tlb_hits + tlb_misses)},
        {"fc.hit_ratio", ratio(fc_hits, fc_hits + fc_misses + fc_merged)},
        {"fc.merged_share", ratio(fc_merged, fc_misses + fc_merged)},
        {"bc.msr.set_full_stalls_per_miss", ratio(set_full, msr_misses)},
        {"bc.msr.occupancy_mean", ratio(msr_occ_sum, msr_occ_n)},
        {"bc.msr.peak_occupancy", msr_peak},
        {"bc.miss_penalty_p99_us", penalty_p99 / us},
        {"bc.fc_to_bc_stall_us", fc_to_bc_stall / us},
        {"bc.dirty_writebacks_per_job", ratio(dirty_wb, measured)},
        {"bc.evictbuf.full_stalls", evict_full},
        {"flash.reads_per_job", ratio(flash_reads, measured)},
        {"flash.writes_per_job", ratio(flash_writes, measured)},
        {"flash.read_p99_us", flash_p99 / us},
        {"sched.switch_on_miss_per_job", ratio(switches, measured)},
        {"sched.pending_overflows", overflows},
        {"sched.aging_promotions", aging},
        {"core.busy_share", ratio(busy, core_ticks)},
        {"os.shootdowns_per_job", ratio(shootdowns, completed)},
        {"sim.events_per_job", ratio(events, completed)},
        {"sim.hist.samples_per_job", ratio(calls.hist, completed)},
        {"mem.hier.accesses_per_job", ratio(calls.hier, completed)},
        {"fc.accesses_per_job", ratio(calls.fc, completed)},
        {"flash.cmds_per_job", ratio(calls.flash, completed)},
    };
}

/** Fig. 9 normalized means and their error against the paper. */
Metrics
fig9Metrics(const std::vector<CellOut> &cells)
{
    Metrics out;
    const std::size_t rows = cells.size() / kFig9RowWidth;
    double err = 0;
    for (std::size_t col = 0; col < std::size(kFig9Columns); ++col) {
        double sum = 0;
        for (std::size_t r = 0; r < rows; ++r) {
            const double base =
                cells[r * kFig9RowWidth].res.throughputJobsPerSec;
            sum += ratio(cells[r * kFig9RowWidth + 1 + col]
                             .res.throughputJobsPerSec,
                         base);
        }
        const double mean = sum / static_cast<double>(rows);
        out.emplace_back(kFig9Columns[col].metric, mean);
        err += std::abs(100.0 * mean - kFig9Columns[col].paperPct);
    }
    out.emplace_back("fig9_err_pp",
                     err / static_cast<double>(std::size(kFig9Columns)));
    return out;
}

/**
 * Host cost per layer from the traced cells. Each layer's self time
 * per call excludes the nested layers its timed batches called into;
 * its share is self ns/call x the run's calls / untraced run seconds.
 * @p warm is an untraced batch run after the traced one, so both ran
 * in a process whose heap was already grown.
 */
Metrics
hostMetrics(const std::vector<CellOut> &warm,
            const std::vector<CellOut> &traced)
{
    LayerTime wl, hier, fc, flash, hist;
    double fc_flash = 0, fc_hist = 0, flash_hist = 0, ops = 0;
    for (const CellOut &c : traced) {
        wl.seconds += c.workload.seconds;
        wl.calls += c.workload.calls;
        ops += static_cast<double>(c.ops);
        const ReplayCost &r = c.replay;
        for (auto [sum, part] :
             {std::pair{&hier, &r.hier}, std::pair{&fc, &r.fc},
              std::pair{&flash, &r.flash}, std::pair{&hist, &r.hist}}) {
            sum->seconds += part->seconds;
            sum->calls += part->calls;
        }
        fc_flash += static_cast<double>(r.fcFlashCmds);
        fc_hist += static_cast<double>(r.fcHistSamples);
        flash_hist += static_cast<double>(r.flashHistSamples);
    }
    const double hist_ns = hist.ns();
    const double flash_ns = std::max(
        0.0, flash.ns() - ratio(flash_hist, static_cast<double>(
                                                flash.calls)) *
                              hist_ns);
    const double fc_ns =
        fc.calls ? std::max(0.0, (fc.seconds * 1e9 -
                                  fc_flash * flash.ns() - fc_hist * hist_ns) /
                                     static_cast<double>(fc.calls))
                 : 0.0;

    double run_s = 0, traced_run_s = 0, events = 0;
    RunCalls calls;
    for (const CellOut &c : warm) {
        run_s += c.runS;
        events += static_cast<double>(c.events);
        calls.add(runCalls(c));
    }
    for (const CellOut &c : traced)
        traced_run_s += c.runS;

    const double wl_share = ratio(wl.seconds, run_s);
    const double hier_share = ratio(hier.ns() * calls.hier * 1e-9, run_s);
    const double fc_share = ratio(fc_ns * calls.fc * 1e-9, run_s);
    const double flash_share = ratio(flash_ns * calls.flash * 1e-9, run_s);
    const double hist_share = ratio(hist_ns * calls.hist * 1e-9, run_s);
    return {
        {"workload.ns_per_job", wl.ns()},
        {"workload.share", wl_share},
        {"workload.ops_per_job", ratio(ops, static_cast<double>(wl.calls))},
        {"mem.hier.ns_per_access", hier.ns()},
        {"mem.hier.share", hier_share},
        {"fc.ns_per_access", fc_ns},
        {"fc.share", fc_share},
        {"flash.ns_per_cmd", flash_ns},
        {"flash.share", flash_share},
        {"sim.hist.ns_per_sample", hist_ns},
        {"sim.hist.share", hist_share},
        {"sim.ns_per_event", ratio(run_s * 1e9, events)},
        {"other.share",
         1.0 - wl_share - hier_share - fc_share - flash_share - hist_share},
        {"trace.overhead", 1.0 - ratio(run_s, traced_run_s)},
    };
}

/** Cell-time distribution of the untraced batch. */
Metrics
sweepMetrics(const std::vector<CellOut> &cells, unsigned threads,
             double wall_s)
{
    std::vector<double> cell_s;
    double total = 0;
    for (const CellOut &c : cells) {
        cell_s.push_back(c.setupS + c.runS);
        total += c.setupS + c.runS;
    }
    std::sort(cell_s.begin(), cell_s.end());
    const unsigned used =
        std::min<unsigned>(std::max(1u, threads),
                           static_cast<unsigned>(cells.size()));
    return {
        {"sweep.cell_s_p50", cell_s[(cell_s.size() - 1) / 2]},
        {"sweep.cell_s_max", cell_s.back()},
        {"sweep.efficiency", ratio(total, used * wall_s)},
    };
}

void
writeMetrics(sim::JsonWriter &w, const char *key, const Metrics &m)
{
    w.key(key);
    w.beginObject();
    for (const auto &[name, v] : m)
        w.field(name, v);
    w.endObject();
}

void
writeSpans(const std::string &path, const std::vector<CellOut> &cells)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                     path.c_str());
        std::exit(1);
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (const Span &s : cells[i].spans) {
            out << "{\"cell\":" << i << ",\"name\":\"" << s.name
                << "\",\"start_ns\":" << s.startNs
                << ",\"end_ns\":" << s.endNs
                << ",\"parent\":" << s.parent << "}\n";
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 1;
    bool toy = false;
    std::string spans_path;
    sim::OptionParser opts(
        "perfbench_sim",
        "Run one benchmark workload once and print its host cost, "
        "digest and model metrics as one JSON object.");
    opts.addString("workload", &name,
                   "tatp_256c | tpcc_16c_open | fig9_grid");
    opts.addUint("seed", &seed, "simulation seed of every cell");
    opts.addString("trace", &spans_path,
                   "also run a traced copy, replay it per layer and "
                   "write its spans as JSONL to this file");
    opts.addFlag("toy", &toy, "shrink every cell (self-check size)");
    opts.parseOrExit(argc, argv);

    BenchWorkload w;
    if (!makeWorkload(name, seed, toy, &w)) {
        std::fprintf(stderr, "perfbench_sim: unknown workload '%s'\n",
                     name.c_str());
        return 2;
    }

    // A process's first System pays for growing the heap; the traced
    // batch and the warm untraced batch after it both run on a grown
    // heap, so they are the pair the per-layer shares compare.
    double wall_s = 0, unused_wall_s = 0;
    const std::vector<CellOut> plain = runCells(w, false, &wall_s);
    std::vector<CellOut> traced, warm;
    if (!spans_path.empty()) {
        traced = runCells(w, true, &unused_wall_s);
        warm = runCells(w, false, &unused_wall_s);
        writeSpans(spans_path, traced);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    double setup_s = 0, run_s = 0;
    std::uint64_t jobs = 0, failed = 0;
    std::vector<bool> cell_ok;
    for (std::size_t i = 0; i < plain.size(); ++i) {
        const CellOut &c = plain[i];
        setup_s += c.setupS;
        run_s += c.runS;
        jobs += c.completed;
        bool ok = c.reachedTarget;
        for (const std::vector<CellOut> *rerun : {&traced, &warm}) {
            if (!rerun->empty())
                ok = ok && (*rerun)[i].digest == c.digest &&
                     (*rerun)[i].reachedTarget;
        }
        cell_ok.push_back(ok);
        failed += ok ? 0 : 1;
    }

    sim::JsonWriter json(std::cout, false);
    json.beginObject();
    json.field("workload", name);
    json.field("seed", seed);
    json.field("cells", static_cast<std::uint64_t>(plain.size()));
    json.field("threads", w.threads);
    json.field("host_cpus", sim::SweepRunner::hardwareJobs());
    json.field("build_type", PERFBENCH_BUILD_TYPE);
    json.field("compiler", PERFBENCH_COMPILER);
    json.field("failed_cells", failed);
    json.key("cell_ok");
    json.beginArray();
    for (bool ok : cell_ok)
        json.value(ok);
    json.endArray();
    json.key("cell_digests");
    json.beginArray();
    for (const CellOut &c : plain)
        json.value(hex(c.digest));
    json.endArray();
    if (!traced.empty()) {
        json.key("traced_cell_digests");
        json.beginArray();
        for (const CellOut &c : traced)
            json.value(hex(c.digest));
        json.endArray();
    }
    json.field("wall_s", wall_s);
    json.field("setup_s", setup_s);
    json.field("run_s", run_s);
    json.field("jobs", jobs);
    json.field("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    Metrics model = modelMetrics(plain);
    if (w.fig9) {
        const Metrics fig9 = fig9Metrics(plain);
        model.insert(model.end(), fig9.begin(), fig9.end());
    }
    writeMetrics(json, "model", model);
    if (!traced.empty()) {
        Metrics host = hostMetrics(warm, traced);
        const Metrics sweep = sweepMetrics(plain, w.threads, wall_s);
        host.insert(host.end(), sweep.begin(), sweep.end());
        writeMetrics(json, "host", host);
    }
    json.endObject();
    std::cout << "\n";
    return failed ? 1 : 0;
}
