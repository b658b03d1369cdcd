/**
 * @file
 * SweepRunner tests: submission-order results, exception propagation,
 * inline execution at jobs=1, and the determinism contract — a batch
 * of isolated System runs must produce byte-identical stats JSON no
 * matter how many host threads execute it, and every committed golden
 * case must keep its bytes when it runs on a worker thread beside
 * another simulation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/option_parser.hh"
#include "sim/sweep_runner.hh"

#include "core/fabric_options.hh"
#include "core/system.hh"

#include "golden_cases.hh"

using namespace astriflash;
using namespace astriflash::core;
using namespace astriflash::tools;

TEST(SweepRunner, ResultsComeBackInSubmissionOrder)
{
    // Skew per-task work so completion order differs from submission
    // order whenever more than one worker runs.
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 32; ++i) {
        tasks.emplace_back([i] {
            volatile long spin = (31 - i) * 20000L;
            while (spin > 0)
                spin = spin - 1;
            return i;
        });
    }
    const sim::SweepRunner runner(
        4, sim::SweepRunner::HostClamp::Unbounded);
    const std::vector<int> out = runner.run(std::move(tasks));
    ASSERT_EQ(out.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(SweepRunner, JobsZeroMeansHardwareConcurrency)
{
    const sim::SweepRunner runner(0);
    EXPECT_EQ(runner.jobs(), sim::SweepRunner::hardwareJobs());
    EXPECT_GE(runner.jobs(), 1u);
}

TEST(SweepRunner, OversubscribedJobsClampToHardwareByDefault)
{
    const unsigned hw = sim::SweepRunner::hardwareJobs();
    const sim::SweepRunner clamped(hw + 64);
    EXPECT_EQ(clamped.jobs(), hw);
    // A request within the host's budget is taken verbatim.
    const sim::SweepRunner inBudget(1);
    EXPECT_EQ(inBudget.jobs(), 1u);
}

TEST(SweepRunner, UnboundedClampTakesJobsVerbatim)
{
    const unsigned hw = sim::SweepRunner::hardwareJobs();
    const sim::SweepRunner runner(
        hw + 7, sim::SweepRunner::HostClamp::Unbounded);
    EXPECT_EQ(runner.jobs(), hw + 7);
}

TEST(SweepRunner, SingleJobRunsInline)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::function<std::thread::id()>> tasks;
    for (int i = 0; i < 4; ++i)
        tasks.emplace_back([] { return std::this_thread::get_id(); });
    const sim::SweepRunner runner(1);
    for (const std::thread::id tid : runner.run(std::move(tasks)))
        EXPECT_EQ(tid, caller);
}

TEST(SweepRunner, FirstSubmittedExceptionWins)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 16; ++i) {
        tasks.emplace_back([i]() -> int {
            if (i == 3 || i == 11)
                throw std::runtime_error("task " + std::to_string(i));
            return i;
        });
    }
    const sim::SweepRunner runner(
        4, sim::SweepRunner::HostClamp::Unbounded);
    try {
        runner.run(std::move(tasks));
        FAIL() << "expected the sweep to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 3");
    }
}

TEST(SweepRunner, RunIndexedVisitsEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(64);
    const sim::SweepRunner runner(
        4, sim::SweepRunner::HostClamp::Unbounded);
    runner.runIndexed(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const std::atomic<int> &h : hits)
        EXPECT_EQ(h.load(), 1);
}

namespace {

/** Small mixed batch of isolated systems, stats dumped per cell. */
std::vector<std::string>
statsBatch(unsigned host_jobs)
{
    const SystemKind kinds[] = {SystemKind::DramOnly,
                                SystemKind::AstriFlash,
                                SystemKind::FlashSync};
    std::vector<std::function<std::string()>> tasks;
    for (SystemKind kind : kinds) {
        for (std::uint32_t cores = 1; cores <= 2; ++cores) {
            SystemConfig cfg;
            cfg.kind = kind;
            cfg.cores = cores;
            cfg.workloadKind = workload::Kind::Tatp;
            cfg.workload.datasetBytes = 1ull << 26;
            cfg.warmupJobs = 20;
            cfg.measureJobs = 200;
            tasks.emplace_back([cfg] {
                System sys(cfg);
                sys.run();
                return sys.statsRegistry().dumpJson();
            });
        }
    }
    // Unbounded: the point is exercising real worker threads even on
    // a single-core CI host.
    return sim::SweepRunner(host_jobs,
                            sim::SweepRunner::HostClamp::Unbounded)
        .run(std::move(tasks));
}

} // namespace

/**
 * Smoke test for the shared CLI binding the figure benches (fig9,
 * fig10, table2, ablation) use: the shard/fabric flags must parse and
 * land in SystemConfig, and absent flags must keep the defaults.
 */
TEST(SweepRunner, FabricOptionsPropagateToSystemConfig)
{
    FabricOptions fabric;
    sim::OptionParser opts("bench", "fabric smoke");
    fabric.addTo(opts);

    const char *argv[] = {"bench", "--bc-shards=2", "--flash-devices=4",
                          "--flash-backend=zns"};
    ASSERT_EQ(opts.parse(4, argv), sim::OptionParser::Status::Ok);

    SystemConfig cfg;
    fabric.apply(cfg);
    EXPECT_EQ(cfg.dramCache.bc.shards, 2u);
    EXPECT_EQ(cfg.dramCache.fabric.devices, 4u);
    EXPECT_EQ(cfg.dramCache.fabric.backend, flash::BackendKind::Zns);

    FabricOptions untouched;
    SystemConfig dflt;
    untouched.apply(dflt);
    EXPECT_EQ(dflt.dramCache.bc.shards,
              SystemConfig{}.dramCache.bc.shards);
    EXPECT_EQ(dflt.dramCache.fabric.devices,
              SystemConfig{}.dramCache.fabric.devices);
    EXPECT_EQ(dflt.dramCache.fabric.backend,
              SystemConfig{}.dramCache.fabric.backend);
}

/**
 * The determinism contract of DESIGN.md §9: a sweep's stats output is a
 * pure function of each cell's config — byte-identical whether the
 * batch runs on one host thread or eight.
 */
TEST(SweepRunner, StatsJsonIsByteIdenticalAcrossJobCounts)
{
    const std::vector<std::string> serial = statsBatch(1);
    const std::vector<std::string> parallel = statsBatch(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
    // Sanity: the dumps are real stats trees, not empty strings.
    for (const std::string &s : serial)
        EXPECT_GT(s.size(), 100u);
}

// --------------------------------------------------------------------
// Host jobs: SweepRunner is the one way to use host parallelism, so a
// simulation on a worker thread, beside another one, must produce the
// bytes it produces alone.
// --------------------------------------------------------------------

namespace {

/** Run @p host_jobs copies of @p make's simulation concurrently, one
 *  per worker thread. @return each copy's output. */
std::vector<std::string>
concurrentCopies(const std::function<std::string()> &make,
                 unsigned host_jobs)
{
    std::vector<std::function<std::string()>> tasks(host_jobs, make);
    return sim::SweepRunner(host_jobs,
                            sim::SweepRunner::HostClamp::Unbounded)
        .run(std::move(tasks));
}

/** Full stats-tree JSON of one run of @p cfg. */
std::function<std::string()>
statsOf(const SystemConfig &cfg)
{
    return [cfg] {
        System sys(cfg);
        sys.run();
        return sys.statsRegistry().dumpJson();
    };
}

/** Small two-shard TATP config for the inline-vs-threaded checks. */
SystemConfig
smallCfg()
{
    SystemConfig cfg;
    cfg.kind = SystemKind::AstriFlash;
    cfg.cores = 2;
    cfg.workloadKind = workload::Kind::Tatp;
    cfg.workload.datasetBytes = 1ull << 26;
    cfg.warmupJobs = 50;
    cfg.measureJobs = 200;
    cfg.dramCache.bc.shards = 2;
    return cfg;
}

class ParallelGolden : public ::testing::TestWithParam<GoldenCase>
{
};

} // namespace

/** Every committed golden, byte-identical when two copies of it run
 *  at once on separate host threads. */
TEST_P(ParallelGolden, ByteIdenticalAtHostJobs2)
{
    const GoldenCase &gc = GetParam();
    const std::string want = readGoldenFile(ASTRI_GOLDEN_DIR, gc.name);
    ASSERT_FALSE(want.empty()) << "missing golden file for " << gc.name;
    const std::vector<std::string> got = concurrentCopies(
        [&gc] {
            System sys(goldenCaseConfig(gc));
            const RunResults r = sys.run();
            std::ostringstream os;
            writeGoldenJson(os, gc, r, sys);
            return os.str();
        },
        2);
    ASSERT_EQ(got.size(), 2u);
    for (const std::string &g : got)
        EXPECT_EQ(g, want) << gc.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, ParallelGolden, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

TEST(ParallelSystem, DepthOneChannelsStayByteIdentical)
{
    // Depth-1 controller queues drive maximum backpressure through
    // the FC<->BC calls; running beside another copy must not change a
    // byte.
    SystemConfig cfg = smallCfg();
    cfg.dramCache.channels.fcToBcDepth = 1;
    cfg.dramCache.channels.bcToFlashDepth = 1;
    cfg.dramCache.channels.bcToFcDepth = 1;
    const std::string one = statsOf(cfg)();
    for (const std::string &s : concurrentCopies(statsOf(cfg), 2))
        EXPECT_EQ(s, one);
}

TEST(ParallelSystem, ResetStatsMidRunStaysByteIdentical)
{
    // The warmup->measure transition calls resetStats() on every
    // component mid-run; each threaded copy must reset at the same
    // event boundary as the inline run.
    SystemConfig cfg = smallCfg();
    cfg.warmupJobs = 97; // Deliberately not on a burst boundary.
    const std::string one = statsOf(cfg)();
    for (const unsigned jobs : {2u, 4u}) {
        for (const std::string &s : concurrentCopies(statsOf(cfg), jobs))
            EXPECT_EQ(s, one) << "at " << jobs << " host jobs";
    }
}
