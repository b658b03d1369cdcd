/**
 * @file
 * Every golden torture configuration runs with every invariant sweep
 * armed: the sweeps must stay clean, every BC shard's three queues
 * must be registered and see traffic, and arming the checks must not
 * move a golden byte. Ownership holds by construction: one event queue
 * runs every component, and the FC and BC call each other directly.
 *
 * Separate binary (test_armed_suite): the tests flip the global checks
 * gate, so they must not share a process with timing suites.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/dram_cache.hh"
#include "core/system.hh"
#include "sim/invariant.hh"

#include "golden_cases.hh"

using namespace astriflash;
using namespace astriflash::core;
using namespace astriflash::tools;

namespace {

/** Arm (or disarm) simulator checks for one test, restoring after. */
class ScopedChecks
{
  public:
    explicit ScopedChecks(bool on) : prev(sim::checksEnabled())
    {
        sim::setChecksEnabled(on);
    }
    ~ScopedChecks() { sim::setChecksEnabled(prev); }

    ScopedChecks(const ScopedChecks &) = delete;
    ScopedChecks &operator=(const ScopedChecks &) = delete;

  private:
    bool prev;
};

class OwnershipGolden : public ::testing::TestWithParam<GoldenCase>
{
};

} // namespace

TEST_P(OwnershipGolden, ArmedAuditorIsCleanAndByteIdentical)
{
    ScopedChecks armed(true);
    const GoldenCase &gc = GetParam();
    System sys(goldenCaseConfig(gc));
    sys.invariantRegistry().setFailFast(false);
    const RunResults r = sys.run();

    EXPECT_GT(r.invariantSweeps, 0u);
    EXPECT_EQ(r.invariantViolations, 0u)
        << sys.invariantRegistry().report();

    // Every shard's three queues are audited and saw traffic.
    const DramCache *dc = sys.dramCache();
    ASSERT_NE(dc, nullptr);
    for (std::uint32_t i = 0; i < dc->shardCount(); ++i) {
        const std::string tag =
            dc->shardCount() == 1 ? std::string{} : std::to_string(i);
        for (const char *queue : {"fc_to_bc", "bc_to_flash", "bc_to_fc"})
            EXPECT_TRUE(sys.invariantRegistry().contains(
                std::string("dcache.") + queue + tag));
        EXPECT_GT(dc->missChannel(i).stats().pushes.value(), 0u);
        EXPECT_GT(dc->installChannel(i).stats().pushes.value(), 0u);
    }

    // Arming checks never moves the golden bytes: the invariant hooks
    // live outside the stats tree.
    std::ostringstream out;
    writeGoldenJson(out, gc, r, sys);
    const std::string want = readGoldenFile(ASTRI_GOLDEN_DIR, gc.name);
    ASSERT_FALSE(want.empty()) << "missing golden file for " << gc.name;
    EXPECT_EQ(out.str(), want) << "armed run moved " << gc.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, OwnershipGolden, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });
