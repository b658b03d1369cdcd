/**
 * @file
 * FC/BC split regression: the frontside/backside decomposition of the
 * DRAM cache must be timing-neutral at the default (effectively
 * unbounded) channel depths. Each of the six fixed-seed torture
 * configurations is re-run in process and its full golden JSON —
 * headline results plus every stats leaf — must stay byte-identical
 * to tests/golden/. On top of the byte comparison, the three
 * controller channels must report zero backpressure: any full stall
 * at depth 65536 means slot lifetimes leak.
 *
 * The case table and serialisation are shared with the golden_stats
 * tool (tools/golden_cases.hh), so this suite and the golden_stats_*
 * ctests can never drift apart.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/dram_cache.hh"
#include "core/system.hh"

#include "golden_cases.hh"

using namespace astriflash;
using namespace astriflash::core;
using namespace astriflash::tools;

namespace {

/** First line where @p got diverges from @p want, for the report. */
std::string
firstDivergence(const std::string &want, const std::string &got)
{
    std::istringstream ws(want);
    std::istringstream gs(got);
    std::string wl;
    std::string gl;
    int line = 0;
    while (true) {
        const bool have_w = static_cast<bool>(std::getline(ws, wl));
        const bool have_g = static_cast<bool>(std::getline(gs, gl));
        ++line;
        if (!have_w && !have_g)
            return "identical";
        if (wl != gl || have_w != have_g) {
            std::ostringstream os;
            os << "line " << line << ":\n  golden: "
               << (have_w ? wl : "<eof>") << "\n  got:    "
               << (have_g ? gl : "<eof>");
            return os.str();
        }
    }
}

class FcBcSplit : public ::testing::TestWithParam<GoldenCase>
{
};

} // namespace

TEST_P(FcBcSplit, GoldenStatsStayByteIdentical)
{
    const GoldenCase &gc = GetParam();

    System sys(goldenCaseConfig(gc));
    const RunResults r = sys.run();

    std::ostringstream out;
    writeGoldenJson(out, gc, r, sys);

    const std::string want = readGoldenFile(ASTRI_GOLDEN_DIR, gc.name);
    ASSERT_FALSE(want.empty()) << "missing golden file for " << gc.name;
    EXPECT_EQ(out.str(), want)
        << "FC/BC split perturbed case " << gc.name
        << "; first divergence at " << firstDivergence(want, out.str());

    // At the default depths the channels are effectively unbounded:
    // real transaction-window occupancy, but never a full stall. A
    // stall here means a slot-release tick leaked into the far future.
    const DramCache *dc = sys.dramCache();
    ASSERT_NE(dc, nullptr);
    EXPECT_EQ(dc->missChannel().stats().fullStalls.value(), 0u);
    EXPECT_EQ(dc->missChannel().stats().stallTicks.value(), 0u);
    EXPECT_EQ(dc->flashChannel().stats().fullStalls.value(), 0u);
    EXPECT_EQ(dc->flashChannel().stats().stallTicks.value(), 0u);
    EXPECT_EQ(dc->installChannel().stats().fullStalls.value(), 0u);
    EXPECT_EQ(dc->installChannel().stats().stallTicks.value(), 0u);

    // Conservation across the split: every message pushed was drained.
    EXPECT_TRUE(dc->missChannel().empty());
    EXPECT_TRUE(dc->flashChannel().empty());
    EXPECT_TRUE(dc->installChannel().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllTortureConfigs, FcBcSplit, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });
