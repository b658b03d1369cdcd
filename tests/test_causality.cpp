/**
 * @file
 * Tests for the causality auditor (DESIGN.md §14): channel contracts
 * are registered through the thread-local attach scope, clean traffic
 * is certified with zero violations, and deliberate contract breaches
 * — a time-travelling send consumed before its declared lookahead, a
 * backwards push on a monotone channel, an event fired behind the
 * queue clock — are caught, both recorded and fail-fast.
 *
 * Separate binary (test_causality_suite): arms the global checks gate
 * and runs death tests, so it must not share a process with timing
 * suites. The whole-system certification runs a committed golden
 * configuration under audit and requires zero violations with nonzero
 * audit traffic; every golden case then runs armed, with the
 * bc_to_fc_rsp / fc_to_bc_ctl invariant hooks registered, and must
 * stay byte-identical to its committed golden file.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/bounded_channel.hh"
#include "sim/causality.hh"
#include "sim/event_queue.hh"
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

} // namespace

// --------------------------------------------------------------------
// Attach scope and registration.
// --------------------------------------------------------------------

TEST(CausalityAuditor, ScopeInstallsAndRestoresNested)
{
    EXPECT_EQ(sim::CausalityAuditor::current(), nullptr);
    sim::CausalityAuditor outer;
    {
        sim::CausalityAuditor::Scope s1(outer);
        EXPECT_EQ(sim::CausalityAuditor::current(), &outer);
        sim::CausalityAuditor inner;
        {
            sim::CausalityAuditor::Scope s2(inner);
            EXPECT_EQ(sim::CausalityAuditor::current(), &inner);
        }
        EXPECT_EQ(sim::CausalityAuditor::current(), &outer);
    }
    EXPECT_EQ(sim::CausalityAuditor::current(), nullptr);
}

TEST(CausalityAuditor, ChannelSelfRegistersInsideScope)
{
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor;
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch(
        "audited.ch", 8, sim::ChannelContract{25, true});

    ASSERT_EQ(auditor.channelCount(), 1u);
    EXPECT_EQ(auditor.channel(0).name, "audited.ch");
    EXPECT_EQ(auditor.channel(0).contract.minLatency, 25u);
    EXPECT_TRUE(auditor.channel(0).contract.monotonePush);
    EXPECT_EQ(ch.contract().minLatency, 25u);
}

// --------------------------------------------------------------------
// Clean traffic certifies; contract breaches are recorded.
// --------------------------------------------------------------------

TEST(CausalityAuditor, CleanTrafficHasZeroViolations)
{
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor;
    auditor.setFailFast(false);
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch(
        "ch", 8, sim::ChannelContract{100, true});

    ch.push(1, 0);
    ch.dropFront(100, 250); // consumed exactly at push + lookahead
    ch.push(2, 40);
    ch.dropFront(500, 600);
    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_EQ(auditor.sendsAudited(), 2u);
    EXPECT_EQ(auditor.deliveriesAudited(), 2u);
    EXPECT_EQ(auditor.channel(0).minObservedLatency, 100u);

    sim::InvariantChecker chk;
    auditor.checkInvariants(chk);
    EXPECT_EQ(chk.failures(), 0u);
}

TEST(CausalityAuditor, TimeTravellingSendIsCaught)
{
    // The seeded fault: a message consumed sooner after its push than
    // the channel's declared lookahead permits. A conservative
    // parallel engine lagging the producer by minLatency would have
    // delivered this message late — the certificate must refuse it.
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor;
    auditor.setFailFast(false);
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch("ch", 8, sim::ChannelContract{100});

    ch.push(7, 50);
    ch.dropFront(90, 200); // consumed at 90 < 50 + 100
    ASSERT_EQ(auditor.violationCount(), 1u);
    EXPECT_EQ(auditor.violations()[0].channel, "ch");
    EXPECT_NE(auditor.violations()[0].detail.find("lookahead"),
              std::string::npos);

    // The invariant sweep re-reports the stored violation.
    sim::InvariantChecker chk;
    auditor.checkInvariants(chk);
    EXPECT_GT(chk.failures(), 0u);
}

TEST(CausalityAuditor, BackwardsPushOnMonotoneChannelIsCaught)
{
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor;
    auditor.setFailFast(false);
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch(
        "ch", 8, sim::ChannelContract{0, true});

    ch.push(1, 100);
    ch.push(2, 60); // producer clock ran backwards on a monotone channel
    EXPECT_EQ(auditor.violationCount(), 1u);
    EXPECT_NE(auditor.violations()[0].detail.find("monotone"),
              std::string::npos);
}

TEST(CausalityAuditor, SkewIsTelemetryOnNonMonotoneChannels)
{
    // Channels fed by skewed core-local clocks declare no
    // monotonicity; backwards pushes are legal and only tracked.
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor;
    auditor.setFailFast(false);
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch("ch", 8, sim::ChannelContract{});

    ch.push(1, 100);
    ch.push(2, 60);
    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_EQ(auditor.channel(0).maxObservedSkew, 40u);
}

TEST(CausalityAuditor, EventFiredBehindQueueClockIsCaught)
{
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor;
    auditor.setFailFast(false);
    auditor.onEventFired(10, 12);
    EXPECT_EQ(auditor.violationCount(), 0u);
    auditor.onEventFired(10, 5);
    ASSERT_EQ(auditor.violationCount(), 1u);
    EXPECT_EQ(auditor.violations()[0].channel, "eq");
}

TEST(CausalityAuditor, HooksDisarmWithChecksGate)
{
    // Disarmed, the hooks are free: nothing audited, nothing reported
    // — arming checks must never be required for correctness, only
    // for certification.
    ScopedChecks disarmed(false);
    sim::CausalityAuditor auditor;
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch("ch", 8, sim::ChannelContract{100});
    ch.push(7, 50);
    ch.dropFront(90, 200); // would violate the lookahead if armed
    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_EQ(auditor.sendsAudited(), 0u);
    EXPECT_EQ(auditor.deliveriesAudited(), 0u);
}

// --------------------------------------------------------------------
// Fail-fast (death test).
// --------------------------------------------------------------------

TEST(CausalityAuditorDeath, TimeTravellingSendPanicsFailFast)
{
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor; // fail-fast is the default
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch("ch", 8, sim::ChannelContract{100});
    ch.push(7, 50);
    EXPECT_DEATH(ch.dropFront(90, 200), "causality violation");
}

// --------------------------------------------------------------------
// Whole-system certification on a committed golden configuration.
// --------------------------------------------------------------------

TEST(CausalitySystem, GoldenConfigCertifiesCleanUnderAudit)
{
    ScopedChecks armed(true);
    const GoldenCase &gc = kGoldenCases[0];
    System sys(goldenCaseConfig(gc));
    sys.run();

    const sim::CausalityAuditor &auditor = sys.causalityAuditor();
    EXPECT_EQ(auditor.violationCount(), 0u)
        << (auditor.violations().empty()
                ? std::string()
                : auditor.violations()[0].detail);
    // The certificate is vacuous unless real traffic was audited.
    EXPECT_GE(auditor.channelCount(), 3u);
    EXPECT_GT(auditor.sendsAudited(), 0u);
    EXPECT_GT(auditor.deliveriesAudited(), 0u);
    EXPECT_GE(auditor.sendsAudited(), auditor.deliveriesAudited());
    EXPECT_GT(auditor.eventsAudited(), 0u);
}

// --------------------------------------------------------------------
// Every golden case runs clean under the armed auditor and invariant
// sweeps, audits the rsp/ctl channels, and keeps its golden bytes.
// Ownership holds by construction: one queue runs every component, so
// each callback already executes in its owning domain.
// --------------------------------------------------------------------

namespace {

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
    sys.causalityAuditor().setFailFast(false);
    const RunResults r = sys.run();

    EXPECT_GT(r.invariantSweeps, 0u);
    EXPECT_EQ(r.invariantViolations, 0u)
        << sys.invariantRegistry().report();
    EXPECT_EQ(sys.causalityAuditor().violationCount(), 0u);

    // The response/control pair carries every miss ack, install
    // request and install grant; its hooks are armed on every shard.
    const DramCache *dc = sys.dramCache();
    ASSERT_NE(dc, nullptr);
    for (std::uint32_t i = 0; i < dc->shardCount(); ++i) {
        const std::string tag =
            dc->shardCount() == 1 ? std::string{} : std::to_string(i);
        EXPECT_TRUE(sys.invariantRegistry().contains(
            "dcache.bc_to_fc_rsp" + tag));
        EXPECT_TRUE(sys.invariantRegistry().contains(
            "dcache.fc_to_bc_ctl" + tag));
        EXPECT_GT(dc->rspChannel(i).stats().pushes.value(), 0u);
        EXPECT_GT(dc->ctlChannel(i).stats().pushes.value(), 0u);
        EXPECT_TRUE(dc->rspChannel(i).empty());
        EXPECT_TRUE(dc->ctlChannel(i).empty());
    }

    // Arming checks never moves the golden bytes: the auditor's
    // counters and the invariant hooks live outside the stats tree.
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
