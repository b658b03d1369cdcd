/**
 * @file
 * Unit tests for sim::BoundedChannel, the occupancy model of a bounded
 * hardware queue: non-monotone acquire ticks, time-based occupancy and
 * backpressure (accept tick pushed out to the k-th slot release),
 * stall accounting, mid-flight stats reset, and the invariant audit.
 *
 * Separate binary (test_channel_suite): the misuse tests are death
 * tests and one arms the global checks gate, so they must not share a
 * process with timing suites.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/bounded_channel.hh"
#include "sim/invariant.hh"

using namespace astriflash;

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

/** Audit @p ch through a throwaway checker; @return failure count. */
std::uint64_t
auditFailures(const sim::BoundedChannel &ch)
{
    sim::InvariantChecker chk;
    ch.checkInvariants(chk);
    return chk.failures();
}

} // namespace

// --------------------------------------------------------------------
// Skewed producer clocks.
// --------------------------------------------------------------------

TEST(BoundedChannel, FifoOrderWithSkewedProducerClocks)
{
    // Producers on different cores acquire with skewed local clocks:
    // acquire ticks are not monotone, and each acquire prunes released
    // slots against its own tick.
    sim::BoundedChannel ch("ch", 2);
    EXPECT_EQ(ch.acquire(100), 100u);
    ch.release(300);
    // An earlier clock still sees the tick-300 slot in flight, and
    // one slot free.
    EXPECT_EQ(ch.acquire(40), 40u);
    ch.release(60);
    // At tick 50 both slots are in flight; the earlier release frees
    // one at tick 60.
    EXPECT_EQ(ch.acquire(50), 60u);
    ch.release(70);
    // A later clock sees the tick-60/70 slots drained, but not the
    // tick-300 one.
    EXPECT_EQ(ch.inFlight(250), 1u);
    EXPECT_EQ(ch.acquire(250), 250u);
    ch.release(260);

    EXPECT_EQ(ch.stats().pushes.value(), 4u);
    EXPECT_EQ(ch.stats().pops.value(), 4u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 10u);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, AcceptEqualsPushAtUnboundedDepth)
{
    // The timing-neutrality contract the FC/BC queues rely on: at
    // effectively-unbounded depth the accept tick always equals the
    // acquire tick, whatever the release history looks like.
    sim::BoundedChannel ch("ch", 65536);
    for (int i = 0; i < 100; ++i) {
        const sim::Ticks t = static_cast<sim::Ticks>(i * 37 % 1000);
        EXPECT_EQ(ch.acquire(t), t);
        ch.release(t + 5000); // slot held far into the future
    }
    EXPECT_EQ(ch.stats().fullStalls.value(), 0u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 0u);
    EXPECT_EQ(ch.stats().peakOccupancy, 100u);
}

// --------------------------------------------------------------------
// Capacity, backpressure, and stall accounting.
// --------------------------------------------------------------------

TEST(BoundedChannel, FullChannelDelaysAcceptToSlotRelease)
{
    sim::BoundedChannel ch("ch", 2);

    // Two transactions occupy both slots until ticks 100 and 200.
    EXPECT_EQ(ch.acquire(0), 0u);
    ch.release(100);
    EXPECT_EQ(ch.acquire(0), 0u);
    ch.release(200);

    EXPECT_EQ(ch.inFlight(10), 2u);
    EXPECT_TRUE(ch.wouldStall(10));
    EXPECT_EQ(ch.inFlight(150), 1u);
    EXPECT_FALSE(ch.wouldStall(150));

    // An acquire at t=10 finds every slot in flight: the accept tick
    // moves out to the earliest release (100) and the 90-tick stall is
    // charged to the channel.
    EXPECT_EQ(ch.acquire(10), 100u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 90u);
    EXPECT_FALSE(ch.empty());

    // After the slot-200 transaction also completes, acquires flow
    // freely again.
    ch.release(120);
    EXPECT_EQ(ch.acquire(250), 250u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().peakOccupancy, 2u);
}

TEST(BoundedChannel, ConsecutiveStallsWalkSuccessiveReleases)
{
    sim::BoundedChannel ch("ch", 3);

    // Three released slots busy until ticks 100/200/300.
    ch.acquire(0);
    ch.release(100);
    ch.acquire(0);
    ch.release(200);
    ch.acquire(0);
    ch.release(300);

    // Full at t=0: the first extra acquire waits for the earliest
    // release (tick 100); that slot stays unreleased, so the next
    // acquire can only reclaim the tick-200 slot. Each stall is
    // charged in full against the producer's own acquire tick.
    EXPECT_EQ(ch.acquire(0), 100u);
    EXPECT_EQ(ch.acquire(0), 200u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 2u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 300u);
}

// --------------------------------------------------------------------
// Invariant audit.
// --------------------------------------------------------------------

TEST(BoundedChannel, InvariantAuditPassesThroughLifecycle)
{
    sim::BoundedChannel ch("ch", 2);
    EXPECT_EQ(auditFailures(ch), 0u);

    ch.acquire(0);
    EXPECT_EQ(auditFailures(ch), 0u); // one slot unreleased

    ch.release(100);
    ch.acquire(0);
    ch.release(200);
    ch.acquire(10); // stalls to tick 100
    EXPECT_EQ(auditFailures(ch), 0u);

    ch.release(150);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, InvariantAuditIsRegistryCompatible)
{
    // The System registers each queue as its own invariant component;
    // verify the hook composes with the registry driver.
    sim::BoundedChannel ch("dcache.fc_to_bc", 4);
    ch.acquire(3);

    sim::InvariantRegistry reg;
    reg.setFailFast(false);
    reg.add(ch.name(),
            [&ch](sim::InvariantChecker &chk) { ch.checkInvariants(chk); });
    EXPECT_EQ(reg.checkAll(sim::microseconds(1)), 0u);
    EXPECT_GE(reg.conditionsEvaluated(), 5u);
}

// --------------------------------------------------------------------
// Misuse (death tests).
// --------------------------------------------------------------------

TEST(BoundedChannelDeath, ZeroCapacityIsFatal)
{
    EXPECT_EXIT(sim::BoundedChannel("bad", 0),
                ::testing::ExitedWithCode(1), "capacity >= 1");
}

TEST(BoundedChannelDeath, FullWithUndrainedMessagesPanics)
{
    // A queue full of slots whose release tick is undeclared has no
    // defined accept tick and must panic (when checks are armed).
    ScopedChecks armed(true);
    sim::BoundedChannel ch("ch", 1);
    ch.acquire(0); // occupies the only slot, never released
    EXPECT_DEATH(ch.acquire(0), "awaiting their release tick");
}

// --------------------------------------------------------------------
// Edge cases: depth-1, same-tick turnaround, exact-full boundary,
// and mid-flight stats reset.
// --------------------------------------------------------------------

TEST(BoundedChannel, DepthOneSerializesEveryTransaction)
{
    sim::BoundedChannel ch("ch", 1);

    // The single slot round-trips each transaction: with the slot held
    // to tick 50, the next acquire stalls to exactly that release.
    EXPECT_EQ(ch.acquire(0), 0u);
    ch.release(50);
    EXPECT_EQ(ch.acquire(10), 50u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 40u);
    ch.release(120);

    // An acquire after the release flows without a stall.
    EXPECT_EQ(ch.acquire(130), 130u);
    ch.release(130);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().peakOccupancy, 1u);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, SameTickSendAndReceive)
{
    sim::BoundedChannel ch("ch", 4);

    // Acquire and release at the identical tick: legal, nothing
    // charged as a stall.
    EXPECT_EQ(ch.acquire(42), 42u);
    ch.release(42);
    EXPECT_TRUE(ch.empty());
    // A slot released at tick 42 is already free to a tick-42 acquire.
    EXPECT_EQ(ch.inFlight(42), 0u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 0u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 0u);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, BackpressureExactlyAtFullOccupancy)
{
    sim::BoundedChannel ch("ch", 2);

    // One of two slots in flight: one below capacity, no backpressure.
    ch.acquire(0);
    ch.release(100);
    EXPECT_EQ(ch.inFlight(10), 1u);
    EXPECT_FALSE(ch.wouldStall(10));

    // Exactly at capacity: the boundary acquire must stall, and must
    // be accepted exactly at the earliest release tick, not one later.
    ch.acquire(0);
    ch.release(200);
    EXPECT_EQ(ch.inFlight(10), 2u);
    EXPECT_TRUE(ch.wouldStall(10));
    EXPECT_EQ(ch.acquire(10), 100u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 90u);

    // At the release tick itself the freed slot is usable: occupancy
    // is back below capacity from the consumer's viewpoint.
    ch.release(300);
    EXPECT_EQ(ch.inFlight(200), 1u);
    EXPECT_FALSE(ch.wouldStall(200));
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, ResetStatsMidFlightRebasesConservation)
{
    sim::BoundedChannel ch("ch", 4);
    ch.acquire(0);
    ch.acquire(5);
    ch.acquire(9);
    ch.release(500); // one slot in flight far into the future
    EXPECT_EQ(auditFailures(ch), 0u);

    // Reset mid-flight: conservation re-bases on the two unreleased
    // slots, the peak restarts at that count, and the in-flight slot
    // keeps its release tick.
    ch.resetStats();
    EXPECT_EQ(ch.stats().pushes.value(), 2u);
    EXPECT_EQ(ch.stats().pops.value(), 0u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 0u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 0u);
    EXPECT_EQ(ch.stats().peakOccupancy, 2u);
    EXPECT_EQ(auditFailures(ch), 0u);

    // Releases keep the accounting consistent after the reset.
    ch.release(20);
    ch.release(30);
    EXPECT_EQ(ch.stats().pops.value(), 2u);
    EXPECT_EQ(auditFailures(ch), 0u);

    // The pre-reset in-flight slot (release tick 500) still occupies
    // capacity after the reset; the tick-20/30 slots have drained.
    ch.acquire(40);
    ch.acquire(40);
    EXPECT_EQ(ch.inFlight(40), 3u); // 2 unreleased + the tick-500 slot
    EXPECT_EQ(auditFailures(ch), 0u);
}
