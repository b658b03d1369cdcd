/**
 * @file
 * Tests for the DRAM cache with frontside/backside controllers.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/dram_cache.hh"
#include "flash/flash_device.hh"
#include "mem/address_map.hh"
#include "sim/event_queue.hh"

using namespace astriflash;
using namespace astriflash::core;
using namespace astriflash::sim;
using astriflash::mem::kPageSize;

namespace {

struct Rig {
    EventQueue eq;
    mem::AddressMap amap{64 << 20, 256 << 20};
    flash::FlashConfig fcfg;
    std::unique_ptr<flash::FlashDevice> flash;
    std::unique_ptr<DramCache> dc;
    std::vector<std::pair<mem::PageNum, std::vector<WaiterCookie>>>
        ready;

    explicit Rig(std::uint32_t msr_sets = 16, std::uint32_t msr_ways = 4,
                 const ChannelConfig &channels = {})
    {
        fcfg = flash::FlashConfig::forCapacity(512 << 20);
        flash = std::make_unique<flash::FlashDevice>(
            "flash", fcfg, (256 << 20) / kPageSize);
        DramCacheConfig cfg;
        cfg.capacityBytes = 2 << 20; // 512 page frames
        cfg.bc.msrSets = msr_sets;
        cfg.bc.msrEntriesPerSet = msr_ways;
        cfg.channels = channels;
        dc = std::make_unique<DramCache>(eq, "dc", cfg, *flash, amap);
        dc->setPageReadyCallback(
            [this](mem::PageNum page, Ticks,
                   const std::vector<WaiterCookie> &w) {
                ready.emplace_back(page, w);
            });
    }

    mem::Addr pa(std::uint64_t page) const
    {
        return amap.flashRange().base + page * kPageSize;
    }
};

} // namespace

TEST(DramCache, PrewarmedPageHits)
{
    Rig rig;
    rig.dc->prewarmPage(rig.pa(7));
    EXPECT_TRUE(rig.dc->pageResident(rig.pa(7) + 128));
    const auto r = rig.dc->access(rig.pa(7), false, 1000, 1);
    EXPECT_TRUE(r.hit);
    // Tag probe + data CAS: tens of ns, far below flash latency.
    EXPECT_LT(r.ready - 1000, microseconds(1));
    EXPECT_EQ(rig.dc->fcStats().hits.value(), 1u);
}

TEST(DramCache, MissReturnsEarlyMissResponse)
{
    Rig rig;
    const auto r = rig.dc->access(rig.pa(3), false, 0, 42);
    EXPECT_FALSE(r.hit);
    // The miss response (MSHR reclaim) arrives ns-scale, not after
    // the flash access.
    EXPECT_LT(r.ready, microseconds(1));
    EXPECT_EQ(rig.dc->outstandingMisses(), 1u);
}

TEST(DramCache, FillDeliversWaitersAfterFlashLatency)
{
    Rig rig;
    rig.dc->access(rig.pa(3), false, 0, 42);
    rig.eq.run();
    ASSERT_EQ(rig.ready.size(), 1u);
    EXPECT_EQ(rig.ready[0].first, mem::pageNumber(rig.pa(3)));
    ASSERT_EQ(rig.ready[0].second.size(), 1u);
    EXPECT_EQ(rig.ready[0].second[0], 42u);
    // Page now resident; next access hits.
    EXPECT_TRUE(rig.dc->pageResident(rig.pa(3)));
    EXPECT_GT(rig.eq.curTick(), microseconds(40));
}

TEST(DramCache, ConcurrentMissesToSamePageMerge)
{
    Rig rig;
    rig.dc->access(rig.pa(5), false, 0, 1);
    rig.dc->access(rig.pa(5) + 64, false, 100, 2);
    rig.dc->access(rig.pa(5) + 128, true, 200, 3);
    EXPECT_EQ(rig.dc->fcStats().misses.value(), 1u);
    EXPECT_EQ(rig.dc->fcStats().missesMerged.value(), 2u);
    rig.eq.run();
    // One flash read, one arrival with all three waiters.
    EXPECT_EQ(rig.flash->stats().reads.value(), 1u);
    ASSERT_EQ(rig.ready.size(), 1u);
    EXPECT_EQ(rig.ready[0].second.size(), 3u);
}

TEST(DramCache, WriteAllocateInstallsDirtyAndWritesBack)
{
    Rig rig;
    rig.dc->access(rig.pa(9), true, 0, 1);
    rig.eq.run();
    ASSERT_TRUE(rig.dc->pageResident(rig.pa(9)));
    // Evict page 9 by filling its set with conflicting pages.
    // Sets = 512/8 = 64 -> conflict stride 64 pages.
    std::uint64_t installed = 0;
    for (std::uint64_t k = 1; rig.dc->pageResident(rig.pa(9)) &&
                              k <= 16; ++k) {
        rig.dc->access(rig.pa(9 + k * 64), false,
                       rig.eq.curTick(), 1);
        rig.eq.run();
        ++installed;
    }
    EXPECT_FALSE(rig.dc->pageResident(rig.pa(9)));
    EXPECT_GE(rig.dc->bcStats().dirtyWritebacks.value(), 1u);
    EXPECT_GE(rig.flash->stats().writes.value(), 1u);
}

TEST(DramCache, SyncAccessBlocksForMiss)
{
    Rig rig;
    const Ticks ready = rig.dc->accessSync(rig.pa(11), false, 0);
    EXPECT_GT(ready, microseconds(40)); // waited out the flash read
    rig.eq.run();
    EXPECT_TRUE(rig.dc->pageResident(rig.pa(11)));
    EXPECT_EQ(rig.dc->fcStats().syncAccesses.value(), 1u);
}

TEST(DramCache, SyncAccessHitIsFast)
{
    Rig rig;
    rig.dc->prewarmPage(rig.pa(12));
    const Ticks ready = rig.dc->accessSync(rig.pa(12), false, 1000);
    EXPECT_LT(ready - 1000, microseconds(1));
}

TEST(DramCache, MsrSetConflictDefersFlashRead)
{
    // Single-set, 1-entry MSR: the second distinct miss must wait for
    // the first fill to free the entry.
    Rig rig(1, 1);
    rig.dc->access(rig.pa(2), false, 0, 1);
    rig.dc->access(rig.pa(3), false, 0, 2);
    EXPECT_EQ(rig.dc->msr().stats().setFullStalls.value(), 1u);
    rig.eq.run();
    // Both fills eventually complete.
    EXPECT_TRUE(rig.dc->pageResident(rig.pa(2)));
    EXPECT_TRUE(rig.dc->pageResident(rig.pa(3)));
    EXPECT_EQ(rig.flash->stats().reads.value(), 2u);
    EXPECT_EQ(rig.ready.size(), 2u);
}

TEST(DramCache, MissPenaltyTracksFlashScale)
{
    Rig rig;
    rig.dc->access(rig.pa(30), false, 0, 1);
    rig.eq.run();
    const auto p50 = rig.dc->bcStats().missPenalty.percentile(0.5);
    // Penalty measured at arrival: install cost, sub-flash scale.
    EXPECT_LT(p50, microseconds(5));
    EXPECT_EQ(rig.dc->bcStats().fills.value(), 1u);
}

TEST(DramCache, ResetStatsZeroes)
{
    Rig rig;
    rig.dc->prewarmPage(rig.pa(1));
    rig.dc->access(rig.pa(1), false, 0, 1);
    rig.dc->resetStats();
    EXPECT_EQ(rig.dc->fcStats().hits.value(), 0u);
    EXPECT_EQ(rig.dc->fcStats().misses.value(), 0u);
}

// ---------------------------------------------------------------
// Footprint-cache mode (§II-A optimization)
// ---------------------------------------------------------------

namespace {

struct FootprintRig : Rig {
    FootprintRig()
    {
        DramCacheConfig cfg;
        cfg.capacityBytes = 2 << 20;
        cfg.footprintEnabled = true;
        dc = std::make_unique<DramCache>(eq, "dcfp", cfg, *flash,
                                         amap);
        dc->setPageReadyCallback(
            [this](mem::PageNum page, Ticks,
                   const std::vector<WaiterCookie> &w) {
                ready.emplace_back(page, w);
            });
    }
};

} // namespace

TEST(DramCacheFootprint, FirstMissFetchesWholePage)
{
    FootprintRig rig;
    rig.dc->access(rig.pa(3), false, 0, 1);
    rig.eq.run();
    // No history: full transfer; every block of the page hits.
    EXPECT_EQ(rig.dc->bcStats().flashBytesRead.value(), 4096u);
    for (int b = 0; b < 64; ++b) {
        const auto r = rig.dc->access(rig.pa(3) + b * 64, false,
                                      rig.eq.curTick(), 1);
        EXPECT_TRUE(r.hit) << b;
    }
    EXPECT_EQ(rig.dc->fcStats().subPageMisses.value(), 0u);
}

TEST(DramCacheFootprint, RefetchTransfersOnlyFootprint)
{
    FootprintRig rig;
    // Touch two blocks of page 5, then force it out (sets = 64).
    rig.dc->access(rig.pa(5), false, 0, 1);
    rig.eq.run();
    rig.dc->access(rig.pa(5) + 64, false, rig.eq.curTick(), 1);
    for (std::uint64_t k = 1; rig.dc->pageResident(rig.pa(5)) &&
                              k <= 16; ++k) {
        rig.dc->access(rig.pa(5 + k * 64), false, rig.eq.curTick(),
                       1);
        rig.eq.run();
    }
    ASSERT_FALSE(rig.dc->pageResident(rig.pa(5)));
    const std::uint64_t before =
        rig.dc->bcStats().flashBytesRead.value();

    // Refetch: only the recorded 2-block footprint (plus the
    // requested block, already in it) is transferred.
    rig.dc->access(rig.pa(5), false, rig.eq.curTick(), 1);
    rig.eq.run();
    EXPECT_EQ(rig.dc->bcStats().flashBytesRead.value() - before,
              2 * 64u);
}

TEST(DramCacheFootprint, UnfetchedBlockIsSubPageMiss)
{
    FootprintRig rig;
    // Build a 1-block footprint for page 7, evict, refetch.
    rig.dc->access(rig.pa(7), false, 0, 1);
    rig.eq.run();
    for (std::uint64_t k = 1; rig.dc->pageResident(rig.pa(7)) &&
                              k <= 16; ++k) {
        rig.dc->access(rig.pa(7 + k * 64), false, rig.eq.curTick(),
                       1);
        rig.eq.run();
    }
    rig.dc->access(rig.pa(7), false, rig.eq.curTick(), 1);
    rig.eq.run();
    ASSERT_TRUE(rig.dc->pageResident(rig.pa(7)));

    // A different block of the now-resident page: sub-page miss that
    // fetches the remainder and then hits.
    const auto r =
        rig.dc->access(rig.pa(7) + 512, false, rig.eq.curTick(), 9);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(rig.dc->fcStats().subPageMisses.value(), 1u);
    rig.eq.run();
    const auto again =
        rig.dc->access(rig.pa(7) + 512, false, rig.eq.curTick(), 9);
    EXPECT_TRUE(again.hit);
}

TEST(DramCacheFootprint, SyncPathHandlesSubPageMiss)
{
    FootprintRig rig;
    rig.dc->access(rig.pa(8), false, 0, 1);
    rig.eq.run();
    for (std::uint64_t k = 1; rig.dc->pageResident(rig.pa(8)) &&
                              k <= 16; ++k) {
        rig.dc->access(rig.pa(8 + k * 64), false, rig.eq.curTick(),
                       1);
        rig.eq.run();
    }
    rig.dc->access(rig.pa(8), false, rig.eq.curTick(), 1);
    rig.eq.run();
    const Ticks now = rig.eq.curTick();
    const Ticks ready = rig.dc->accessSync(rig.pa(8) + 1024, false,
                                           now);
    EXPECT_GT(ready - now, microseconds(30)); // waited out flash
}

TEST(DramCache, HitRatioComputed)
{
    Rig rig;
    rig.dc->prewarmPage(rig.pa(0));
    rig.dc->access(rig.pa(0), false, 0, 1);
    rig.dc->access(rig.pa(99), false, 0, 1);
    EXPECT_DOUBLE_EQ(rig.dc->fcStats().hitRatio(), 0.5);
}

// --------------------------------------------------------------------
// FC miss pipeline: probe -> miss channel -> backside -> ack on the
// response channel. The FC latches exactly one ack per miss push
// (takeAck() hard-asserts it), so a lost or reordered ack aborts.
// --------------------------------------------------------------------

TEST(FcPipeline, SameTickProbesKeepFifoAckOrder)
{
    Rig rig;
    constexpr unsigned kProbes = 4;
    for (unsigned i = 0; i < kProbes; ++i) {
        const auto r = rig.dc->access(rig.pa(3 + i), false, 0, i + 1);
        // Each probe got its own ack inside its push and answered
        // with the early miss response.
        EXPECT_FALSE(r.hit);
        EXPECT_LT(r.ready, microseconds(1));
        EXPECT_EQ(rig.dc->outstandingMisses(), i + 1);
        EXPECT_TRUE(rig.dc->missChannel().empty());
    }

    rig.eq.run();

    // Every ack retired its own miss; fills woke waiters in page order
    // because equal-latency reads complete in issue order.
    EXPECT_EQ(rig.dc->fcStats().misses.value(), kProbes);
    EXPECT_EQ(rig.dc->outstandingMisses(), 0u);
    ASSERT_EQ(rig.ready.size(), kProbes);
    for (unsigned i = 0; i < kProbes; ++i) {
        ASSERT_EQ(rig.ready[i].second.size(), 1u);
        EXPECT_EQ(rig.ready[i].second[0], i + 1);
    }
    EXPECT_TRUE(rig.dc->rspChannel().empty());
    EXPECT_TRUE(rig.dc->ctlChannel().empty());
}

TEST(FcPipeline, ProbeIssuedAtAckTickStaysOrdered)
{
    Rig rig;
    rig.dc->access(rig.pa(3), false, 0, 1);

    // Issue a second probe at every rsp-channel activity tick the
    // first miss produces: these are exactly where a same-tick
    // probe-issue could slip ahead of a probe-response.
    const Ticks lat = rig.dc->rspChannel().contract().minLatency;
    std::vector<Ticks> issue_at;
    for (Ticks t = lat; t <= 4 * lat; t += lat)
        issue_at.push_back(t);
    unsigned issued = 0;
    for (const Ticks t : issue_at) {
        rig.eq.schedule(t, [&rig, &issued, t]() {
            rig.dc->access(rig.pa(100 + issued), false, t,
                           50 + issued);
            ++issued;
        });
    }

    rig.eq.run();

    // All probes resolved (takeAck asserts one ack per push) and
    // every miss was eventually installed and reported ready.
    EXPECT_EQ(issued, issue_at.size());
    EXPECT_EQ(rig.dc->fcStats().misses.value() +
                  rig.dc->fcStats().missesMerged.value(),
              1 + issue_at.size());
    EXPECT_EQ(rig.dc->outstandingMisses(), 0u);
    EXPECT_EQ(rig.ready.size(), 1 + issue_at.size());
}

TEST(FcPipeline, PendingDepthOneChargesBackpressureStats)
{
    // A miss channel of depth one admits one pending miss: each slot
    // is held until its install completes.
    ChannelConfig ch;
    ch.fcToBcDepth = 1;
    Rig rig(16, 4, ch);

    constexpr unsigned kProbes = 3;
    Ticks prev_ready = 0;
    for (unsigned i = 0; i < kProbes; ++i) {
        const auto r = rig.dc->access(rig.pa(3 + i), false, 0, i + 1);
        EXPECT_FALSE(r.hit);
        // Each excess probe is accepted only once the previous miss
        // released its slot, so its response lands strictly later.
        EXPECT_GT(r.ready, prev_ready);
        prev_ready = r.ready;
    }
    // Probes 2 and 3 found the window full and were charged for it.
    EXPECT_EQ(rig.dc->missChannel().stats().fullStalls.value(),
              kProbes - 1);
    EXPECT_GT(rig.dc->missChannel().stats().stallTicks.value(), 0u);

    rig.eq.run();
    EXPECT_EQ(rig.dc->fcStats().misses.value(), kProbes);
    EXPECT_EQ(rig.dc->outstandingMisses(), 0u);
    EXPECT_EQ(rig.ready.size(), kProbes);
}

TEST(FcPipeline, DepthOneChannelsSerializeWithoutLoss)
{
    // The narrowest legal window on every FC<->BC channel.
    ChannelConfig ch;
    ch.fcToBcDepth = 1;
    ch.bcToFcDepth = 1;
    ch.bcToFcRspDepth = 1;
    ch.fcToBcCtlDepth = 1;
    Rig rig(16, 4, ch);

    // Spaced misses: each round trip (miss -> ack -> install request
    // -> grant -> completion) recycles every slot before the next.
    constexpr unsigned kSpaced = 8;
    unsigned issued = 0;
    for (unsigned i = 0; i < kSpaced; ++i) {
        rig.eq.schedule(microseconds(200) * i, [&rig, &issued] {
            rig.dc->access(rig.pa(3 + issued), false,
                           rig.eq.curTick(), issued + 1);
            ++issued;
        });
    }
    rig.eq.run();
    EXPECT_EQ(issued, kSpaced);
    EXPECT_EQ(rig.dc->missChannel().stats().fullStalls.value(), 0u);

    // A same-tick burst, once every earlier slot has drained: the
    // single miss slot is held until each install completes, so every
    // later miss waits for it.
    const Ticks t0 = rig.eq.curTick() + microseconds(200);
    Ticks prev_ready = 0;
    for (unsigned i = 0; i < 3; ++i) {
        const DcAccess r =
            rig.dc->access(rig.pa(100 + i), false, t0, 50 + i);
        EXPECT_FALSE(r.hit);
        EXPECT_GT(r.ready, prev_ready);
        prev_ready = r.ready;
    }
    EXPECT_EQ(rig.dc->missChannel().stats().fullStalls.value(), 2u);
    rig.eq.run();

    // Nothing dropped: every miss installed and woke its waiter.
    EXPECT_EQ(rig.dc->fcStats().misses.value(), kSpaced + 3);
    EXPECT_EQ(rig.dc->outstandingMisses(), 0u);
    EXPECT_EQ(rig.ready.size(), kSpaced + 3);
    EXPECT_TRUE(rig.dc->missChannel().empty());
    EXPECT_TRUE(rig.dc->rspChannel().empty());
    EXPECT_TRUE(rig.dc->ctlChannel().empty());
    EXPECT_TRUE(rig.dc->installChannel().empty());
    EXPECT_TRUE(rig.dc->flashChannel().empty());
}
