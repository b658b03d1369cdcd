/**
 * @file
 * Sharded backside controllers + pluggable flash fabric coverage.
 *
 *  - shardSlice() partitions any total exactly (no page of MSR or
 *    evict-buffer capacity gained or lost at any shard count).
 *  - A multi-shard DramCache conserves the miss stream: every miss
 *    lands on the shard pageInterleave() names, and the per-shard
 *    fill/channel counters sum to the facade totals.
 *  - FlashFabric stripes LPNs across devices by modulo and aggregates
 *    the per-device counters.
 *  - ZnsDevice reports write amplification > 1 under overwrite
 *    pressure and its log-conservation invariants hold.
 *  - With the knobs explicitly pinned to shards=1 / devices=1 / ftl,
 *    the six golden torture configs stay byte-identical to
 *    tests/golden/ — the sharding rework is a pure generalisation.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/dram_cache.hh"
#include "core/system.hh"
#include "flash/fabric.hh"
#include "flash/flash_device.hh"
#include "flash/zns_device.hh"
#include "mem/address_map.hh"
#include "sim/event_queue.hh"
#include "sim/invariant.hh"

#include "golden_cases.hh"

using namespace astriflash;
using namespace astriflash::core;
using namespace astriflash::sim;
using astriflash::mem::kPageSize;

namespace {

flash::FlashConfig
fastCfg()
{
    flash::FlashConfig c;
    c.channels = 2;
    c.diesPerChannel = 1;
    c.planesPerDie = 2;
    c.blocksPerPlane = 16;
    c.pagesPerBlock = 4;
    c.tRead = microseconds(40);
    c.tProgram = microseconds(600);
    c.tErase = milliseconds(3);
    c.tChannelXfer = microseconds(3);
    c.tController = microseconds(5);
    c.gcFreeBlockLow = 2;
    return c;
}

/** DramCache over an FTL device, with a configurable shard count. */
struct ShardRig {
    EventQueue eq;
    mem::AddressMap amap{64 << 20, 256 << 20};
    flash::FlashConfig fcfg;
    std::unique_ptr<flash::FlashDevice> flash;
    std::unique_ptr<DramCache> dc;
    std::vector<std::pair<mem::PageNum, std::vector<WaiterCookie>>>
        ready;

    explicit ShardRig(std::uint32_t shards)
    {
        fcfg = flash::FlashConfig::forCapacity(512 << 20);
        flash = std::make_unique<flash::FlashDevice>(
            "flash", fcfg, (256 << 20) / kPageSize);
        DramCacheConfig cfg;
        cfg.capacityBytes = 2 << 20; // 512 page frames
        cfg.bc.shards = shards;
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

// --------------------------------------------------------------------
// shardSlice: exact partition.
// --------------------------------------------------------------------

TEST(ShardSlice, PartitionsEveryTotalExactly)
{
    for (std::uint32_t shards : {1u, 2u, 3u, 4u, 7u, 8u}) {
        for (std::uint32_t total : {shards, 32u + shards, 128u, 257u}) {
            std::uint64_t sum = 0;
            for (std::uint32_t i = 0; i < shards; ++i) {
                const std::uint32_t slice =
                    shardSlice(total, shards, i);
                EXPECT_GE(slice, 1u)
                    << total << " over " << shards << " shard " << i;
                sum += slice;
            }
            EXPECT_EQ(sum, total) << total << " over " << shards;
        }
    }
}

// --------------------------------------------------------------------
// Sharded DramCache: routing + conservation.
// --------------------------------------------------------------------

TEST(ShardedDramCache, MissesRouteByPageInterleave)
{
    ShardRig rig(4);
    ASSERT_EQ(rig.dc->shardCount(), 4u);

    // 32 distinct single-waiter misses across consecutive pages.
    std::map<std::uint32_t, std::uint64_t> expected;
    for (std::uint64_t p = 0; p < 32; ++p) {
        const auto pn = mem::pageNumber(rig.pa(p));
        ++expected[rig.dc->shardOf(pn)];
        rig.dc->access(rig.pa(p), false, rig.eq.curTick(),
                       static_cast<WaiterCookie>(p));
        rig.eq.run();
    }
    EXPECT_EQ(rig.ready.size(), 32u);
    EXPECT_EQ(rig.dc->fcStats().misses.value(), 32u);

    // Consecutive pages interleave evenly over four shards.
    for (std::uint32_t s = 0; s < 4; ++s)
        EXPECT_EQ(expected[s], 8u) << "shard " << s;

    // Every shard's channel and fill counters match its page subset.
    std::uint64_t fills = 0;
    std::uint64_t pushes = 0;
    for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(rig.dc->bcStats(s).fills.value(), expected[s])
            << "shard " << s;
        EXPECT_EQ(rig.dc->missChannel(s).stats().pushes.value(),
                  expected[s])
            << "shard " << s;
        fills += rig.dc->bcStats(s).fills.value();
        pushes += rig.dc->missChannel(s).stats().pushes.value();
    }
    EXPECT_EQ(fills, 32u);
    EXPECT_EQ(pushes, rig.dc->fcStats().misses.value());

    // Facade totals are exactly the per-shard sums.
    const auto totals = rig.dc->bcTotals();
    EXPECT_EQ(totals.fills, fills);
    EXPECT_EQ(rig.flash->stats().reads.value(), 32u);
}

TEST(ShardedDramCache, CapacitySlicesSumToConfiguredTotals)
{
    // An odd shard count forces uneven slices; the sums must still be
    // exact (the facade SIM_CHECKs this at construction, too).
    for (std::uint32_t shards : {1u, 3u, 4u}) {
        ShardRig rig(shards);
        const auto &bc = rig.dc->config().bc;
        EXPECT_EQ(rig.dc->msrCapacity(),
                  std::uint64_t{bc.msrSets} * bc.msrEntriesPerSet)
            << shards << " shards";
    }
}

// --------------------------------------------------------------------
// FlashFabric: striping + aggregation.
// --------------------------------------------------------------------

TEST(FlashFabric, StripesLpnsByModuloAndAggregates)
{
    flash::FlashFabricConfig fab;
    fab.devices = 2;
    fab.backend = flash::BackendKind::Ftl;
    flash::FlashFabric fabric("flash", fastCfg(), fab, 64);
    ASSERT_EQ(fabric.deviceCount(), 2u);

    // Per-device preload splits 64 pages evenly.
    EXPECT_EQ(fabric.userPages(), 2 * fastCfg().userPages());

    for (std::uint64_t l = 0; l < 8; ++l) {
        fabric.submit(
            flash::FlashCommand{flash::FlashCommand::Op::Read,
                                flash::Lpn(l), mem::Bytes{0}},
            0);
    }
    // Even LPNs land on device 0, odd on device 1.
    EXPECT_EQ(fabric.device(0).readsCompleted(), 4u);
    EXPECT_EQ(fabric.device(1).readsCompleted(), 4u);
    EXPECT_EQ(fabric.readsCompleted(), 8u);

    fabric.submit(
        flash::FlashCommand{flash::FlashCommand::Op::Write,
                            flash::Lpn(3), mem::Bytes{0}},
        microseconds(500));
    EXPECT_EQ(fabric.device(1).writesAccepted(), 1u);
    EXPECT_EQ(fabric.writesAccepted(), 1u);
    EXPECT_EQ(fabric.hostWrites(), 1u);
}

// --------------------------------------------------------------------
// ZnsDevice: write amplification + log conservation.
// --------------------------------------------------------------------

TEST(ZnsDevice, OverwritePressureAmplifiesWritesAndConserves)
{
    const flash::FlashConfig cfg = fastCfg();
    flash::ZnsDevice dev("zns", cfg); // preload = full user dataset

    // Overwrite the (full) dataset repeatedly: every host write
    // invalidates a live copy, so the planes run out of free zones
    // and GC must relocate + reset.
    Ticks now = 0;
    const std::uint64_t user = dev.userPages();
    ASSERT_GT(user, 0u);
    for (std::uint64_t i = 0; i < 6 * user; ++i) {
        const auto r = dev.submit(
            flash::FlashCommand{flash::FlashCommand::Op::Write,
                                flash::Lpn(i % user), mem::Bytes{0}},
            now);
        now = r.complete + microseconds(1);
    }

    const auto &log = dev.logStats();
    EXPECT_EQ(log.hostWrites.value(), 6 * user);
    EXPECT_GT(log.zoneResets.value(), 0u);
    EXPECT_GT(log.gcInvalidations.value(), 0u);
    EXPECT_GT(dev.mediaWrites(), dev.hostWrites());
    EXPECT_GT(dev.writeAmplification(), 1.0);

    // Append conservation: media programs = host writes + GC moves.
    EXPECT_EQ(log.zoneAppends.value(),
              log.hostWrites.value() + log.gcRelocations.value());
    // Reclaim conservation: every reset page was moved or stale.
    EXPECT_EQ(log.gcRelocations.value() + log.gcInvalidations.value(),
              log.zoneResets.value() * cfg.pagesPerBlock);

    // The device's own audit agrees.
    InvariantRegistry reg;
    reg.setFailFast(false);
    reg.add("zns", [&dev](InvariantChecker &chk) {
        dev.checkInvariants(chk);
    });
    EXPECT_EQ(reg.checkAll(now), 0u) << reg.report();
}

TEST(ZnsDevice, ReadsStayConsistentAcrossRelocation)
{
    flash::ZnsDevice dev("zns", fastCfg());
    const std::uint64_t user = dev.userPages();
    Ticks now = 0;
    // Churn half the dataset so GC relocates the untouched half too.
    for (std::uint64_t i = 0; i < 4 * user; ++i) {
        const auto r = dev.submit(
            flash::FlashCommand{flash::FlashCommand::Op::Write,
                                flash::Lpn(i % (user / 2)),
                                mem::Bytes{0}},
            now);
        now = r.complete + microseconds(1);
    }
    // Every logical page still reads back (mapped or static).
    for (std::uint64_t l = 0; l < user; ++l) {
        const auto r = dev.submit(
            flash::FlashCommand{flash::FlashCommand::Op::Read,
                                flash::Lpn(l), mem::Bytes{0}},
            now);
        EXPECT_GT(r.complete, now);
    }
    EXPECT_EQ(dev.readsCompleted(), user);
}

// --------------------------------------------------------------------
// Golden byte-identity with the knobs explicitly at their defaults.
// --------------------------------------------------------------------

namespace {

class ShardFabricGolden
    : public ::testing::TestWithParam<tools::GoldenCase>
{
};

/** The unsharded golden cases. Sharded ones pin their shard/device
 *  counts as part of their golden identity, so forcing the
 *  single-shard defaults would test a different configuration. */
std::vector<tools::GoldenCase>
singleShardCases()
{
    std::vector<tools::GoldenCase> out;
    for (const tools::GoldenCase &gc : tools::kGoldenCases) {
        if (gc.shards == 1)
            out.push_back(gc);
    }
    return out;
}

} // namespace

TEST_P(ShardFabricGolden, ExplicitSingleShardFtlIsByteIdentical)
{
    const tools::GoldenCase &gc = GetParam();

    SystemConfig cfg = tools::goldenCaseConfig(gc);
    // Spell out what the defaults imply: one BC shard, one FTL device
    // behind the fabric. The run must reproduce the pre-sharding
    // golden files byte for byte.
    cfg.dramCache.bc.shards = 1;
    cfg.dramCache.fabric.devices = 1;
    cfg.dramCache.fabric.backend = flash::BackendKind::Ftl;

    System sys(cfg);
    const RunResults r = sys.run();

    std::ostringstream out;
    tools::writeGoldenJson(out, gc, r, sys);

    const std::string want =
        tools::readGoldenFile(ASTRI_GOLDEN_DIR, gc.name);
    ASSERT_FALSE(want.empty()) << "missing golden file for " << gc.name;
    EXPECT_EQ(out.str(), want)
        << "sharded facade perturbed case " << gc.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllTortureConfigs, ShardFabricGolden,
    ::testing::ValuesIn(singleShardCases()),
    [](const ::testing::TestParamInfo<tools::GoldenCase> &info) {
        return std::string(info.param.name);
    });
