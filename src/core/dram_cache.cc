#include "dram_cache.hh"

#include "sim/logging.hh"

namespace astriflash::core {

DramCache::DramCache(sim::EventQueue &eq, std::string name,
                     const DramCacheConfig &config,
                     flash::Backend &flash,
                     const mem::AddressMap &amap)
    : sim::SimObject(eq, std::move(name)), cfg(config),
      dramModel(SimObject::name() + ".dram", config.dram),
      pageTags(SimObject::name() + ".tags", config.capacityBytes,
               config.pageBytes, config.ways),
      fcCtl(SimObject::name() + ".fc", cfg, dramModel, pageTags,
            footprint, bcCtls)
{
    // Bad user configuration, not invariants: SIM_CHECK compiles out
    // in plain Release, shards=0 would SIGFPE in the slice division
    // below, and an empty slice would panic mid-run.
    const std::uint32_t shards = cfg.bc.shards;
    if (shards == 0)
        ASTRI_FATAL("%s: at least one BC shard required",
                    SimObject::name().c_str());

    // Capacity conservation: the per-shard slices of the cache-wide
    // MSR and evict-buffer capacities must sum exactly to the
    // configured totals under any shard count — sharding repartitions
    // buffering, it never creates or destroys it.
    std::uint64_t msr_set_sum = 0;
    std::uint64_t evict_sum = 0;
    for (std::uint32_t i = 0; i < shards; ++i) {
        const std::uint32_t msr_sets =
            shardSlice(cfg.bc.msrSets, shards, i);
        const std::uint32_t evict_entries =
            shardSlice(cfg.bc.evictBufferEntries, shards, i);
        if (msr_sets < 1 || evict_entries < 1)
            ASTRI_FATAL("%s: %u BC shards leave shard %u with %u MSR "
                        "sets and %u evict-buffer entries (cache-wide "
                        "%u MSR sets, %u evict-buffer entries); use "
                        "fewer shards or more capacity",
                        SimObject::name().c_str(), shards, i, msr_sets,
                        evict_entries, cfg.bc.msrSets,
                        cfg.bc.evictBufferEntries);
        msr_set_sum += msr_sets;
        evict_sum += evict_entries;
    }
    SIM_CHECK_MSG(msr_set_sum == cfg.bc.msrSets &&
                      evict_sum == cfg.bc.evictBufferEntries,
                  "%s: shard slices sum to %llu MSR sets / %llu evict "
                  "entries, configured %u / %u",
                  SimObject::name().c_str(),
                  static_cast<unsigned long long>(msr_set_sum),
                  static_cast<unsigned long long>(evict_sum),
                  cfg.bc.msrSets, cfg.bc.evictBufferEntries);

    bcCtls.reserve(shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
        bcCtls.push_back(std::make_unique<BacksideController>(
            eq, SimObject::name() + ".bc" + shardTag(i), cfg, amap,
            flash, fcCtl, shardSlice(cfg.bc.msrSets, shards, i),
            cfg.bc.msrEntriesPerSet,
            shardSlice(cfg.bc.evictBufferEntries, shards, i)));
    }
}

std::string
DramCache::shardTag(std::uint32_t shard) const
{
    // Unsharded names collapse to the pre-sharding spellings so the
    // golden stat namespaces stay byte-identical.
    return cfg.bc.shards == 1 ? std::string{}
                              : std::to_string(shard);
}

DcAccess
DramCache::access(mem::Addr pa, bool write, sim::Ticks now,
                  WaiterCookie waiter)
{
    return fcCtl.access(pa, write, now, waiter);
}

sim::Ticks
DramCache::accessSync(mem::Addr pa, bool write, sim::Ticks now)
{
    return fcCtl.accessSync(pa, write, now);
}

bool
DramCache::pageResident(mem::Addr pa) const
{
    return pageTags.contains(pa);
}

void
DramCache::prewarmPage(mem::Addr pa)
{
    auto victim = pageTags.fill(mem::pageBase(pa, cfg.pageBytes),
                                false);
    if (cfg.footprintEnabled) {
        footprint.fetched[mem::pageNumber(pa, cfg.pageBytes)] = ~0ull;
        if (victim) {
            // Set-conflict displacement during prewarm leaks the
            // victim's just-seeded mask (see FootprintState).
            footprint.prewarmEvicted.insert(
                mem::pageNumber(victim->tag_addr, cfg.pageBytes));
        }
    }
}

void
DramCache::resetStats()
{
    fcCtl.resetStats();
    for (auto &bc : bcCtls)
        bc->resetStats();
}

DramCache::BcTotals
DramCache::bcTotals() const
{
    BcTotals totals;
    for (const auto &bc : bcCtls) {
        totals.fills += bc->stats().fills.value();
        totals.dirtyWritebacks += bc->stats().dirtyWritebacks.value();
        totals.flashBytesRead += bc->stats().flashBytesRead.value();
        totals.peakOutstanding += bc->stats().peakOutstanding;
    }
    return totals;
}

void
DramCache::regStats(sim::StatRegistry &reg) const
{
    fcCtl.regStats(reg.subRegistry("fc"));
    for (std::uint32_t i = 0; i < shardCount(); ++i)
        bcCtls[i]->regStats(reg.subRegistry("bc" + shardTag(i)));
    dramModel.regStats(reg.subRegistry("dram"));
    pageTags.regStats(reg.subRegistry("tags"));
    for (std::uint32_t i = 0; i < shardCount(); ++i) {
        const std::string tag = shardTag(i);
        const BacksideController &bc = *bcCtls[i];
        bc.missQueue().regStats(reg.subRegistry("fc_to_bc" + tag));
        bc.flashQueue().regStats(reg.subRegistry("bc_to_flash" + tag));
        bc.readyQueue().regStats(reg.subRegistry("bc_to_fc" + tag));
    }
}

void
DramCache::checkInvariants(sim::InvariantChecker &chk) const
{
    fcCtl.checkInvariants(chk);
    fcCtl.auditShared(chk, pageTags);
    for (const auto &bc : bcCtls) {
        bc->checkInvariants(chk);
        bc->auditShared(chk, pageTags);
    }
}

} // namespace astriflash::core
