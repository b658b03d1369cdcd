/**
 * @file
 * Frontside controller (FC) of the DRAM cache (§IV-B, Fig. 5).
 *
 * The FC extends a conventional DRAM controller: it RASes the set's
 * row, CASes the tag column, compares tags, and either CASes the data
 * (hit) or hands a MissRequest to the page's backside-controller shard
 * and returns a miss response so the on-chip MSHRs can be reclaimed.
 * It is a 1-cycle-per-op FSM; everything slower (MSR dedup, flash
 * issue) lives in the backside controller.
 *
 * Ownership (DESIGN.md §11): the FC owns the tag array, the DRAM
 * device model, and the footprint masks. The backside sees them only
 * through call arguments: footprint history is snapshotted into
 * MissRequest::histMask, and when a read arrives the BC calls
 * install(), which runs the tag fill and the DRAM install access and
 * returns an InstallGrant. The BC then calls pageReady() to wake the
 * merged waiters. The FC never names the MSR, the evict buffer, or
 * the flash device.
 *
 * With backside sharding (BcConfig::shards > 1) each miss goes to
 * shard mem::pageInterleave(page, shards).
 */

#ifndef ASTRIFLASH_CORE_FRONTSIDE_CONTROLLER_HH
#define ASTRIFLASH_CORE_FRONTSIDE_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/dram.hh"
#include "mem/set_assoc_cache.hh"
#include "sim/invariant.hh"
#include "sim/stats.hh"

#include "dc_messages.hh"
#include "dram_cache_types.hh"

namespace astriflash::core {

class BacksideController;

/** The DRAM cache's fast tag-compare FSM. */
class FrontsideController
{
  public:
    using PageReadyFn = std::function<void(
        mem::PageNum page, sim::Ticks when,
        const std::vector<WaiterCookie> &waiters)>;

    struct Stats {
        sim::Counter hits;
        sim::Counter misses;
        sim::Counter missesMerged;  ///< Deduplicated by the BC's MSR.
        sim::Counter syncAccesses;  ///< Forward-progress forced-sync.
        sim::Counter subPageMisses; ///< Footprint mispredictions.
        sim::Histogram hitLatency;  ///< FC path, ticks.

        double
        hitRatio() const
        {
            const double t = static_cast<double>(hits.value() +
                                                 misses.value() +
                                                 missesMerged.value());
            return t > 0 ? static_cast<double>(hits.value()) / t : 0.0;
        }
    };

    /**
     * @param shards the backside shards misses are routed to; the
     *        facade fills the vector after constructing the FC.
     */
    FrontsideController(
        std::string name, const DramCacheConfig &config,
        mem::Dram &dram, mem::SetAssocCache &tags,
        FootprintState &footprint,
        const std::vector<std::unique_ptr<BacksideController>> &shards);

    /** Register the page-arrival notification hook. */
    void setPageReadyCallback(PageReadyFn fn) { onReady = std::move(fn); }

    /**
     * Frontside access from the LLC miss path. Hits complete here; a
     * miss completes from the backside shard's reply.
     */
    DcAccess access(mem::Addr pa, bool write, sim::Ticks now,
                    WaiterCookie waiter);

    /**
     * Forced-synchronous access (forward-progress / Flash-Sync):
     * @return the tick the blocked requester's data is readable.
     */
    sim::Ticks accessSync(mem::Addr pa, bool write, sim::Ticks now);

    /**
     * Install a page whose flash read arrived at @p at (called by its
     * backside shard): record the fetched blocks, fill the tag array,
     * and stream the @p fetch_mask blocks into the frame.
     * @return the victim the fill displaced and the install's DRAM
     *         completion tick.
     */
    InstallGrant install(mem::PageNum page, std::uint64_t fetch_mask,
                         bool dirty, sim::Ticks at);

    /** A page is ready at @p when: wake every merged waiter. */
    void
    pageReady(mem::PageNum page, sim::Ticks when,
              const std::vector<WaiterCookie> &waiters) const
    {
        if (onReady)
            onReady(page, when, waiters);
    }

    /** Zero all statistics (end of warmup). */
    void resetStats() { statsData = Stats{}; }

    void regStats(sim::StatRegistry &reg) const;

    /** Audit the FC's accounting self-consistency. */
    void checkInvariants(sim::InvariantChecker &chk) const;

    /**
     * Cross-controller audit run at quiesce points (both controllers
     * declare auditShared; the facade invokes them with the FC-owned
     * structures): footprint residency masks exist exactly for
     * resident pages.
     */
    void auditShared(sim::InvariantChecker &chk,
                     const mem::SetAssocCache &tags) const;

    const Stats &stats() const { return statsData; }
    const std::string &name() const { return fcName; }

  private:
    /** FC tag probe: RAS + tag CAS at the set's row. */
    sim::Ticks tagProbe(mem::Addr pa, sim::Ticks now);

    /** Outcome of the access path access() and accessSync() share. */
    struct Lookup {
        bool hit = false;        ///< Served by the cache or evict buffer.
        sim::Ticks ready = 0;    ///< Hit: data ready. Miss: page ready.
        sim::Ticks accepted = 0; ///< Miss: fc_to_bc accept tick.
    };

    /**
     * Tag probe, then the data CAS on a hit or a request to the page's
     * backside shard on a miss, with the hit/miss accounting. A
     * @p sync access parks no waiter, and its evict-buffer hits take
     * no latency sample.
     */
    Lookup lookup(mem::Addr pa, bool write, sim::Ticks now, bool sync,
                  WaiterCookie waiter);

    sim::Ticks fcOp() const { return fcOpTicks; }

    /** BC shard serving @p page (round-robin page interleave). */
    std::uint32_t
    shardOf(mem::PageNum page) const
    {
        return mem::pageInterleave(
            page, static_cast<std::uint32_t>(bcs.size()));
    }

    std::string fcName;
    const DramCacheConfig &cfg;
    mem::Dram &dramModel;
    mem::SetAssocCache &pageTags;
    FootprintState &fp;
    const std::vector<std::unique_ptr<BacksideController>> &bcs;
    PageReadyFn onReady;
    sim::Ticks fcOpTicks;
    Stats statsData;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_FRONTSIDE_CONTROLLER_HH
