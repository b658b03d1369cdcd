/**
 * @file
 * Backside controller (BC) of the DRAM cache (§IV-B, Fig. 5).
 *
 * The BC is the programmable (slower per operation) half of the
 * controller pair: it drains MissRequests off the FC→BC channel,
 * deduplicates them through the in-DRAM Miss Status Row, issues 4 KB
 * flash reads through its own flash::Backend submit path, parks
 * victims in the evict buffer, and writes dirty victims back to flash
 * off the critical path.
 *
 * Single-owner seam (DESIGN.md §11): the BC owns the MSR, the evict
 * buffer, the pending-miss table, and the flash submit path — and
 * nothing else. The page tags, the DRAM model, and the footprint
 * state are fc-owned; whenever the BC needs them (seeding a fetch
 * mask from footprint history, installing an arrived page) the data
 * crosses the seam as message fields: MissRequest::histMask inbound,
 * a BcNotice::InstallReq outbound answered by an InstallGrant. The BC
 * never names the frontside controller or a concrete flash device
 * (aflint AF013/AF014); all its inputs and outputs are channels plus
 * the abstract flash::Backend.
 *
 * The BC drains its own inbound channels through synchronous drain
 * hooks, which keeps the whole miss chain nested inside the
 * producer's push exactly like the pre-split facade pump.
 */

#ifndef ASTRIFLASH_CORE_BACKSIDE_CONTROLLER_HH
#define ASTRIFLASH_CORE_BACKSIDE_CONTROLLER_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "flash/backend.hh"
#include "mem/address_map.hh"
#include "mem/set_assoc_cache.hh"
#include "sim/bounded_channel.hh"
#include "sim/invariant.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

#include "dc_messages.hh"
#include "dram_cache_types.hh"
#include "evict_buffer.hh"
#include "miss_status_row.hh"

namespace astriflash::core {

/** The DRAM cache's programmable miss engine. */
class BacksideController : public sim::SimObject
{
  public:
    struct Stats {
        sim::Counter fills;
        sim::Counter dirtyWritebacks;
        sim::Counter flashBytesRead; ///< Refill traffic (footprint
                                     ///< mode transfers fewer bytes).
        sim::Histogram missPenalty;  ///< Miss to page-ready, ticks.
        std::uint64_t peakOutstanding = 0;
    };

    /**
     * @param msr_sets / @p msr_entries_per_set / @p evict_entries
     *        this shard's slice of the cache-wide MSR and evict-buffer
     *        capacities (the facade slices BcConfig's totals with
     *        shardSlice()).
     * @param flash_dev the shard's submit path. The BC derives its
     *        conservative read estimate from it.
     */
    BacksideController(sim::EventQueue &eq, std::string name,
                       const DramCacheConfig &config,
                       const mem::AddressMap &amap,
                       flash::Backend &flash_dev,
                       sim::BoundedChannel<MissRequest> &inbox,
                       sim::BoundedChannel<FlashCmdMsg> &to_flash,
                       sim::BoundedChannel<InstallComplete> &to_fc,
                       sim::BoundedChannel<BcNotice> &to_fc_rsp,
                       sim::BoundedChannel<InstallGrant> &from_fc_ctl,
                       std::uint32_t msr_sets,
                       std::uint32_t msr_entries_per_set,
                       std::uint32_t evict_entries);

    /**
     * Install this controller's channel hooks. Both controllers
     * declare bindChannels(); the facade calls it after channel
     * construction, once per controller: synchronous drain hooks on
     * the inbox, the ctl channel, and the BC→flash command channel.
     */
    void bindChannels();

    /** Outstanding (in-flight) misses right now. */
    std::uint32_t
    outstandingMisses() const
    {
        return static_cast<std::uint32_t>(pending.size());
    }

    /** Zero all statistics (end of warmup). */
    void resetStats();

    void regStats(sim::StatRegistry &reg) const;

    /**
     * Audit the miss-tracking machinery: every issued pending miss
     * holds an MSR entry (and nothing else does); the per-set wait
     * queues hold exactly the un-issued pending misses, each in the
     * queue of the MSR set it maps to; and every set with a waiter is
     * full (DESIGN.md §8.2).
     */
    void checkInvariants(sim::InvariantChecker &chk) const;

    /**
     * Cross-domain audit run at quiesce points (both controllers
     * declare auditShared; the facade invokes them with the fc-owned
     * structures passed by const ref): no page may be both resident
     * in @p tags and pending here.
     */
    void auditShared(sim::InvariantChecker &chk,
                     const mem::SetAssocCache &tags) const;

    const Stats &stats() const { return statsData; }
    const MissStatusRow &msr() const { return msrTable; }
    const EvictBuffer &evictBuffer() const { return evictBuf; }

  private:
    struct PendingMiss {
        sim::Ticks dataReady = 0; ///< Install-complete estimate.
        std::vector<WaiterCookie> waiters;
        bool issued = false;   ///< Flash read issued (vs MSR-stalled).
        bool anyWrite = false; ///< Install dirty (write-allocate).
        std::uint64_t fetchMask = ~0ull; ///< Blocks to transfer.
        /** Next waiter in this miss's MSR-set queue (while stalled). */
        mem::PageNum nextStalled;
    };

    /**
     * FIFO of the misses waiting for an entry in one MSR set, linked
     * through PendingMiss::nextStalled; head and tail are meaningful
     * only while count > 0.
     */
    struct MsrWaitQueue {
        mem::PageNum head;
        mem::PageNum tail;
        std::uint32_t count = 0;
    };

    /** Page number of @p pa at this cache's page granularity. */
    mem::PageNum
    pageNum(mem::Addr pa) const
    {
        return mem::pageNumber(pa, cfg.pageBytes);
    }

    /** Byte base address of page @p pn (trace payloads, flash LPN). */
    mem::Addr
    pageByteAddr(mem::PageNum pn) const
    {
        return mem::pageAddr(pn, cfg.pageBytes);
    }

    /**
     * Service the MissRequest at the head of the FC→BC channel:
     * evict-buffer short-circuit, MSR dedup/alloc, flash issue. The
     * slot is released at the transaction's completion tick, so the
     * channel depth bounds the BC's outstanding-transaction window.
     * The reply leaves through the BC→FC response channel.
     */
    void serviceHead();

    /** Submit queued flash commands; reads schedule their arrival. */
    void pumpFlash();

    /** Drain every InstallGrant off the FC→BC ctl channel. */
    void pumpCtl();

    /**
     * A request for a page that already has a pending miss: widen the
     * fetch and mark it dirty as @p req asks.
     */
    void mergeMiss(const MissRequest &req, PendingMiss &miss,
                   sim::Ticks now);

    /**
     * A new miss, already entered in the pending table as @p miss:
     * MSR alloc, then the flash read or a place in its set's wait
     * queue. Leaves the requester's ready tick in miss.dataReady.
     */
    void startMiss(const MissRequest &req, PendingMiss &miss,
                   sim::Ticks now);

    /** Submit the flash read of the MSR-admitted @p page at @p at. */
    void issueRead(mem::PageNum page, const PendingMiss &miss,
                   sim::Ticks at);

    /** Expected cost of installing one page into its frame. */
    sim::Ticks installEstimate() const;

    /** A read completed: stamp the miss, schedule the arrival. */
    void flashReadIssued(mem::PageNum page, sim::Ticks issued_at,
                         sim::Ticks complete_at);

    /**
     * A read's arrival event: take the earliest-issued read due now
     * off arrivals and request its fc-side install.
     */
    void pageArrived();

    /** The FC installed the page: evict path, MSR free, waiters. */
    void finishInstall(const InstallGrant &grant, sim::Ticks now);

    /**
     * The MSR entry of @p freed was just released: issue the oldest
     * waiter of its set, if any. Every other waiter's set is full, so
     * none of them is retried (DESIGN.md §8.2).
     */
    void retryMsrStalled(mem::PageNum freed, sim::Ticks now);

    /** Drain one evict-buffer entry to flash. */
    void drainEvictBuffer(sim::Ticks now);

    sim::Ticks bcOp() const { return bcOpTicks; }

    const DramCacheConfig &cfg;
    const mem::AddressMap &addrMap;
    flash::Backend &flashDev;
    sim::BoundedChannel<MissRequest> &inbox;
    sim::BoundedChannel<FlashCmdMsg> &toFlash;
    sim::BoundedChannel<InstallComplete> &toFc;
    sim::BoundedChannel<BcNotice> &toFcRsp;
    sim::BoundedChannel<InstallGrant> &fromFcCtl;
    MissStatusRow msrTable;
    EvictBuffer evictBuf;
    std::unordered_map<mem::PageNum, PendingMiss> pending;
    std::vector<MsrWaitQueue> msrWait; ///< One per MSR set.
    std::uint64_t msrStalled = 0;      ///< Sum of msrWait counts.
    /** Issued reads by arrival tick; issue order within a tick. */
    std::multimap<sim::Ticks, mem::PageNum> arrivals;
    sim::Ticks bcOpTicks;
    sim::Ticks flashReadEstimate;
    Stats statsData;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_BACKSIDE_CONTROLLER_HH
