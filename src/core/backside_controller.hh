/**
 * @file
 * Backside controller (BC) of the DRAM cache (§IV-B, Fig. 5).
 *
 * The BC is the programmable (slower per operation) half of the
 * controller pair: it services the FC's MissRequests, deduplicates
 * them through the in-DRAM Miss Status Row, issues 4 KB flash reads
 * through its flash::Backend, parks victims in the evict buffer, and
 * writes dirty victims back to flash off the critical path.
 *
 * Ownership (DESIGN.md §11): the BC owns the MSR, the evict buffer,
 * the pending-miss table, the flash submit path and its shard's three
 * hardware queues (fc_to_bc, bc_to_flash, bc_to_fc). The page tags,
 * the DRAM model, and the footprint state are FC-owned; the BC sees
 * them only through call arguments: MissRequest::histMask inbound,
 * and FrontsideController::install() when a read arrives, which runs
 * the tag fill and DRAM install and returns an InstallGrant. The BC
 * never names a concrete flash device (aflint AF014).
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

class FrontsideController;

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
     * @param frontside installs arrived pages and wakes their waiters.
     */
    BacksideController(sim::EventQueue &eq, std::string name,
                       const DramCacheConfig &config,
                       const mem::AddressMap &amap,
                       flash::Backend &flash_dev,
                       FrontsideController &frontside,
                       std::uint32_t msr_sets,
                       std::uint32_t msr_entries_per_set,
                       std::uint32_t evict_entries);

    /**
     * Service one FC request arriving at @p now: take an fc_to_bc
     * slot, then the evict-buffer short-circuit, or MSR dedup/alloc
     * and the flash issue. The slot is released at the transaction's
     * completion tick, so the queue depth bounds the BC's
     * outstanding-transaction window.
     */
    BcReply request(const MissRequest &req, sim::Ticks now);

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
     * Cross-controller audit run at quiesce points (both controllers
     * declare auditShared; the facade invokes them with the FC-owned
     * structures passed by const ref): no page may be both resident
     * in @p tags and pending here.
     */
    void auditShared(sim::InvariantChecker &chk,
                     const mem::SetAssocCache &tags) const;

    const Stats &stats() const { return statsData; }
    const MissStatusRow &msr() const { return msrTable; }
    const EvictBuffer &evictBuffer() const { return evictBuf; }

    /** FC→BC transaction queue (held per request). */
    const sim::BoundedChannel &missQueue() const { return missQ; }
    /** BC→flash device command queue. */
    const sim::BoundedChannel &flashQueue() const { return flashQ; }
    /** BC→FC page-ready completion queue. */
    const sim::BoundedChannel &readyQueue() const { return readyQ; }

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

    /**
     * Submit the flash read of the MSR-admitted @p page at @p at
     * through the bc_to_flash queue: stamp the miss's ready tick and
     * schedule the page's arrival.
     */
    void issueRead(mem::PageNum page, PendingMiss &miss, sim::Ticks at);

    /** Expected cost of installing one page into its frame. */
    sim::Ticks installEstimate() const;

    /**
     * A read's arrival event: take the earliest-issued read due now
     * off arrivals, have the FC install it, and finish the miss:
     * evict path, MSR free, waiters.
     */
    void pageArrived();

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
    FrontsideController &fc;
    sim::BoundedChannel missQ;
    sim::BoundedChannel flashQ;
    sim::BoundedChannel readyQ;
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
