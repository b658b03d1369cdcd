/**
 * @file
 * Call records of the DRAM-cache controller pair (§IV-B).
 *
 * The frontside (FC) and backside (BC) controllers talk through plain
 * function calls; these structs are their arguments and results:
 *
 *   FC --MissRequest-->   BacksideController::request()
 *      <--BcReply--       (evict-buffer hit, or a new/merged miss)
 *   BC --page, fetch mask, dirty--> FrontsideController::install()
 *      <--InstallGrant--  (victim and DRAM install-complete tick)
 *   BC --page, ready, waiters--> FrontsideController::pageReady()
 *
 * Each BC shard models three hardware queues with sim::BoundedChannel
 * occupancy: fc_to_bc (held per request), bc_to_flash (per device
 * command) and bc_to_fc (per page-ready completion). See DESIGN.md §11.
 */

#ifndef ASTRIFLASH_CORE_DC_MESSAGES_HH
#define ASTRIFLASH_CORE_DC_MESSAGES_HH

#include <cstdint>

#include "mem/address.hh"
#include "sim/ticks.hh"

#include "dram_cache_types.hh"

namespace astriflash::core {

/**
 * FC→BC: one LLC-missing access handed across the controller split.
 * Its fc_to_bc slot is held for the whole miss transaction (until the
 * install completes), so the queue depth is the BC's
 * outstanding-transaction window.
 */
struct MissRequest {
    mem::PageNum page{0};
    bool write = false;
    /** Footprint refetch of a resident page: skips the evict-buffer
     *  short-circuit (the page cannot be parked there). */
    bool subPage = false;
    /** Async requests record a waiter for the page-ready callback;
     *  forced-synchronous ones block in place instead. */
    bool hasWaiter = false;
    WaiterCookie waiter = 0;
    /** Blocks the requester needs transferred (footprint mode). */
    std::uint64_t wantMask = ~std::uint64_t{0};
    /** Footprint history snapshot for this page, taken by the FC (it
     *  owns FootprintState; the BC seeds its fetch mask from these
     *  fields instead of reading fp.history). */
    bool histValid = false;
    std::uint64_t histMask = 0;
};

/** BC's reply to one MissRequest. */
struct BcReply {
    enum class Kind {
        EvictBufferHit, ///< Served from a parked victim page.
        MissStarted,    ///< New, merged, or MSR-stalled miss.
    };
    Kind kind = Kind::MissStarted;
    bool merged = false; ///< Deduplicated onto an in-flight miss.
    /** Tick the request entered the fc_to_bc queue (after any
     *  full-queue stall). */
    sim::Ticks accepted = 0;
    /** EvictBufferHit: data-ready tick. MissStarted: the (possibly
     *  conservative) tick the page's data will be installed. */
    sim::Ticks ready = 0;
};

/**
 * FC→BC install result: the FC performed the tag fill and the DRAM
 * install access for an arrived page; the BC finishes the miss (evict
 * path, MSR free, waiter release) from these fields without touching
 * any FC-owned structure.
 */
struct InstallGrant {
    /** Completion tick of the install's DRAM access. */
    sim::Ticks installComplete = 0;
    /** Victim evicted by the tag fill, bound for the evict buffer. */
    bool hasVictim = false;
    bool victimDirty = false;
    mem::PageNum victim{0};
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_DC_MESSAGES_HH
