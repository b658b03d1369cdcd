/**
 * @file
 * Message schemas for the DRAM-cache controller channels (§IV-B).
 *
 * The frontside and backside controllers exchange state ONLY through
 * sim::BoundedChannel instances carrying these messages (enforced by
 * aflint rule AF013); the DramCache facade owns the channels but no
 * longer pumps them — each controller drains its own inbound
 * channels. Five channels exist per BC shard:
 *
 *   FC --MissRequest-->   BC   (the BC's transaction queue)
 *   BC --FlashCmdMsg-->   BC   (device command queue; the BC submits
 *                               through flash::Backend in its own
 *                               drain, so the seam is intra-domain)
 *   BC --BcNotice-->      FC   (miss acks + install requests: every
 *                               BC-side decision the FC acts on)
 *   FC --InstallGrant-->  BC   (tag/DRAM install results going back:
 *                               the FC owns pageTags/dramModel/fp,
 *                               the BC owns the evict path)
 *   BC --InstallComplete--> FC (wake the merged waiters)
 *
 * See DESIGN.md §11 for slot-lifetime rules and the single-owner
 * seam, and §14 for the per-channel lookahead manifest.
 */

#ifndef ASTRIFLASH_CORE_DC_MESSAGES_HH
#define ASTRIFLASH_CORE_DC_MESSAGES_HH

#include <cstdint>
#include <vector>

#include "flash/flash_command.hh"
#include "mem/address.hh"
#include "sim/ticks.hh"

#include "dram_cache_types.hh"

namespace astriflash::core {

/**
 * FC→BC: one LLC-missing access handed across the controller split.
 * The channel slot is held for the whole miss transaction (until the
 * install completes), so the miss-channel depth is the BC's
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
    /** Footprint history snapshot for this page, taken by the FC at
     *  push time (the FC owns FootprintState; the BC seeds its fetch
     *  mask from these fields instead of reading fp.history). */
    bool histValid = false;
    std::uint64_t histMask = 0;
};

/** BC's reply to one serviced MissRequest (carried in a BcNotice). */
struct BcReply {
    enum class Kind {
        EvictBufferHit, ///< Served from a parked victim page.
        MissStarted,    ///< New, merged, or MSR-stalled miss.
    };
    Kind kind = Kind::MissStarted;
    bool merged = false; ///< Deduplicated onto an in-flight miss.
    /** EvictBufferHit: data-ready tick. MissStarted: the (possibly
     *  conservative) tick the page's data will be installed. */
    sim::Ticks ready = 0;
};

/**
 * BC→flash: one device command. The BC's own drain pops and submits
 * through flash::Backend::submit() (the submit path is bc-owned);
 * the slot drains when the device finishes (reads) or accepts the
 * page (writes), so the depth models the device command queue.
 */
struct FlashCmdMsg {
    flash::FlashCommand cmd;
    /** Read fills: key into the BC's pending-miss table. */
    mem::PageNum page{0};
};

/**
 * BC→FC: a page finished installing; the FC fires the page-ready
 * callback so switch-on-miss cores wake every merged waiter.
 */
struct InstallComplete {
    mem::PageNum page{0};
    sim::Ticks ready = 0;
    std::vector<WaiterCookie> waiters;
};

/**
 * BC→FC response traffic (the `bc_to_fc_rsp` channel): one message
 * per BC-side decision the FC must act on. Two traffic classes share
 * the channel so per-shard FIFO order between acks and install
 * requests is preserved.
 */
struct BcNotice {
    enum class Kind {
        /** Reply to one MissRequest, in per-shard request order. */
        MissAck,
        /** A fetched page is ready to install: the FC (owner of
         *  pageTags/dramModel/fp) runs the fill and answers with an
         *  InstallGrant. */
        InstallReq,
    };
    Kind kind = Kind::MissAck;
    mem::PageNum page{0};
    /** MissAck payload. */
    BcReply reply;
    /** InstallReq payload: blocks fetched from flash, and whether the
     *  install marks the frame dirty (write-triggered miss). */
    std::uint64_t fetchMask = 0;
    bool dirty = false;
};

/**
 * FC→BC install result (the `fc_to_bc_ctl` channel): the FC performed
 * the tag fill and the DRAM install access for an InstallReq; the BC
 * finishes the miss (evict path, MSR free, waiter release) from these
 * fields without touching any fc-owned structure.
 */
struct InstallGrant {
    mem::PageNum page{0};
    /** Completion tick of the install's DRAM access. */
    sim::Ticks installComplete = 0;
    /** Victim evicted by the tag fill, bound for the evict buffer. */
    bool hasVictim = false;
    bool victimDirty = false;
    mem::PageNum victim{0};
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_DC_MESSAGES_HH
