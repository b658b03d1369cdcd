#include "backside_controller.hh"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "sim/logging.hh"
#include "sim/trace_events.hh"

#include "frontside_controller.hh"

namespace {
constexpr std::uint32_t kNoCore =
    astriflash::sim::TraceRecord::kNoCore;
} // namespace

namespace astriflash::core {

BacksideController::BacksideController(
    sim::EventQueue &eq, std::string name,
    const DramCacheConfig &config, const mem::AddressMap &amap,
    flash::Backend &flash_dev, FrontsideController &frontside,
    std::uint32_t msr_sets, std::uint32_t msr_entries_per_set,
    std::uint32_t evict_entries)
    : sim::SimObject(eq, std::move(name)), cfg(config), addrMap(amap),
      flashDev(flash_dev), fc(frontside),
      missQ(SimObject::name() + ".fc_to_bc", config.channels.fcToBcDepth),
      flashQ(SimObject::name() + ".bc_to_flash",
             config.channels.bcToFlashDepth),
      readyQ(SimObject::name() + ".bc_to_fc",
             config.channels.bcToFcDepth),
      msrTable(SimObject::name() + ".msr", msr_sets,
               msr_entries_per_set),
      evictBuf(SimObject::name() + ".evictbuf", evict_entries),
      msrWait(msrTable.sets()), flashReadEstimate(flash_dev.readEstimate())
{
    const sim::ClockDomain clk(cfg.controllerFreqHz);
    bcOpTicks = clk.cycles(cfg.bc.cyclesPerOp);
}

BcReply
BacksideController::request(const MissRequest &req, sim::Ticks now)
{
    BcReply rep;
    rep.accepted = missQ.acquire(now);
    const sim::Ticks accept = rep.accepted;

    if (!req.subPage && evictBuf.contains(req.page)) {
        // The page is parked in the evict buffer awaiting writeback;
        // serve the request from there. (Footprint sub-page refetches
        // target a resident page, which cannot be parked here.)
        rep.kind = BcReply::Kind::EvictBufferHit;
        rep.ready = accept + bcOp();
        missQ.release(rep.ready);
        return rep;
    }

    // One hash of the page per request: the entry stays put until the
    // page installs, so the reference outlives the flash issue below.
    auto [it, fresh] = pending.try_emplace(req.page);
    PendingMiss &miss = it->second;
    rep.merged = !fresh;
    if (fresh)
        startMiss(req, miss, accept);
    else
        mergeMiss(req, miss, accept);
    rep.ready = miss.dataReady;
    if (req.hasWaiter)
        miss.waiters.push_back(req.waiter);
    // Merged requests ride the original transaction's slot and only
    // pay the BC's dequeue + MSR search; a new miss holds its slot
    // until the page's install completes, making the queue depth the
    // BC's outstanding-transaction window.
    missQ.release(rep.merged ? accept + 2 * bcOp() : miss.dataReady);
    return rep;
}

void
BacksideController::mergeMiss(const MissRequest &req, PendingMiss &miss,
                              sim::Ticks now)
{
    miss.anyWrite = miss.anyWrite || req.write;
    // Widen a not-yet-issued fetch to cover this request; an in-flight
    // transfer cannot grow, in which case an uncovered block
    // sub-page-misses again after the install.
    if (!miss.issued)
        miss.fetchMask |= req.wantMask;
    sim::traceEvent(sim::TracePoint::MsrDedup, now, kNoCore,
                    pageByteAddr(req.page), miss.waiters.size());
}

void
BacksideController::startMiss(const MissRequest &req, PendingMiss &miss,
                              sim::Ticks now)
{
    const mem::PageNum page = req.page;
    miss.anyWrite = req.write;
    // Footprint history is FC-owned; the FC snapshotted the page's
    // recorded footprint into the request.
    miss.fetchMask = cfg.footprintEnabled && req.histValid
        ? (req.histMask | req.wantMask) : ~0ull;

    // BC: one op to dequeue the request, one CAS-equivalent op to
    // search the MSR.
    const sim::Ticks bc_start = now + 2 * bcOp();
    switch (msrTable.allocate(page)) {
      case MsrAlloc::Duplicate:
        // pending and the MSR mirror each other; a duplicate here is
        // an invariant violation.
        ASTRI_PANIC("MSR holds %llx but pending table does not",
                    static_cast<unsigned long long>(
                        pageByteAddr(page)));
      case MsrAlloc::SetFull: {
        // BC waits for an entry in this set to free; the request sits
        // at the tail of the set's wait queue. dataReady is a
        // conservative estimate used only by forced-synchronous
        // requesters.
        miss.dataReady = bc_start + flashReadEstimate;
        MsrWaitQueue &q = msrWait[msrTable.setIndex(page)];
        if (q.count == 0) {
            q.head = page;
        } else {
            const auto tail = pending.find(q.tail);
            ASTRI_ASSERT(tail != pending.end());
            tail->second.nextStalled = page;
        }
        q.tail = page;
        ++q.count;
        ++msrStalled;
        sim::traceEvent(sim::TracePoint::MsrStall, bc_start, kNoCore,
                        pageByteAddr(page),
                        msrTable.setOccupancy(page));
        break;
      }
      case MsrAlloc::New:
        issueRead(page, miss, bc_start);
        break;
    }
    if (pending.size() > statsData.peakOutstanding)
        statsData.peakOutstanding = pending.size();
}

void
BacksideController::issueRead(mem::PageNum page, PendingMiss &miss,
                              sim::Ticks at)
{
    ASTRI_ASSERT_MSG(!miss.issued, "flash read for %llx issued twice",
                     static_cast<unsigned long long>(
                         pageByteAddr(page)));
    sim::traceEvent(sim::TracePoint::MsrInsert, at, kNoCore,
                    pageByteAddr(page), msrTable.occupancy());
    const std::uint64_t fetch_bytes =
        static_cast<std::uint64_t>(std::popcount(miss.fetchMask)) *
        mem::kBlockSize;
    // The slot drains when the device finishes the read, so the depth
    // models the device command queue.
    const sim::Ticks issued = flashQ.acquire(at);
    const sim::Ticks complete =
        flashDev
            .submit(flash::FlashCommand{flash::FlashCommand::Op::Read,
                                        addrMap.flashPage(
                                            pageByteAddr(page)),
                                        mem::Bytes(fetch_bytes)},
                    issued)
            .complete;
    flashQ.release(complete);
    sim::traceEvent(sim::TracePoint::FlashReadIssue, issued, kNoCore,
                    pageByteAddr(page), fetch_bytes);
    miss.issued = true;
    miss.dataReady = complete + bcOp() + installEstimate();
    const sim::Ticks arrive = std::max(complete, curTick());
    arrivals.emplace(arrive, page);
    scheduleIn(arrive - curTick(), [this] { pageArrived(); });
}

sim::Ticks
BacksideController::installEstimate() const
{
    // Closed-row activate plus streaming the 4 KB page.
    return cfg.dram.closedRowLatency() +
           cfg.dram.tBurst * (cfg.pageBytes / mem::kBlockSize - 1) +
           bcOp();
}

void
BacksideController::pageArrived()
{
    const sim::Ticks now = curTick();
    // Each read scheduled one arrival event at its arrival tick, and
    // every event takes the earliest-issued read due now: same-tick
    // arrivals contend for the DRAM install in issue order, whatever
    // order the kernel fires their events in.
    const auto next = arrivals.begin();
    ASTRI_ASSERT_MSG(next != arrivals.end() && next->first == now,
                     "%s: arrival event with no read due at %llu",
                     name().c_str(),
                     static_cast<unsigned long long>(now));
    const mem::PageNum page = next->second;
    arrivals.erase(next);
    sim::traceEvent(sim::TracePoint::FlashReadDone, now, kNoCore,
                    pageByteAddr(page));

    auto pit = pending.find(page);
    ASTRI_ASSERT_MSG(pit != pending.end(),
                     "arrival for page %llx with no pending miss",
                     static_cast<unsigned long long>(
                         pageByteAddr(page)));
    const std::uint64_t fetch_mask = pit->second.fetchMask;
    const std::uint64_t fetch_bytes =
        static_cast<std::uint64_t>(std::popcount(fetch_mask)) *
        mem::kBlockSize;
    statsData.flashBytesRead.inc(
        fetch_bytes > cfg.pageBytes ? cfg.pageBytes : fetch_bytes);

    // Securing a frame needs the tag array, the DRAM model, and the
    // footprint masks — all FC-owned — so the FC runs the install.
    const InstallGrant grant =
        fc.install(page, fetch_mask, pit->second.anyWrite, now);
    statsData.fills.inc();

    // A displaced victim parks in the evict buffer and drains to
    // flash off the critical path.
    if (grant.hasVictim) {
        if (evictBuf.full()) {
            // Backpressure: force-drain the oldest entry now (the
            // install stalls behind the BC's emergency writeback).
            drainEvictBuffer(now);
        }
        const bool ok =
            evictBuf.insert(grant.victim, grant.victimDirty, now);
        ASTRI_ASSERT(ok);
        sim::traceEvent(sim::TracePoint::PageEvict, now, kNoCore,
                        pageByteAddr(grant.victim),
                        grant.victimDirty ? 1 : 0);
        // Lazy drain keeps writes off the read path.
        const sim::Ticks drain_at = now + bcOp() * 4;
        scheduleIn(drain_at > curTick() ? drain_at - curTick() : 0,
                   [this] { drainEvictBuffer(curTick()); });
    }

    const sim::Ticks ready = grant.installComplete + bcOp();
    statsData.missPenalty.sample(ready > now ? ready - now : 0);
    sim::traceEvent(sim::TracePoint::PageFill, ready, kNoCore,
                    pageByteAddr(page), ready > now ? ready - now : 0);

    // Free the MSR entry and unblock the set's oldest waiter.
    msrTable.free(page);
    retryMsrStalled(page, now);

    const std::vector<WaiterCookie> waiters =
        std::move(pit->second.waiters);
    pending.erase(pit);
    // The completion's slot recycles once the wakeup lands.
    const sim::Ticks accept = readyQ.acquire(now);
    readyQ.release(ready > accept ? ready : accept);
    fc.pageReady(page, ready, waiters);
}

void
BacksideController::retryMsrStalled(mem::PageNum freed, sim::Ticks now)
{
    MsrWaitQueue &q = msrWait[msrTable.setIndex(freed)];
    // Only full sets have waiters (DESIGN.md §8.2), so a retry of
    // every waiter would fail everywhere but the freed set, whose
    // oldest waiter takes the entry. Charge the failures it skips.
    msrTable.chargeSetFullRetries(msrStalled - (q.count != 0 ? 1 : 0));
    if (q.count == 0)
        return;
    const mem::PageNum page = q.head;
    const auto pit = pending.find(page);
    ASTRI_ASSERT_MSG(pit != pending.end() && !pit->second.issued,
                     "MSR wait queue holds %llx which is not an "
                     "un-issued pending miss",
                     static_cast<unsigned long long>(
                         pageByteAddr(page)));
    q.head = pit->second.nextStalled;
    --q.count;
    --msrStalled;
    const MsrAlloc alloc = msrTable.allocate(page);
    ASTRI_ASSERT(alloc == MsrAlloc::New);
    issueRead(page, pit->second, now + bcOp());
}

void
BacksideController::drainEvictBuffer(sim::Ticks now)
{
    if (evictBuf.empty())
        return;
    const EvictBuffer::Entry e = evictBuf.pop();
    sim::traceEvent(sim::TracePoint::EvictDrain, now, kNoCore,
                    pageByteAddr(e.page), e.dirty ? 1 : 0);
    if (e.dirty) {
        // The slot drains when the device accepts the page.
        const sim::Ticks issued = flashQ.acquire(now);
        flashQ.release(
            flashDev
                .submit(flash::FlashCommand{flash::FlashCommand::Op::Write,
                                            addrMap.flashPage(
                                                pageByteAddr(e.page)),
                                            mem::Bytes{0}},
                        issued)
                .complete);
        statsData.dirtyWritebacks.inc();
    }
}

void
BacksideController::resetStats()
{
    statsData = Stats{};
    // Misses in flight across the reset still count toward the
    // measurement window's peak.
    statsData.peakOutstanding = pending.size();
}

void
BacksideController::regStats(sim::StatRegistry &reg) const
{
    reg.registerCounter("fills", &statsData.fills,
                        "pages installed into the cache");
    reg.registerCounter("dirty_writebacks", &statsData.dirtyWritebacks,
                        "dirty victims programmed to flash");
    reg.registerCounter("flash_bytes_read", &statsData.flashBytesRead,
                        "refill bytes transferred from flash");
    reg.registerHistogram("miss_penalty", &statsData.missPenalty,
                          "miss-to-page-ready latency in ticks");
    reg.registerUint("peak_outstanding", &statsData.peakOutstanding,
                     "maximum concurrent outstanding misses");
    msrTable.regStats(reg.subRegistry("msr"));
    evictBuf.regStats(reg.subRegistry("evictbuf"));
}

void
BacksideController::checkInvariants(sim::InvariantChecker &chk) const
{
    // The MSR and the pending table mirror each other: exactly the
    // issued misses hold entries.
    std::uint32_t issued = 0;
    // Audit-only walk; every element is checked independently, so
    // iteration order cannot matter (baselined AF015).
    for (const auto &[page, miss] : pending) {
        SIM_INVARIANT_MSG(chk, !miss.waiters.empty() || miss.issued,
                          "un-issued miss %llx has no waiters",
                          static_cast<unsigned long long>(
                              pageByteAddr(page)));
        if (miss.issued) {
            ++issued;
            SIM_INVARIANT_MSG(chk, msrTable.contains(page),
                              "issued miss %llx lost its MSR entry",
                              static_cast<unsigned long long>(
                                  pageByteAddr(page)));
        }
    }
    SIM_INVARIANT_MSG(chk, msrTable.occupancy() == issued,
                      "MSR holds %u entries but %u misses are issued",
                      msrTable.occupancy(), issued);

    // The per-set wait queues hold exactly the un-issued pending
    // pages, each under the MSR set it maps to, and only full sets
    // have waiters. retryMsrStalled's O(1) retry relies on all of it.
    std::unordered_set<mem::PageNum> queued;
    std::uint64_t counted = 0;
    for (std::uint32_t s = 0; s < msrWait.size(); ++s) {
        const MsrWaitQueue &q = msrWait[s];
        counted += q.count;
        if (q.count == 0)
            continue;
        SIM_INVARIANT_MSG(chk,
                          msrTable.setOccupancy(q.head) ==
                              msrTable.entriesPerSet(),
                          "MSR set %u has %u waiters but is not full",
                          s, q.count);
        mem::PageNum page = q.head;
        for (std::uint32_t k = 0; k < q.count; ++k) {
            const auto it = pending.find(page);
            const bool stalled =
                it != pending.end() && !it->second.issued;
            SIM_INVARIANT_MSG(chk, stalled,
                              "MSR set %u's wait queue holds %llx which "
                              "is not an un-issued pending miss",
                              s,
                              static_cast<unsigned long long>(
                                  pageByteAddr(page)));
            SIM_INVARIANT_MSG(chk, msrTable.setIndex(page) == s,
                              "page %llx maps to MSR set %u but waits "
                              "in set %u's queue",
                              static_cast<unsigned long long>(
                                  pageByteAddr(page)),
                              msrTable.setIndex(page), s);
            SIM_INVARIANT_MSG(chk, queued.insert(page).second,
                              "page %llx queued twice behind a full "
                              "MSR set",
                              static_cast<unsigned long long>(
                                  pageByteAddr(page)));
            if (!stalled)
                break;
            if (k + 1 == q.count) {
                SIM_INVARIANT_MSG(chk, page == q.tail,
                                  "MSR set %u's wait queue ends at "
                                  "%llx, not at its tail",
                                  s,
                                  static_cast<unsigned long long>(
                                      pageByteAddr(page)));
            }
            page = it->second.nextStalled;
        }
    }
    SIM_INVARIANT_MSG(chk, counted == msrStalled,
                      "per-set wait counts sum to %llu but %llu misses "
                      "are stalled",
                      static_cast<unsigned long long>(counted),
                      static_cast<unsigned long long>(msrStalled));
    SIM_INVARIANT_MSG(chk,
                      queued.size() == pending.size() - issued,
                      "%zu stalled pages but %zu un-issued misses",
                      queued.size(), pending.size() - issued);

    // Every read awaiting its arrival event is due now or later and
    // belongs to an issued miss.
    for (const auto &[tick, page] : arrivals) {
        SIM_INVARIANT_MSG(chk, tick >= curTick(),
                          "read of %llx arrives at %llu, before now",
                          static_cast<unsigned long long>(
                              pageByteAddr(page)),
                          static_cast<unsigned long long>(tick));
        const auto it = pending.find(page);
        SIM_INVARIANT_MSG(chk,
                          it != pending.end() && it->second.issued,
                          "read of %llx in flight without an issued "
                          "miss",
                          static_cast<unsigned long long>(
                              pageByteAddr(page)));
    }

    SIM_INVARIANT(chk, statsData.peakOutstanding >= pending.size());
    // Every install freed exactly one MSR entry in the same event.
    // The MSR counter is cumulative while fills resets at measurement
    // start, so lifetime frees bound the windowed fill count.
    SIM_INVARIANT_MSG(chk,
                      msrTable.stats().frees.value() >=
                          statsData.fills.value(),
                      "%llu fills outnumber %llu MSR frees",
                      static_cast<unsigned long long>(
                          statsData.fills.value()),
                      static_cast<unsigned long long>(
                          msrTable.stats().frees.value()));
}

void
BacksideController::auditShared(sim::InvariantChecker &chk,
                                const mem::SetAssocCache &tags) const
{
    if (cfg.footprintEnabled) {
        // Footprint mode legitimately refetches absent blocks of
        // resident pages, so residency and pending can coexist.
        return;
    }
    // Cross-controller audit at a quiesce point: a full-page miss
    // cannot coexist with a resident copy. The tag array is FC-owned
    // and passed by const reference — the BC never holds it.
    // Audit-only, order-insensitive walk (baselined AF015).
    for (const auto &[page, miss] : pending) {
        (void)miss;
        SIM_INVARIANT_MSG(chk,
                          !tags.contains(pageByteAddr(page)),
                          "page %llx is both resident and pending",
                          static_cast<unsigned long long>(
                              pageByteAddr(page)));
    }
}

} // namespace astriflash::core
