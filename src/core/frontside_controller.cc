#include "frontside_controller.hh"

#include <bit>

#include "sim/logging.hh"

namespace astriflash::core {

FrontsideController::FrontsideController(
    std::string name, const DramCacheConfig &config, mem::Dram &dram,
    mem::SetAssocCache &tags, FootprintState &footprint,
    std::vector<std::unique_ptr<sim::BoundedChannel<MissRequest>>>
        &to_bc,
    std::vector<std::unique_ptr<sim::BoundedChannel<InstallComplete>>>
        &from_bc,
    std::vector<std::unique_ptr<sim::BoundedChannel<BcNotice>>>
        &from_bc_rsp,
    std::vector<std::unique_ptr<sim::BoundedChannel<InstallGrant>>>
        &to_bc_ctl)
    : fcName(std::move(name)), cfg(config), dramModel(dram),
      pageTags(tags), fp(footprint), toBc(to_bc), fromBc(from_bc),
      fromBcRsp(from_bc_rsp), toBcCtl(to_bc_ctl)
{
    const sim::ClockDomain clk(cfg.controllerFreqHz);
    fcOpTicks = clk.cycles(cfg.fc.cyclesPerOp);
}

void
FrontsideController::bindChannels()
{
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(toBc.size()); ++i) {
        // The backside's ack lands here inside its own push, latching
        // the reply for the access() call that triggered the whole
        // chain; install completions wake waiters in the same nested
        // call.
        fromBcRsp[i]->setDrainHook([this, i] { pumpRsp(i); });
        fromBc[i]->setDrainHook([this, i] { pumpInstalls(i); });
    }
}

sim::Ticks
FrontsideController::tagProbe(mem::Addr pa, sim::Ticks now)
{
    // RAS to open the set's row + CAS for the 64 B tag column + one
    // FC cycle for the compare.
    const auto res = dramModel.access(
        dcSetRowAddr(cfg, pageTags.numSets(), pa), now, false,
        mem::kBlockSize);
    return res.complete + fcOp();
}

MissRequest
FrontsideController::makeMiss(mem::PageNum page, bool write,
                              bool sub_page, bool has_waiter,
                              WaiterCookie waiter,
                              std::uint64_t want_mask) const
{
    MissRequest req{page, write, sub_page, has_waiter, waiter,
                    want_mask};
    if (cfg.footprintEnabled) {
        // Snapshot the page's recorded footprint at push time: the
        // history map is fc-owned, so the backside seeds its fetch
        // mask from these fields instead of reading it.
        const auto hist = fp.history.find(page);
        if (hist != fp.history.end()) {
            req.histValid = true;
            req.histMask = hist->second;
        }
    }
    return req;
}

DcAccess
FrontsideController::access(mem::Addr pa, bool write, sim::Ticks now,
                            WaiterCookie waiter)
{
    Probe p;
    p.page = mem::pageNumber(pa, cfg.pageBytes);
    p.start = now;
    p.bit = dcBlockBit(pa);
    p.shard = shardOf(p.page);
    const sim::Ticks probe_done = tagProbe(pa, now);
    const bool hit =
        write ? pageTags.accessWrite(pa) : pageTags.access(pa);

    if (hit) {
        bool sub_page_miss = false;
        if (cfg.footprintEnabled) {
            fp.touched[p.page] |= p.bit;
            sub_page_miss = !(fp.fetched[p.page] & p.bit);
        }
        if (!sub_page_miss) {
            // Data CAS in the (now open) row.
            const auto data = dramModel.access(
                dcSetRowAddr(cfg, pageTags.numSets(), pa) +
                    mem::kBlockSize,
                probe_done, write, mem::kBlockSize);
            statsData.hits.inc();
            statsData.hitLatency.sample(data.complete - now);
            return DcAccess{true, data.complete};
        }
        // Sub-page miss: the resident page was only partially
        // transferred and this block is absent; fetch the remainder
        // through the normal switch-on-miss path.
        statsData.subPageMisses.inc();
        p.subPage = true;
        p.accepted = toBc[p.shard]->push(
            makeMiss(p.page, write, true, true, waiter,
                     ~fp.fetched[p.page]),
            probe_done);
    } else {
        // Tag miss: hand the page request to the backside through the
        // shard's miss channel; the MissAck decides evict-buffer hit
        // vs miss.
        p.accepted = toBc[p.shard]->push(
            makeMiss(p.page, write, false, true, waiter, p.bit),
            probe_done);
    }

    // The push synchronously ran the backside's drain; its ack came
    // back through the response channel and is latched.
    return finishMiss(p, takeAck());
}

sim::Ticks
FrontsideController::accessSync(mem::Addr pa, bool write,
                                sim::Ticks now)
{
    Probe p;
    p.page = mem::pageNumber(pa, cfg.pageBytes);
    p.start = now;
    p.bit = dcBlockBit(pa);
    p.shard = shardOf(p.page);
    const sim::Ticks probe_done = tagProbe(pa, now);
    const bool hit =
        write ? pageTags.accessWrite(pa) : pageTags.access(pa);
    statsData.syncAccesses.inc();

    if (hit) {
        bool sub_page_miss = false;
        if (cfg.footprintEnabled) {
            fp.touched[p.page] |= p.bit;
            sub_page_miss = !(fp.fetched[p.page] & p.bit);
        }
        if (!sub_page_miss) {
            const auto data = dramModel.access(
                dcSetRowAddr(cfg, pageTags.numSets(), pa) +
                    mem::kBlockSize,
                probe_done, write, mem::kBlockSize);
            statsData.hits.inc();
            statsData.hitLatency.sample(data.complete - now);
            return data.complete;
        }
        statsData.subPageMisses.inc();
        p.subPage = true;
        p.accepted = toBc[p.shard]->push(
            makeMiss(p.page, write, true, false, 0,
                     ~fp.fetched[p.page]),
            probe_done);
    } else {
        p.accepted = toBc[p.shard]->push(
            makeMiss(p.page, write, false, false, 0, p.bit),
            probe_done);
    }

    return finishSyncMiss(p, takeAck());
}

DcAccess
FrontsideController::finishMiss(const Probe &probe, const BcReply &rep)
{
    if (rep.kind == BcReply::Kind::EvictBufferHit) {
        // The page was parked awaiting writeback; the backside served
        // the request from there at BC speed.
        statsData.hits.inc();
        statsData.hitLatency.sample(rep.ready - probe.start);
        return DcAccess{true, rep.ready};
    }
    if (rep.merged)
        statsData.missesMerged.inc();
    else
        statsData.misses.inc();
    if (cfg.footprintEnabled && !probe.subPage)
        fp.touched[probe.page] |= probe.bit; // the block will be used
    // Miss response: the FC replies as soon as the channel accepted
    // the request so on-chip MSHRs can be reclaimed.
    return DcAccess{false, probe.accepted + fcOp()};
}

sim::Ticks
FrontsideController::finishSyncMiss(const Probe &probe,
                                    const BcReply &rep)
{
    if (rep.kind == BcReply::Kind::EvictBufferHit) {
        statsData.hits.inc();
        return rep.ready;
    }
    if (rep.merged)
        statsData.missesMerged.inc();
    else
        statsData.misses.inc();
    if (cfg.footprintEnabled && !probe.subPage)
        fp.touched[probe.page] |= probe.bit; // the block will be used
    // The requester spins until the page is installed, then reads it.
    return rep.ready + cfg.dram.tCas + cfg.dram.tBurst;
}

BcReply
FrontsideController::takeAck()
{
    ASTRI_ASSERT_MSG(ackValid,
                     "%s: miss-channel push completed without an ack "
                     "on the response channel",
                     fcName.c_str());
    ackValid = false;
    return ackReply;
}

void
FrontsideController::pumpRsp(std::uint32_t shard)
{
    auto &channel = *fromBcRsp[shard];
    const sim::Ticks lat = channel.contract().minLatency;
    while (!channel.empty()) {
        const auto &st = channel.front();
        const BcNotice n = st.msg;
        const sim::Ticks at = st.acceptedAt;
        channel.dropFront(at + lat);
        if (n.kind == BcNotice::Kind::InstallReq) {
            // Install at the accept tick: the request is one nested
            // call from the arrival event, byte-identical to the
            // pre-split controller.
            handleInstallReq(shard, n, at);
        } else {
            // The ack for the access() that pushed the miss — the
            // call chain below this drain returns straight to it.
            ackReply = n.reply;
            ackValid = true;
        }
    }
}

void
FrontsideController::handleInstallReq(std::uint32_t shard,
                                      const BcNotice &notice,
                                      sim::Ticks at)
{
    const mem::PageNum page = notice.page;
    const mem::Addr page_addr = mem::pageAddr(page, cfg.pageBytes);
    std::uint64_t fetch_bytes =
        static_cast<std::uint64_t>(std::popcount(notice.fetchMask)) *
        mem::kBlockSize;
    if (fetch_bytes > cfg.pageBytes)
        fetch_bytes = cfg.pageBytes;
    if (cfg.footprintEnabled)
        fp.fetched[page] |= notice.fetchMask;

    // Secure a frame: fill the tag array; a displaced victim goes
    // back in the grant for the backside's evict buffer.
    auto victim = pageTags.fill(page_addr, notice.dirty);
    InstallGrant grant;
    grant.page = page;
    if (victim) {
        const mem::PageNum vpage =
            mem::pageNumber(victim->tag_addr, cfg.pageBytes);
        if (cfg.footprintEnabled) {
            // Record the victim's footprint for its next residency
            // and drop its residency masks.
            const auto t = fp.touched.find(vpage);
            if (t != fp.touched.end() && t->second != 0)
                fp.history[vpage] = t->second;
            fp.touched.erase(vpage);
            fp.fetched.erase(vpage);
        }
        grant.hasVictim = true;
        grant.victimDirty = victim->dirty;
        grant.victim = vpage;
    }

    // Install: stream the fetched blocks into the frame.
    const auto install = dramModel.access(
        dcSetRowAddr(cfg, pageTags.numSets(), page_addr), at, true,
        fetch_bytes);
    grant.installComplete = install.complete;
    toBcCtl[shard]->push(grant, at);
}

void
FrontsideController::pumpInstalls(std::uint32_t shard)
{
    auto &channel = *fromBc[shard];
    while (!channel.empty()) {
        auto &st = channel.front();
        const mem::PageNum page = st.msg.page;
        const sim::Ticks ready = st.msg.ready;
        std::vector<WaiterCookie> waiters = std::move(st.msg.waiters);
        // The slot recycles once the notification lands.
        channel.dropFront(ready > st.acceptedAt ? ready
                                                : st.acceptedAt);
        if (onReady)
            onReady(page, ready, waiters);
    }
}

void
FrontsideController::regStats(sim::StatRegistry &reg) const
{
    reg.registerCounter("hits", &statsData.hits,
                        "frontside accesses served from the cache");
    reg.registerCounter("misses", &statsData.misses,
                        "accesses starting a new outstanding miss");
    reg.registerCounter("misses_merged", &statsData.missesMerged,
                        "accesses merged onto an in-flight miss");
    reg.registerCounter("sync_accesses", &statsData.syncAccesses,
                        "forced-synchronous (forward-progress) accesses");
    reg.registerCounter("sub_page_misses", &statsData.subPageMisses,
                        "footprint mispredictions on resident pages");
    reg.registerHistogram("hit_latency", &statsData.hitLatency,
                          "FC hit path latency in ticks");
}

void
FrontsideController::checkInvariants(sim::InvariantChecker &chk) const
{
    // Sync evict-buffer hits count a hit without a latency sample, so
    // samples can only undershoot the hit counter.
    SIM_INVARIANT_MSG(chk,
                      statsData.hitLatency.count() <=
                          statsData.hits.value(),
                      "%llu hit-latency samples for %llu hits",
                      static_cast<unsigned long long>(
                          statsData.hitLatency.count()),
                      static_cast<unsigned long long>(
                          statsData.hits.value()));
    // Every sub-page miss also counted as a (new or merged) miss.
    SIM_INVARIANT_MSG(chk,
                      statsData.subPageMisses.value() <=
                          statsData.misses.value() +
                              statsData.missesMerged.value(),
                      "%llu sub-page misses exceed the %llu total "
                      "misses",
                      static_cast<unsigned long long>(
                          statsData.subPageMisses.value()),
                      static_cast<unsigned long long>(
                          statsData.misses.value() +
                          statsData.missesMerged.value()));
    // Sweeps run between events, never inside a drain chain, so no
    // ack can be left latched.
    SIM_INVARIANT(chk, !ackValid);
}

void
FrontsideController::auditShared(sim::InvariantChecker &chk,
                                 const mem::SetAssocCache &tags) const
{
    // Footprint residency masks exist only for resident pages. The
    // masks are fc-owned; the audit runs at quiesce points alongside
    // the backside's pending-vs-resident exclusivity check.
    if (cfg.footprintEnabled) {
        // Audit-only, order-insensitive walk (baselined AF015).
        // Pages displaced during prewarm keep their seeded mask by
        // design (FootprintState::prewarmEvicted) — exempt exactly
        // those, nothing else.
        for (const auto &[page, mask] : fp.fetched) {
            (void)mask;
            SIM_INVARIANT_MSG(chk,
                              tags.contains(
                                  mem::pageAddr(page, cfg.pageBytes)) ||
                                  fp.prewarmEvicted.count(page) != 0,
                              "fetched mask for non-resident %llx",
                              static_cast<unsigned long long>(
                                  mem::pageAddr(page, cfg.pageBytes)));
        }
    } else {
        SIM_INVARIANT(chk, fp.fetched.empty());
        SIM_INVARIANT(chk, fp.touched.empty());
        SIM_INVARIANT(chk, fp.history.empty());
    }
}

} // namespace astriflash::core
