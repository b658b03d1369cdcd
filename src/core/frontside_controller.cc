#include "frontside_controller.hh"

#include <bit>

#include "sim/logging.hh"

#include "backside_controller.hh"

namespace astriflash::core {

FrontsideController::FrontsideController(
    std::string name, const DramCacheConfig &config, mem::Dram &dram,
    mem::SetAssocCache &tags, FootprintState &footprint,
    const std::vector<std::unique_ptr<BacksideController>> &shards)
    : fcName(std::move(name)), cfg(config), dramModel(dram),
      pageTags(tags), fp(footprint), bcs(shards)
{
    const sim::ClockDomain clk(cfg.controllerFreqHz);
    fcOpTicks = clk.cycles(cfg.fc.cyclesPerOp);
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

FrontsideController::Lookup
FrontsideController::lookup(mem::Addr pa, bool write, sim::Ticks now,
                            bool sync, WaiterCookie waiter)
{
    const mem::PageNum page = mem::pageNumber(pa, cfg.pageBytes);
    const std::uint64_t bit = dcBlockBit(pa);
    const sim::Ticks probe_done = tagProbe(pa, now);
    const bool hit =
        write ? pageTags.accessWrite(pa) : pageTags.access(pa);

    bool sub_page = false;
    if (hit) {
        if (cfg.footprintEnabled) {
            fp.touched[page] |= bit;
            sub_page = !(fp.fetched[page] & bit);
        }
        if (!sub_page) {
            // Data CAS in the (now open) row.
            const auto data = dramModel.access(
                dcSetRowAddr(cfg, pageTags.numSets(), pa) +
                    mem::kBlockSize,
                probe_done, write, mem::kBlockSize);
            statsData.hits.inc();
            statsData.hitLatency.sample(data.complete - now);
            return Lookup{true, data.complete, 0};
        }
        // Sub-page miss: the resident page was only partially
        // transferred and this block is absent; fetch the remainder
        // through the normal switch-on-miss path.
        statsData.subPageMisses.inc();
    }

    // Tag or sub-page miss: hand the page request to its backside
    // shard, which decides evict-buffer hit vs miss.
    MissRequest req{page, write, sub_page, !sync, waiter,
                    sub_page ? ~fp.fetched[page] : bit};
    if (cfg.footprintEnabled) {
        // Snapshot the page's recorded footprint: the history map is
        // FC-owned, so the backside seeds its fetch mask from these
        // fields instead of reading it.
        const auto hist = fp.history.find(page);
        if (hist != fp.history.end()) {
            req.histValid = true;
            req.histMask = hist->second;
        }
    }
    const BcReply rep = bcs[shardOf(page)]->request(req, probe_done);

    if (rep.kind == BcReply::Kind::EvictBufferHit) {
        // The page was parked awaiting writeback; the backside served
        // the request from there at BC speed.
        statsData.hits.inc();
        if (!sync)
            statsData.hitLatency.sample(rep.ready - now);
        return Lookup{true, rep.ready, rep.accepted};
    }
    if (rep.merged)
        statsData.missesMerged.inc();
    else
        statsData.misses.inc();
    if (cfg.footprintEnabled && !sub_page)
        fp.touched[page] |= bit; // the block will be used
    return Lookup{false, rep.ready, rep.accepted};
}

DcAccess
FrontsideController::access(mem::Addr pa, bool write, sim::Ticks now,
                            WaiterCookie waiter)
{
    const Lookup l = lookup(pa, write, now, false, waiter);
    if (l.hit)
        return DcAccess{true, l.ready};
    // Miss response: the FC replies as soon as the backside accepted
    // the request so on-chip MSHRs can be reclaimed.
    return DcAccess{false, l.accepted + fcOp()};
}

sim::Ticks
FrontsideController::accessSync(mem::Addr pa, bool write,
                                sim::Ticks now)
{
    statsData.syncAccesses.inc();
    const Lookup l = lookup(pa, write, now, true, 0);
    // On a miss the requester spins until the page is installed, then
    // reads it.
    return l.hit ? l.ready : l.ready + cfg.dram.tCas + cfg.dram.tBurst;
}

InstallGrant
FrontsideController::install(mem::PageNum page, std::uint64_t fetch_mask,
                             bool dirty, sim::Ticks at)
{
    const mem::Addr page_addr = mem::pageAddr(page, cfg.pageBytes);
    std::uint64_t fetch_bytes =
        static_cast<std::uint64_t>(std::popcount(fetch_mask)) *
        mem::kBlockSize;
    if (fetch_bytes > cfg.pageBytes)
        fetch_bytes = cfg.pageBytes;
    if (cfg.footprintEnabled)
        fp.fetched[page] |= fetch_mask;

    // Secure a frame: fill the tag array; a displaced victim goes
    // back in the grant for the backside's evict buffer.
    auto victim = pageTags.fill(page_addr, dirty);
    InstallGrant grant;
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
    grant.installComplete =
        dramModel
            .access(dcSetRowAddr(cfg, pageTags.numSets(), page_addr), at,
                    true, fetch_bytes)
            .complete;
    return grant;
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
