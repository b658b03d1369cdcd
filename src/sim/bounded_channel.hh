/**
 * @file
 * Occupancy model of a bounded hardware queue between components.
 *
 * The simulator is call-driven rather than port-driven: a producer
 * calls its consumer directly, and the consumer services the request
 * inside the same call chain. Instantaneous queue depth is therefore
 * always ~0; what a finite hardware queue actually bounds is the
 * number of entries whose *transactions* are still in flight. The
 * channel models exactly that with time-based slot accounting:
 * acquire() takes a slot at a tick and returns the tick the entry is
 * accepted, and release() declares the tick at which that slot is
 * recycled (e.g. when the miss it carried finishes installing). An
 * acquire counts every slot whose release tick is still in the
 * future; when the count reaches capacity the acquire stalls — the
 * accept tick moves out to the point where enough slots have drained
 * — and the stall is charged to the producer's timing and to the
 * channel's stall statistics. At effectively-unbounded depth the
 * accept tick always equals the acquire tick, so the channel is
 * timing-neutral by construction.
 *
 * Producers on different cores run with skewed local clocks, so
 * acquire ticks are NOT monotonic; each acquire prunes released slots
 * against its own tick.
 */

#ifndef ASTRIFLASH_SIM_BOUNDED_CHANNEL_HH
#define ASTRIFLASH_SIM_BOUNDED_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "invariant.hh"
#include "logging.hh"
#include "stats.hh"
#include "ticks.hh"

namespace astriflash::sim {

/** Fixed-capacity queue whose slots live as long as their transactions. */
class BoundedChannel
{
  public:
    struct Stats {
        Counter pushes;     ///< Slots acquired.
        Counter pops;       ///< Slots given a release tick.
        Counter fullStalls; ///< Acquires that found the queue full.
        Counter stallTicks; ///< Total backpressure delay charged.
        Average occupancy;  ///< In-flight slots sampled at each acquire.
        std::uint64_t peakOccupancy = 0;
    };

    /**
     * @param name      Instance name (stats, invariant reports).
     * @param capacity  Slot count; >= 1.
     */
    BoundedChannel(std::string name, std::uint32_t capacity)
        : chName(std::move(name)), cap(capacity)
    {
        if (capacity == 0)
            ASTRI_FATAL("%s: channel needs capacity >= 1",
                        chName.c_str());
    }

    BoundedChannel(const BoundedChannel &) = delete;
    BoundedChannel &operator=(const BoundedChannel &) = delete;

    /** Instance name (stat/invariant registration). */
    const std::string &name() const { return chName; }

    /** Configured slot count. */
    std::uint32_t capacity() const { return cap; }

    /** True when every acquired slot has its release tick. */
    bool empty() const { return held == 0; }

    /** Slots still owned by in-flight transactions at @p now. */
    std::uint32_t
    inFlight(Ticks now) const
    {
        std::uint32_t busy = held;
        for (const Ticks t : busyUntil) {
            if (t > now)
                ++busy;
        }
        return busy;
    }

    /** Backpressure signal: would an acquire at @p now stall? */
    bool wouldStall(Ticks now) const { return inFlight(now) >= cap; }

    /**
     * Take a slot at @p now. The caller must declare the slot's
     * release tick with release() before the queue next fills.
     *
     * @return the accept tick: @p now if a slot is free, else the tick
     *         at which enough in-flight slots drain. The producer must
     *         treat the accept tick as when the entry actually entered
     *         the queue.
     */
    Ticks
    acquire(Ticks now)
    {
        Ticks accept = now;
        prune(now);
        const std::size_t occ = busyUntil.size() + held;
        if (occ >= cap) {
            // Need (occ - cap + 1) slots back. Only released slots
            // have known release ticks; a queue full of undeclared
            // ones has no defined accept tick.
            const std::size_t k = occ - cap + 1;
            SIM_CHECK_MSG(k <= busyUntil.size(),
                          "%s: full with %u slots awaiting their "
                          "release tick",
                          chName.c_str(), held);
            std::nth_element(busyUntil.begin(),
                             busyUntil.begin() +
                                 static_cast<std::ptrdiff_t>(k - 1),
                             busyUntil.end());
            const Ticks freed = busyUntil[k - 1];
            accept = freed > now ? freed : now;
            statsData.fullStalls.inc();
            statsData.stallTicks.inc(accept - now);
            prune(accept);
        }
        statsData.pushes.inc();
        const std::size_t live = busyUntil.size() + held + 1;
        statsData.occupancy.sample(static_cast<double>(live));
        if (live > statsData.peakOccupancy)
            statsData.peakOccupancy = live;
        ++held;
        return accept;
    }

    /**
     * Declare that an acquired slot is recycled at @p release_at (the
     * tick the transaction it carries completes).
     */
    void
    release(Ticks release_at)
    {
        ASTRI_ASSERT_MSG(held > 0, "%s: release() without an acquired "
                         "slot", chName.c_str());
        --held;
        statsData.pops.inc();
        busyUntil.push_back(release_at);
    }

    const Stats &stats() const { return statsData; }

    /**
     * Start a fresh measurement window mid-flight: counters restart
     * with the conservation law re-based on the unreleased slots
     * (pushes := unreleased, pops := 0) so the invariant audit holds
     * across the reset, and the peak restarts at the unreleased count.
     * Declared release ticks are untouched.
     */
    void
    resetStats()
    {
        statsData.pushes.reset();
        statsData.pushes.inc(held);
        statsData.pops.reset();
        statsData.fullStalls.reset();
        statsData.stallTicks.reset();
        statsData.occupancy.reset();
        statsData.peakOccupancy = held;
    }

    /** Register channel stats into @p reg. */
    void
    regStats(StatRegistry &reg) const
    {
        reg.registerCounter("pushes", &statsData.pushes,
                            "slots acquired");
        reg.registerCounter("pops", &statsData.pops,
                            "slots given their release tick");
        reg.registerCounter("full_stalls", &statsData.fullStalls,
                            "acquires that found every slot in flight");
        reg.registerCounter("stall_ticks", &statsData.stallTicks,
                            "total backpressure delay in ticks");
        reg.registerAverage("occupancy", &statsData.occupancy,
                            "in-flight slots sampled at each acquire");
        reg.registerUint("peak_occupancy", &statsData.peakOccupancy,
                         "maximum in-flight slots over the run");
    }

    /**
     * Audit the channel: conservation (acquires == releases +
     * unreleased), capacity, stall accounting (stall ticks imply full
     * stalls), and the peak bound.
     */
    void
    checkInvariants(InvariantChecker &chk) const
    {
        SIM_INVARIANT_MSG(chk,
                          statsData.pushes.value() ==
                              statsData.pops.value() + held,
                          "%s conservation: %llu acquires != %llu "
                          "releases + %u unreleased",
                          chName.c_str(),
                          static_cast<unsigned long long>(
                              statsData.pushes.value()),
                          static_cast<unsigned long long>(
                              statsData.pops.value()),
                          held);
        SIM_INVARIANT(chk, held <= cap);
        SIM_INVARIANT_MSG(chk,
                          statsData.stallTicks.value() == 0 ||
                              statsData.fullStalls.value() > 0,
                          "%s: stall ticks without a full stall",
                          chName.c_str());
        SIM_INVARIANT(chk, statsData.peakOccupancy >= held);
        SIM_INVARIANT(chk,
                      statsData.peakOccupancy <=
                          statsData.pushes.value());
    }

  private:
    /** Forget slots whose transactions completed by @p now. */
    void
    prune(Ticks now)
    {
        std::erase_if(busyUntil,
                      [now](Ticks t) { return t <= now; });
    }

    std::string chName;
    std::uint32_t cap;
    std::uint32_t held = 0;       ///< Acquired, release not declared.
    std::vector<Ticks> busyUntil; ///< Released slots' release ticks.
    Stats statsData;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_BOUNDED_CHANNEL_HH
