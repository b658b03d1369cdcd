/**
 * @file
 * In-DRAM Miss Status Row (§IV-B2).
 *
 * On-chip MSHRs are CAM-based and top out at tens of entries, but a
 * DRAM cache refilled from 50 µs flash can have hundreds of concurrent
 * misses. AstriFlash therefore tracks outstanding misses in a
 * specialized DRAM row: a set-associative table of 8 B entries that the
 * backside controller searches with CAS operations. This model captures
 * the structure's capacity behaviour (set conflicts force the BC to
 * wait for an entry to free) and its occupancy statistics; the CAS
 * timing is charged by the DRAM-cache controller that owns it.
 */

#ifndef ASTRIFLASH_CORE_MISS_STATUS_ROW_HH
#define ASTRIFLASH_CORE_MISS_STATUS_ROW_HH

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "mem/address.hh"
#include "sim/invariant.hh"
#include "sim/stats.hh"

namespace astriflash::core {

/** Outcome of an MSR allocation attempt. */
enum class MsrAlloc {
    New,       ///< Entry allocated; issue the flash read.
    Duplicate, ///< A miss to this page is already pending; merge.
    SetFull,   ///< Target set has no free entry; BC must wait.
};

/** Set-associative in-DRAM miss-status table. */
class MissStatusRow
{
  public:
    struct Stats {
        sim::Counter allocations;
        sim::Counter duplicates;
        sim::Counter setFullStalls;
        sim::Counter frees;
        sim::Average occupancy; ///< Sampled at each allocation.
        std::uint64_t peakOccupancy = 0;
    };

    /**
     * @param name           Instance name.
     * @param sets           Number of sets (rows used).
     * @param entries_per_set Ways per set (8 B entries per CAS column).
     */
    MissStatusRow(std::string name, std::uint32_t sets,
                  std::uint32_t entries_per_set);

    /** Try to record a miss for page @p page. */
    MsrAlloc allocate(mem::PageNum page);

    /** True if a miss for @p page is outstanding. */
    bool contains(mem::PageNum page) const;

    /** Remove the entry for @p page (fill completed). */
    void free(mem::PageNum page);

    /** Live entries. */
    std::uint32_t occupancy() const { return total; }

    /** Live entries in the set that @p page maps to. */
    std::uint32_t setOccupancy(mem::PageNum page) const;

    /** Set that @p page maps to, in [0, sets()). */
    std::uint32_t setIndex(mem::PageNum page) const;

    /**
     * Count @p n allocation attempts that found their set full without
     * making them: the BC's per-set wait queues skip retries that are
     * certain to fail but still charge them here, so set_full_stalls
     * counts what a retry of every waiter after each free would.
     */
    void
    chargeSetFullRetries(std::uint64_t n)
    {
        statsData.setFullStalls.inc(n);
    }

    std::uint32_t sets() const
    {
        return static_cast<std::uint32_t>(table.size());
    }
    std::uint32_t entriesPerSet() const { return ways; }
    std::uint32_t capacity() const { return sets() * ways; }

    const Stats &stats() const { return statsData; }

    /** Register this table's stats into @p reg. */
    void
    regStats(sim::StatRegistry &reg) const
    {
        reg.registerCounter("allocations", &statsData.allocations,
                            "MSR entries allocated (flash reads issued)");
        reg.registerCounter("duplicates", &statsData.duplicates,
                            "misses merged onto an existing MSR entry");
        reg.registerCounter("set_full_stalls", &statsData.setFullStalls,
                            "allocation attempts stalled on a full set");
        reg.registerCounter("frees", &statsData.frees,
                            "MSR entries released at fill completion");
        reg.registerAverage("occupancy", &statsData.occupancy,
                            "live entries sampled at each allocation");
        reg.registerUint("peak_occupancy", &statsData.peakOccupancy,
                         "maximum live entries over the run");
    }

    /**
     * Audit structural state and lifetime conservation: set sizes sum
     * to the live total, no set exceeds its ways, and
     * allocations == frees + occupancy.
     */
    void checkInvariants(sim::InvariantChecker &chk) const;

  private:
    std::string msrName;
    std::uint32_t ways;
    std::vector<std::unordered_set<mem::PageNum>> table;
    std::uint32_t total = 0;
    Stats statsData;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_MISS_STATUS_ROW_HH
