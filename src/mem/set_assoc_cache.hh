/**
 * @file
 * Generic set-associative tag array.
 *
 * One structural model serves three roles:
 *  - on-chip L1/L2/LLC tag arrays at 64 B block granularity,
 *  - the page-grained DRAM-cache tag check (tags-in-DRAM timing is
 *    charged by the frontside controller, the *contents* live here),
 *  - the capacity/miss-ratio sweeps behind Figure 1.
 */

#ifndef ASTRIFLASH_MEM_SET_ASSOC_CACHE_HH
#define ASTRIFLASH_MEM_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/invariant.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

#include "address.hh"

namespace astriflash::mem {

/** Victim-selection policy within a set. */
enum class ReplacementPolicy {
    Lru,    ///< Least-recently-used (default; what the paper assumes).
    Fifo,   ///< Insertion order, ignores re-reference.
    Random, ///< Uniform random way.
};

/** Result of a cache lookup or fill. */
struct CacheLine {
    Addr tag_addr = 0; ///< Block/page-aligned address stored in the line.
    bool dirty = false;
};

/**
 * Set-associative cache tag/state array (no data payload).
 *
 * Addresses are truncated to @p line_size granularity. The array tracks
 * validity, dirtiness, and recency; it never stores data since the
 * simulator is timing-directed, not value-accurate.
 *
 * Layout (DESIGN.md §3): one 8 B tag word and one 8 B stamp per way.
 * Each set is one block of its tag words followed by its stamps, so a
 * lookup and its fill touch adjacent host lines. A tag word holds the
 * line-aligned address with the dirty flag in bit 0; an invalid way
 * holds kInvalidTag, which has bit 1 set and so equals no tag word of
 * a line of 4 B or more. The stamp means what the policy needs: last
 * use for LRU, fill time for FIFO, nothing for Random; an invalid way's
 * stamp is 0 and every valid way's is >= 1, so "first smallest stamp"
 * is also "first invalid way".
 */
class SetAssocCache
{
  public:
    /** Aggregate statistics. */
    struct Stats {
        sim::Counter hits;
        sim::Counter misses;
        sim::Counter evictions;
        sim::Counter dirtyEvictions;
        sim::Counter fills;
        sim::Counter invalidations;

        /** Miss ratio over all lookups (0 if none). */
        double
        missRatio() const
        {
            const double total =
                static_cast<double>(hits.value() + misses.value());
            return total > 0.0
                ? static_cast<double>(misses.value()) / total : 0.0;
        }
    };

    /**
     * @param name        Instance name (diagnostics only).
     * @param capacity    Total bytes; must be sets*ways*line_size.
     * @param line_size   Block or page size in bytes (power of two,
     *                    >= 4: the tag word's two low bits are spare).
     * @param ways        Associativity (>=1).
     * @param policy      Replacement policy.
     * @param seed        RNG seed for the Random policy.
     */
    SetAssocCache(std::string name, std::uint64_t capacity,
                  std::uint64_t line_size, std::uint32_t ways,
                  ReplacementPolicy policy = ReplacementPolicy::Lru,
                  std::uint64_t seed = 1);

    /**
     * Look up @p addr, updating recency on a hit.
     * @return true on hit.
     */
    bool access(Addr addr);

    /**
     * Look up @p addr for a store: like access() but marks dirty on hit.
     * @return true on hit.
     */
    bool accessWrite(Addr addr);

    /** Probe without touching recency or stats. */
    bool contains(Addr addr) const;

    /**
     * Insert @p addr (aligned internally), evicting a victim if the set
     * is full.
     * @param dirty  Whether the inserted line starts dirty.
     * @return The evicted line, if any.
     */
    std::optional<CacheLine> fill(Addr addr, bool dirty = false);

    /**
     * Remove @p addr if present.
     * @return The invalidated line (with dirtiness), if it was present.
     */
    std::optional<CacheLine> invalidate(Addr addr);

    /** Mark @p addr dirty if present. @return true if it was present. */
    bool markDirty(Addr addr);

    /** Drop every line (e.g. between measurement phases). */
    void flushAll();

    /** Number of valid lines currently held. */
    std::uint64_t validLines() const { return validCount; }

    std::uint64_t capacity() const { return totalCapacity; }
    std::uint64_t lineSize() const { return line; }
    std::uint32_t associativity() const { return waysPerSet; }
    std::uint64_t numSets() const { return sets; }
    const std::string &name() const { return cacheName; }

    const Stats &stats() const { return statsData; }
    Stats &stats() { return statsData; }

    /** Register this array's stats into @p reg. */
    void
    regStats(sim::StatRegistry &reg) const
    {
        reg.registerCounter("hits", &statsData.hits,
                            "lookups that found a valid line");
        reg.registerCounter("misses", &statsData.misses,
                            "lookups that found no valid line");
        reg.registerCounter("evictions", &statsData.evictions,
                            "valid lines displaced by fills");
        reg.registerCounter("dirty_evictions",
                            &statsData.dirtyEvictions,
                            "displaced lines needing writeback");
        reg.registerCounter("fills", &statsData.fills,
                            "lines installed into the array");
        reg.registerCounter("invalidations",
                            &statsData.invalidations,
                            "lines removed by explicit invalidation");
    }

    /**
     * Audit the array: the valid-line count matches the tag state,
     * every valid tag is line-aligned and in its proper set, and the
     * fill/evict/invalidate traffic accounts for the live lines.
     */
    void
    checkInvariants(sim::InvariantChecker &chk) const
    {
        std::uint64_t valid = 0;
        for (std::uint64_t s = 0; s < sets; ++s) {
            for (std::uint32_t w = 0; w < waysPerSet; ++w) {
                const std::uint64_t word = words[2 * s * waysPerSet + w];
                const std::uint64_t when =
                    words[(2 * s + 1) * waysPerSet + w];
                if (word == kInvalidTag) {
                    SIM_INVARIANT_MSG(chk, when == 0,
                                      "%s: invalid way holds stamp %llu",
                                      cacheName.c_str(),
                                      static_cast<unsigned long long>(
                                          when));
                    continue;
                }
                ++valid;
                const Addr tag = word & ~kDirtyBit;
                SIM_INVARIANT_MSG(chk, tag % line == 0,
                                  "%s: unaligned tag %llx",
                                  cacheName.c_str(),
                                  static_cast<unsigned long long>(tag));
                SIM_INVARIANT_MSG(chk, setOf(tag) == s,
                                  "%s: tag %llx in wrong set %llu",
                                  cacheName.c_str(),
                                  static_cast<unsigned long long>(tag),
                                  static_cast<unsigned long long>(s));
                SIM_INVARIANT_MSG(
                    chk, when >= 1 && when <= stamp,
                    "%s: valid tag %llx has stamp %llu outside [1, %llu]",
                    cacheName.c_str(),
                    static_cast<unsigned long long>(tag),
                    static_cast<unsigned long long>(when),
                    static_cast<unsigned long long>(stamp));
            }
        }
        SIM_INVARIANT_MSG(chk, valid == validCount,
                          "%s: %llu valid ways but counter says %llu",
                          cacheName.c_str(),
                          static_cast<unsigned long long>(valid),
                          static_cast<unsigned long long>(validCount));
        SIM_INVARIANT(chk, validCount <= sets * waysPerSet);
        SIM_INVARIANT(chk,
                      statsData.dirtyEvictions.value() <=
                          statsData.evictions.value());
        SIM_INVARIANT(chk,
                      statsData.evictions.value() +
                              statsData.invalidations.value() <=
                          statsData.fills.value() + validCount);
    }

  private:
    /** Tag word of an invalid way (bit 1 set: no line tag has it). */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};
    /** Dirty flag, in the tag word's spare bit 0. */
    static constexpr std::uint64_t kDirtyBit = 1;

    /** Set number of @p addr. */
    std::uint64_t
    setOf(Addr addr) const
    {
        const std::uint64_t ln = addr >> lineShift;
        return setMask != kNoSetMask ? (ln & setMask) : ln % sets;
    }

    /**
     * Index in words of @p aligned's first tag word. A way is named by
     * the index i of its tag word; its stamp is words[i + waysPerSet].
     */
    std::size_t
    setBase(Addr aligned) const
    {
        return static_cast<std::size_t>(setOf(aligned)) * 2 * waysPerSet;
    }

    /**
     * The way holding @p aligned, searching the set that starts at
     * @p base; npos if absent.
     */
    std::size_t findWay(std::size_t base, Addr aligned) const;

    /** The way a fill into the set at @p base replaces. */
    std::size_t victimWay(std::size_t base);

    static constexpr std::size_t npos = ~std::size_t{0};
    static constexpr std::uint64_t kNoSetMask = ~std::uint64_t{0};

    std::string cacheName;
    std::uint64_t totalCapacity;
    std::uint64_t line;
    std::uint32_t waysPerSet;
    std::uint64_t sets;
    unsigned lineShift;
    /** sets - 1 when sets is a power of two, else kNoSetMask. */
    std::uint64_t setMask;
    ReplacementPolicy policy;
    /** Per set, its ways' tag words, then their stamps. */
    std::vector<std::uint64_t> words;
    std::uint64_t stamp = 0;
    std::uint64_t validCount = 0;
    sim::Rng rng;
    Stats statsData;
};

} // namespace astriflash::mem

#endif // ASTRIFLASH_MEM_SET_ASSOC_CACHE_HH
