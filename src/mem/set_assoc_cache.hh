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

#include <cstddef>
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
 * Layout (DESIGN.md §3): 5 B per way, in blocks of sets that hold
 * their tag words and then their meta bytes.
 *  - A 4 B tag word: the line number with the set-index bits dropped.
 *    An invalid way holds kInvalidTag, so a line is representable
 *    only if its tag word is below it; addressLimit() is the first
 *    address that is not, and the encoder panics on it.
 *  - A 1 B meta byte: the dirty flag in bit 7 and the way's age in
 *    bits 0-6. The ages of a set's v valid ways are exactly 0..v-1,
 *    0 being the most recent use (LRU) or fill (FIFO, Random); an
 *    invalid way holds kInvalidAge. The ages rank the valid ways, so
 *    "first invalid way, else the way aged ways-1" is the least
 *    recently used (LRU) or oldest (FIFO) line.
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

    /** Widest associativity the 7-bit age field can order. */
    static constexpr std::uint32_t kMaxWays = 127;

    /**
     * @param name        Instance name (diagnostics only).
     * @param capacity    Total bytes; must be sets*ways*line_size.
     * @param line_size   Block or page size in bytes (power of two).
     * @param ways        Associativity (1..kMaxWays).
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

    /**
     * Host-only hint: start loading the host lines that hold @p addr's
     * set. It reads and writes no simulated state.
     *
     * Always inlined, as is every prefetch wrapper: GCC deems a
     * function whose only effect is a prefetch side-effect free and
     * deletes the calls to it.
     */
    [[gnu::always_inline]] void
    prefetch(Addr addr) const
    {
        const Slot s = slotOf(setIndex(addr >> lineShift), 0);
        prefetchBytes(&words[s.tagAt], waysPerSet * sizeof(std::uint32_t));
        prefetchBytes(metaOf(s), waysPerSet);
    }

    /**
     * First address this array cannot hold: its tag word would reach
     * kInvalidTag. ~0 when every address fits.
     */
    Addr addressLimit() const { return limit; }

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
     * each set's valid ages are exactly 0..v-1, invalid ways hold the
     * invalid meta byte, and the fill/evict/invalidate traffic
     * accounts for the live lines.
     */
    void checkInvariants(sim::InvariantChecker &chk) const;

  private:
    /** Test access to the packed arrays (mutation tests). */
    friend struct SetAssocCacheTestAccess;

    /** Tag word of an invalid way; no representable line has it. */
    static constexpr std::uint32_t kInvalidTag = ~std::uint32_t{0};
    /** Dirty flag, bit 7 of the meta byte. */
    static constexpr std::uint8_t kDirtyBit = 0x80;
    /** Age bits of the meta byte. */
    static constexpr std::uint8_t kAgeMask = 0x7f;
    /**
     * Meta byte of an invalid way: an age above every valid one, so
     * "age below a" selects valid ways only.
     */
    static constexpr std::uint8_t kInvalidAge = kMaxWays;
    /** Host cache line the arrays and their sets are aligned to. */
    static constexpr std::size_t kHostLine = 64;

    /** A line's place in the array. */
    struct Slot {
        std::uint64_t setNo; ///< Set number.
        std::size_t tagAt;   ///< Index in words of its first tag word.
        std::size_t metaAt;  ///< Byte offset in words of its first meta.
        std::uint32_t tag;   ///< The line's tag word.
    };

    /** Age bits of meta byte @p meta. */
    static unsigned
    ageOf(std::uint8_t meta)
    {
        return static_cast<unsigned>(meta & kAgeMask);
    }

    /** Set the dirty flag of meta byte @p meta. */
    static void
    setDirty(std::uint8_t &meta)
    {
        meta = static_cast<std::uint8_t>(meta | kDirtyBit);
    }

    /** Set number of line number @p ln. */
    std::uint64_t
    setIndex(std::uint64_t ln) const
    {
        return setMask != kNoSetMask ? (ln & setMask) : ln % sets;
    }

    /** Set @p set_no's place in words, for tag word @p tag. */
    Slot
    slotOf(std::uint64_t set_no, std::uint32_t tag) const
    {
        const std::size_t block =
            wordOff +
            static_cast<std::size_t>(set_no >> blockShift) * blockWords;
        const std::size_t ways_before =
            static_cast<std::size_t>(set_no & blockMask) * waysPerSet;
        return {set_no, block + ways_before,
                (block + blockWays) * sizeof(std::uint32_t) + ways_before,
                tag};
    }

    /** Where @p addr lives; panics past addressLimit(). */
    Slot
    locate(Addr addr) const
    {
        const std::uint64_t ln = addr >> lineShift;
        const std::uint64_t high =
            setMask != kNoSetMask ? ln >> setShift : ln / sets;
        if (high >= kInvalidTag) [[unlikely]]
            tagRangePanic(addr);
        return slotOf(ln - high * sets, static_cast<std::uint32_t>(high));
    }

    /** First tag word of the set at @p s. */
    std::uint32_t *tagsOf(const Slot &s) { return &words[s.tagAt]; }
    const std::uint32_t *
    tagsOf(const Slot &s) const
    {
        return &words[s.tagAt];
    }

    /** First meta byte of the set at @p s (char access to words). */
    std::uint8_t *
    metaOf(const Slot &s)
    {
        return reinterpret_cast<std::uint8_t *>(
                   &words[s.metaAt / sizeof(std::uint32_t)]) +
               s.metaAt % sizeof(std::uint32_t);
    }
    const std::uint8_t *
    metaOf(const Slot &s) const
    {
        return reinterpret_cast<const std::uint8_t *>(
                   &words[s.metaAt / sizeof(std::uint32_t)]) +
               s.metaAt % sizeof(std::uint32_t);
    }

    /** Line address held by tag word @p tag of set @p set_no. */
    Addr
    lineAddr(std::uint64_t set_no, std::uint32_t tag) const
    {
        return (static_cast<Addr>(tag) * sets + set_no) << lineShift;
    }

    [[noreturn]] void tagRangePanic(Addr addr) const;

    /** Way among the set's tag words @p tags holding @p tag, or
     *  waysPerSet. */
    std::uint32_t findWay(const std::uint32_t *tags,
                          std::uint32_t tag) const;

    /**
     * Make way @p w the youngest of the set whose meta bytes start at
     * @p meta: every valid way younger than it ages by one. Keeps its
     * dirty flag.
     */
    void touch(std::uint8_t *meta, std::uint32_t w);

    /** Give every way of every set the invalid tag and meta byte. */
    void invalidateAll();

    /** Issue host prefetches covering [@p p, @p p + @p bytes). */
    [[gnu::always_inline]] static void
    prefetchBytes(const void *p, std::size_t bytes)
    {
        const auto first = reinterpret_cast<std::uintptr_t>(p);
        for (std::uintptr_t at = first & ~(kHostLine - 1);
             at < first + bytes; at += kHostLine)
            __builtin_prefetch(reinterpret_cast<const void *>(at));
    }

    static constexpr std::uint64_t kNoSetMask = ~std::uint64_t{0};

    std::string cacheName;
    std::uint64_t totalCapacity;
    std::uint64_t line;
    std::uint32_t waysPerSet;
    std::uint64_t sets;
    unsigned lineShift;
    /** log2(sets) when sets is a power of two. */
    unsigned setShift = 0;
    /** sets - 1 when sets is a power of two, else kNoSetMask. */
    std::uint64_t setMask;
    Addr limit;
    ReplacementPolicy policy;
    /**
     * Blocks of 2^blockShift consecutive sets, from word wordOff on:
     * their tag words, set by set, then their meta bytes, padded to a
     * whole word. A block holds as many sets as fit their meta bytes
     * in one host line, so a set's tags and meta share a host page,
     * and with a power-of-two associativity up to 64 a block is five
     * host lines. words is over-allocated so block 0 starts on a
     * host line.
     */
    std::vector<std::uint32_t> words;
    std::size_t wordOff = 0;
    unsigned blockShift = 0;
    std::uint64_t blockMask = 0;
    std::size_t blockWords = 0;
    /**
     * Ways in a block: its tag words, so the word where its meta bytes
     * start, and the number of those bytes.
     */
    std::size_t blockWays = 0;
    std::uint64_t validCount = 0;
    sim::Rng rng;
    Stats statsData;
};

} // namespace astriflash::mem

#endif // ASTRIFLASH_MEM_SET_ASSOC_CACHE_HH
