/**
 * @file
 * Reference model of mem::SetAssocCache: the original one-struct-per-
 * way tag array (tag, valid, dirty, last-use and fill stamps), kept
 * verbatim so test_set_assoc_cache.cpp can drive it side by side with
 * the packed tag-word array and require identical behaviour,
 * including victim identity.
 */

#ifndef ASTRIFLASH_TESTS_REFERENCE_SET_ASSOC_CACHE_HH
#define ASTRIFLASH_TESTS_REFERENCE_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/set_assoc_cache.hh"
#include "sim/rng.hh"

namespace astriflash::mem::reference {

class SetAssocCache
{
  public:
    using Stats = mem::SetAssocCache::Stats;

    SetAssocCache(std::uint64_t capacity, std::uint64_t line_size,
                  std::uint32_t ways,
                  ReplacementPolicy policy = ReplacementPolicy::Lru,
                  std::uint64_t seed = 1)
        : line(line_size), waysPerSet(ways), policy(policy), rng(seed)
    {
        sets = capacity / (static_cast<std::uint64_t>(ways) * line_size);
        arr.resize(sets * ways);
    }

    bool
    access(Addr addr)
    {
        const Addr aligned = alignDown(addr, line);
        ++stamp;
        if (Way *w = findWay(aligned)) {
            w->lastUse = stamp;
            statsData.hits.inc();
            return true;
        }
        statsData.misses.inc();
        return false;
    }

    bool
    accessWrite(Addr addr)
    {
        const Addr aligned = alignDown(addr, line);
        ++stamp;
        if (Way *w = findWay(aligned)) {
            w->lastUse = stamp;
            w->dirty = true;
            statsData.hits.inc();
            return true;
        }
        statsData.misses.inc();
        return false;
    }

    bool
    contains(Addr addr)
    {
        return findWay(alignDown(addr, line)) != nullptr;
    }

    std::optional<CacheLine>
    fill(Addr addr, bool dirty = false)
    {
        const Addr aligned = alignDown(addr, line);
        ++stamp;
        if (Way *w = findWay(aligned)) {
            // Refill of a resident line refreshes recency and dirtiness.
            w->lastUse = stamp;
            w->dirty = w->dirty || dirty;
            return std::nullopt;
        }
        const std::uint64_t set = setIndex(aligned);
        Way &w = arr[set * waysPerSet + victimWay(set)];
        std::optional<CacheLine> evicted;
        if (w.valid) {
            evicted = CacheLine{w.tag, w.dirty};
            statsData.evictions.inc();
            if (w.dirty)
                statsData.dirtyEvictions.inc();
        } else {
            ++validCount;
        }
        w.valid = true;
        w.tag = aligned;
        w.dirty = dirty;
        w.lastUse = stamp;
        w.fillTime = stamp;
        statsData.fills.inc();
        return evicted;
    }

    std::optional<CacheLine>
    invalidate(Addr addr)
    {
        const Addr aligned = alignDown(addr, line);
        if (Way *w = findWay(aligned)) {
            CacheLine out{w->tag, w->dirty};
            w->valid = false;
            w->dirty = false;
            --validCount;
            statsData.invalidations.inc();
            return out;
        }
        return std::nullopt;
    }

    bool
    markDirty(Addr addr)
    {
        if (Way *w = findWay(alignDown(addr, line))) {
            w->dirty = true;
            return true;
        }
        return false;
    }

    void
    flushAll()
    {
        for (Way &w : arr) {
            w.valid = false;
            w.dirty = false;
        }
        validCount = 0;
    }

    std::uint64_t validLines() const { return validCount; }
    const Stats &stats() const { return statsData; }

  private:
    struct Way {
        Addr tag = 0;        // line-aligned address
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;  // recency stamp (LRU)
        std::uint64_t fillTime = 0; // insertion stamp (FIFO)
    };

    std::uint64_t setIndex(Addr addr) const { return (addr / line) % sets; }

    Way *
    findWay(Addr aligned)
    {
        Way *base = &arr[setIndex(aligned) * waysPerSet];
        for (std::uint32_t w = 0; w < waysPerSet; ++w) {
            if (base[w].valid && base[w].tag == aligned)
                return &base[w];
        }
        return nullptr;
    }

    std::uint32_t
    victimWay(std::uint64_t set)
    {
        Way *base = &arr[set * waysPerSet];
        // Prefer an invalid way.
        for (std::uint32_t w = 0; w < waysPerSet; ++w) {
            if (!base[w].valid)
                return w;
        }
        switch (policy) {
          case ReplacementPolicy::Random:
            return static_cast<std::uint32_t>(
                rng.uniformInt(waysPerSet));
          case ReplacementPolicy::Fifo: {
            std::uint32_t oldest = 0;
            for (std::uint32_t w = 1; w < waysPerSet; ++w) {
                if (base[w].fillTime < base[oldest].fillTime)
                    oldest = w;
            }
            return oldest;
          }
          case ReplacementPolicy::Lru:
          default: {
            std::uint32_t lru = 0;
            for (std::uint32_t w = 1; w < waysPerSet; ++w) {
                if (base[w].lastUse < base[lru].lastUse)
                    lru = w;
            }
            return lru;
          }
        }
    }

    std::uint64_t line;
    std::uint32_t waysPerSet;
    std::uint64_t sets = 0;
    ReplacementPolicy policy;
    std::vector<Way> arr; // sets * ways, row-major by set
    std::uint64_t stamp = 0;
    std::uint64_t validCount = 0;
    sim::Rng rng;
    Stats statsData;
};

} // namespace astriflash::mem::reference

#endif // ASTRIFLASH_TESTS_REFERENCE_SET_ASSOC_CACHE_HH
