#include "set_assoc_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace astriflash::mem {

SetAssocCache::SetAssocCache(std::string name, std::uint64_t capacity,
                             std::uint64_t line_size, std::uint32_t ways,
                             ReplacementPolicy policy, std::uint64_t seed)
    : cacheName(std::move(name)), totalCapacity(capacity), line(line_size),
      waysPerSet(ways), policy(policy), rng(seed)
{
    if (!isPowerOfTwo(line_size))
        ASTRI_FATAL("%s: line size %llu not a power of two",
                    cacheName.c_str(),
                    static_cast<unsigned long long>(line_size));
    if (line_size < 4)
        ASTRI_FATAL("%s: line size %llu below 4 B leaves no spare tag "
                    "bits",
                    cacheName.c_str(),
                    static_cast<unsigned long long>(line_size));
    if (ways == 0)
        ASTRI_FATAL("%s: associativity must be >= 1", cacheName.c_str());
    if (capacity % (static_cast<std::uint64_t>(ways) * line_size) != 0)
        ASTRI_FATAL("%s: capacity %llu not divisible by ways*line",
                    cacheName.c_str(),
                    static_cast<unsigned long long>(capacity));
    sets = capacity / (static_cast<std::uint64_t>(ways) * line_size);
    if (sets == 0)
        ASTRI_FATAL("%s: zero sets (capacity too small)",
                    cacheName.c_str());
    lineShift = log2i(line_size);
    setMask = isPowerOfTwo(sets) ? sets - 1 : kNoSetMask;
    words.reserve(2 * sets * ways);
    for (std::uint64_t s = 0; s < sets; ++s) {
        words.insert(words.end(), ways, kInvalidTag);
        words.insert(words.end(), ways, 0);
    }
}

std::size_t
SetAssocCache::findWay(std::size_t base, Addr aligned) const
{
    // Dirty bit masked off; an invalid way's word stays ~1, which no
    // line-aligned address equals.
    const std::uint64_t *set = &words[base];
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        if ((set[w] & ~kDirtyBit) == aligned)
            return base + w;
    }
    return npos;
}

bool
SetAssocCache::access(Addr addr)
{
    const Addr aligned = alignDown(addr, line);
    ++stamp;
    const std::size_t i = findWay(setBase(aligned), aligned);
    if (i != npos) {
        if (policy == ReplacementPolicy::Lru)
            words[i + waysPerSet] = stamp;
        statsData.hits.inc();
        return true;
    }
    statsData.misses.inc();
    return false;
}

bool
SetAssocCache::accessWrite(Addr addr)
{
    const Addr aligned = alignDown(addr, line);
    ++stamp;
    const std::size_t i = findWay(setBase(aligned), aligned);
    if (i != npos) {
        if (policy == ReplacementPolicy::Lru)
            words[i + waysPerSet] = stamp;
        words[i] |= kDirtyBit;
        statsData.hits.inc();
        return true;
    }
    statsData.misses.inc();
    return false;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr aligned = alignDown(addr, line);
    return findWay(setBase(aligned), aligned) != npos;
}

std::size_t
SetAssocCache::victimWay(std::size_t base)
{
    const std::uint64_t *when = &words[base + waysPerSet];
    if (policy == ReplacementPolicy::Random) {
        // Prefer an invalid way.
        const std::uint64_t *set = &words[base];
        for (std::uint32_t w = 0; w < waysPerSet; ++w) {
            if (set[w] == kInvalidTag)
                return base + w;
        }
        return base + rng.uniformInt(waysPerSet);
    }
    // LRU and FIFO: invalid ways have stamp 0, so the first smallest
    // stamp is the first invalid way if there is one.
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < waysPerSet; ++w) {
        if (when[w] < when[victim])
            victim = w;
    }
    return base + victim;
}

std::optional<CacheLine>
SetAssocCache::fill(Addr addr, bool dirty)
{
    const Addr aligned = alignDown(addr, line);
    ++stamp;
    const std::size_t base = setBase(aligned);
    if (const std::size_t i = findWay(base, aligned); i != npos) {
        // Refill of a resident line refreshes recency and dirtiness.
        if (policy == ReplacementPolicy::Lru)
            words[i + waysPerSet] = stamp;
        if (dirty)
            words[i] |= kDirtyBit;
        return std::nullopt;
    }
    const std::size_t i = victimWay(base);
    std::optional<CacheLine> evicted;
    if (words[i] != kInvalidTag) {
        const bool was_dirty = (words[i] & kDirtyBit) != 0;
        evicted = CacheLine{words[i] & ~kDirtyBit, was_dirty};
        statsData.evictions.inc();
        if (was_dirty)
            statsData.dirtyEvictions.inc();
    } else {
        ++validCount;
    }
    words[i] = aligned | (dirty ? kDirtyBit : 0);
    words[i + waysPerSet] = stamp;
    statsData.fills.inc();
    return evicted;
}

std::optional<CacheLine>
SetAssocCache::invalidate(Addr addr)
{
    const Addr aligned = alignDown(addr, line);
    const std::size_t i = findWay(setBase(aligned), aligned);
    if (i == npos)
        return std::nullopt;
    const CacheLine out{aligned, (words[i] & kDirtyBit) != 0};
    words[i] = kInvalidTag;
    words[i + waysPerSet] = 0;
    --validCount;
    statsData.invalidations.inc();
    return out;
}

bool
SetAssocCache::markDirty(Addr addr)
{
    const Addr aligned = alignDown(addr, line);
    const std::size_t i = findWay(setBase(aligned), aligned);
    if (i == npos)
        return false;
    words[i] |= kDirtyBit;
    return true;
}

void
SetAssocCache::flushAll()
{
    for (auto set = words.begin(); set != words.end();
         set += 2 * waysPerSet) {
        std::fill(set, set + waysPerSet, kInvalidTag);
        std::fill(set + waysPerSet, set + 2 * waysPerSet, 0);
    }
    validCount = 0;
}

} // namespace astriflash::mem
