#include "set_assoc_cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace astriflash::mem {

namespace {

constexpr std::uint64_t kByteOnes = 0x0101010101010101;
constexpr std::uint64_t kByteHighs = 0x8080808080808080;
constexpr std::uint64_t kByteLow7s = 0x7f7f7f7f7f7f7f7f;

/**
 * Add one to each meta byte in @p x (sizeof(T) packed bytes) whose
 * age is below @p age (1..127). Per byte, 0x80 + age - 1 - (its age)
 * keeps bit 7 exactly when its age is below @p age, and never
 * borrows from the next byte because ages are at most 127; the
 * incremented age stays below 128, so nothing carries into the dirty
 * bit or the next byte.
 */
template <typename T>
void
ageBytes(std::uint8_t *p, unsigned age)
{
    T x;
    std::memcpy(&x, p, sizeof(T));
    const auto bound = static_cast<T>(kByteOnes * (0x80 + age - 1));
    x = static_cast<T>(
        x + (((bound - (x & static_cast<T>(kByteLow7s))) &
              static_cast<T>(kByteHighs)) >> 7));
    std::memcpy(p, &x, sizeof(T));
}

/** Words from @p p to the next 64 B host-line boundary. */
std::size_t
lineOffset(const std::uint32_t *p)
{
    constexpr std::uintptr_t kLine = 64;
    const auto at = reinterpret_cast<std::uintptr_t>(p);
    return static_cast<std::size_t>((kLine - at % kLine) % kLine) /
           sizeof(std::uint32_t);
}

} // namespace

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
    if (ways == 0)
        ASTRI_FATAL("%s: associativity must be >= 1", cacheName.c_str());
    if (ways > kMaxWays)
        ASTRI_FATAL("%s: associativity %u exceeds the %u ways the 7-bit "
                    "age field can order",
                    cacheName.c_str(), ways, kMaxWays);
    if (capacity % (static_cast<std::uint64_t>(ways) * line_size) != 0)
        ASTRI_FATAL("%s: capacity %llu not divisible by ways*line",
                    cacheName.c_str(),
                    static_cast<unsigned long long>(capacity));
    sets = capacity / (static_cast<std::uint64_t>(ways) * line_size);
    if (sets == 0)
        ASTRI_FATAL("%s: zero sets (capacity too small)",
                    cacheName.c_str());
    lineShift = log2i(line_size);
    if (isPowerOfTwo(sets)) {
        setMask = sets - 1;
        setShift = log2i(sets);
    } else {
        setMask = kNoSetMask;
    }
    // Lines below kInvalidTag * sets have a tag word below the
    // sentinel; saturate when that bound passes the top of memory.
    std::uint64_t lines_limit = 0;
    limit = ~Addr{0};
    if (!__builtin_mul_overflow(std::uint64_t{kInvalidTag}, sets,
                                &lines_limit) &&
        lines_limit <= (~Addr{0} >> lineShift))
        limit = lines_limit << lineShift;

    // A block holds the most sets (a power of two, at most the set
    // count) whose meta bytes fit one host line.
    const std::uint64_t per_line = std::max<std::uint64_t>(
        1, kHostLine / ways);
    const std::uint64_t per_block =
        std::bit_floor(std::min(per_line, sets));
    blockShift = log2i(per_block);
    blockMask = per_block - 1;
    blockWays = static_cast<std::size_t>(per_block) * ways;
    blockWords = blockWays + (blockWays + sizeof(std::uint32_t) - 1) /
                                 sizeof(std::uint32_t);
    const std::size_t blocks =
        static_cast<std::size_t>((sets + per_block - 1) / per_block);
    words.resize(blocks * blockWords +
                 kHostLine / sizeof(std::uint32_t) - 1);
    wordOff = lineOffset(words.data());
    invalidateAll();
}

void
SetAssocCache::invalidateAll()
{
    std::fill(words.begin(), words.end(), kInvalidTag);
    const std::uint64_t blocks = (sets + blockMask) >> blockShift;
    for (std::uint64_t b = 0; b < blocks; ++b) {
        std::memset(&words[wordOff + b * blockWords + blockWays],
                    kInvalidAge, blockWays);
    }
}

void
SetAssocCache::tagRangePanic(Addr addr) const
{
    ASTRI_PANIC("%s: address %llx is past the tag range (limit %llx)",
                cacheName.c_str(), static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(limit));
}

std::uint32_t
SetAssocCache::findWay(const std::uint32_t *tags, std::uint32_t tag) const
{
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        if (tags[w] == tag)
            return w;
    }
    return waysPerSet;
}

void
SetAssocCache::touch(std::uint8_t *meta, std::uint32_t w)
{
    const unsigned age = ageOf(meta[w]);
    if (age == 0)
        return;
    // Every way younger than w ages by one, eight or four meta bytes
    // at a time. Invalid ways hold kInvalidAge and are never younger.
    std::uint32_t i = 0;
    for (; i + 8 <= waysPerSet; i += 8)
        ageBytes<std::uint64_t>(meta + i, age);
    if (i + 4 <= waysPerSet) {
        ageBytes<std::uint32_t>(meta + i, age);
        i += 4;
    }
    for (; i < waysPerSet; ++i) {
        if (ageOf(meta[i]) < age)
            ++meta[i];
    }
    meta[w] = static_cast<std::uint8_t>(meta[w] & kDirtyBit);
}

bool
SetAssocCache::access(Addr addr)
{
    const Slot s = locate(addr);
    const std::uint32_t w = findWay(tagsOf(s), s.tag);
    if (w != waysPerSet) {
        if (policy == ReplacementPolicy::Lru)
            touch(metaOf(s), w);
        statsData.hits.inc();
        return true;
    }
    statsData.misses.inc();
    return false;
}

bool
SetAssocCache::accessWrite(Addr addr)
{
    const Slot s = locate(addr);
    const std::uint32_t w = findWay(tagsOf(s), s.tag);
    if (w != waysPerSet) {
        std::uint8_t *meta = metaOf(s);
        if (policy == ReplacementPolicy::Lru)
            touch(meta, w);
        setDirty(meta[w]);
        statsData.hits.inc();
        return true;
    }
    statsData.misses.inc();
    return false;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Slot s = locate(addr);
    return findWay(tagsOf(s), s.tag) != waysPerSet;
}

std::optional<CacheLine>
SetAssocCache::fill(Addr addr, bool dirty)
{
    const Slot s = locate(addr);
    std::uint32_t *tags = tagsOf(s);
    std::uint8_t *meta = metaOf(s);
    // One pass: the resident way, else the first invalid one.
    std::uint32_t hole = waysPerSet;
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        if (tags[w] == s.tag) {
            // Refill of a resident line refreshes recency and
            // dirtiness.
            if (policy == ReplacementPolicy::Lru)
                touch(meta, w);
            if (dirty)
                setDirty(meta[w]);
            return std::nullopt;
        }
        if (tags[w] == kInvalidTag && hole == waysPerSet)
            hole = w;
    }

    std::optional<CacheLine> evicted;
    std::uint32_t victim = hole;
    if (hole != waysPerSet) {
        // Every valid way ages past the newcomer.
        touch(meta, hole);
        ++validCount;
    } else {
        if (policy == ReplacementPolicy::Random) {
            victim = static_cast<std::uint32_t>(
                rng.uniformInt(waysPerSet));
            touch(meta, victim);
        } else {
            // Full set: the oldest way is the one aged ways-1.
            const unsigned oldest = waysPerSet - 1;
            victim = 0;
            while (ageOf(meta[victim]) != oldest) {
                if (++victim == waysPerSet) [[unlikely]]
                    ASTRI_PANIC("%s: full set %llu has no way aged %u",
                                cacheName.c_str(),
                                static_cast<unsigned long long>(s.setNo),
                                oldest);
            }
            touch(meta, victim);
        }
        const bool was_dirty = (meta[victim] & kDirtyBit) != 0;
        evicted = CacheLine{lineAddr(s.setNo, tags[victim]), was_dirty};
        statsData.evictions.inc();
        if (was_dirty)
            statsData.dirtyEvictions.inc();
    }
    tags[victim] = s.tag;
    meta[victim] = dirty ? kDirtyBit : std::uint8_t{0};
    statsData.fills.inc();
    return evicted;
}

std::optional<CacheLine>
SetAssocCache::invalidate(Addr addr)
{
    const Slot s = locate(addr);
    const std::uint32_t w = findWay(tagsOf(s), s.tag);
    if (w == waysPerSet)
        return std::nullopt;
    std::uint8_t *meta = metaOf(s);
    const CacheLine out{lineAddr(s.setNo, s.tag),
                        (meta[w] & kDirtyBit) != 0};
    // Every older valid way moves up one age to close the gap.
    const unsigned age = ageOf(meta[w]);
    for (std::uint32_t i = 0; i < waysPerSet; ++i) {
        const unsigned a = ageOf(meta[i]);
        if (a > age && a != kInvalidAge)
            --meta[i];
    }
    tagsOf(s)[w] = kInvalidTag;
    meta[w] = kInvalidAge;
    --validCount;
    statsData.invalidations.inc();
    return out;
}

bool
SetAssocCache::markDirty(Addr addr)
{
    const Slot s = locate(addr);
    const std::uint32_t w = findWay(tagsOf(s), s.tag);
    if (w == waysPerSet)
        return false;
    setDirty(metaOf(s)[w]);
    return true;
}

void
SetAssocCache::flushAll()
{
    invalidateAll();
    validCount = 0;
}

void
SetAssocCache::checkInvariants(sim::InvariantChecker &chk) const
{
    std::uint64_t valid = 0;
    for (std::uint64_t s = 0; s < sets; ++s) {
        const Slot at = slotOf(s, 0);
        const std::uint32_t *tags = tagsOf(at);
        const std::uint8_t *metas = metaOf(at);
        // Ages seen in this set, one bit each (ages are below 128).
        std::uint64_t seen[2] = {0, 0};
        unsigned in_set = 0;
        unsigned max_age = 0;
        bool repeated = false;
        for (std::uint32_t w = 0; w < waysPerSet; ++w) {
            const std::uint32_t tag = tags[w];
            const std::uint8_t meta = metas[w];
            if (tag == kInvalidTag) {
                SIM_INVARIANT_MSG(
                    chk, meta == kInvalidAge,
                    "%s: invalid way %u of set %llu holds meta %#x",
                    cacheName.c_str(), w,
                    static_cast<unsigned long long>(s),
                    static_cast<unsigned>(meta));
                continue;
            }
            ++in_set;
            const unsigned age = ageOf(meta);
            const std::uint64_t bit = std::uint64_t{1} << (age % 64);
            repeated = repeated || (seen[age / 64] & bit) != 0;
            seen[age / 64] |= bit;
            max_age = std::max(max_age, age);
        }
        valid += in_set;
        if (in_set == 0)
            continue;
        // v distinct ages all below v are exactly 0..v-1.
        SIM_INVARIANT_MSG(chk, !repeated, "%s: set %llu repeats an age",
                          cacheName.c_str(),
                          static_cast<unsigned long long>(s));
        SIM_INVARIANT_MSG(chk, max_age < in_set,
                          "%s: set %llu has age %u with %u valid ways",
                          cacheName.c_str(),
                          static_cast<unsigned long long>(s), max_age,
                          in_set);
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

} // namespace astriflash::mem
