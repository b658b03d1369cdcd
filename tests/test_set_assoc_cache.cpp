/**
 * @file
 * Unit + property tests for the generic set-associative tag array.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "mem/set_assoc_cache.hh"
#include "reference_set_assoc_cache.hh"
#include "sim/invariant.hh"
#include "sim/rng.hh"

using namespace astriflash::mem;

namespace {

SetAssocCache
makeTiny(ReplacementPolicy p = ReplacementPolicy::Lru)
{
    // 4 sets x 2 ways x 64 B lines.
    return SetAssocCache("t", 4 * 2 * 64, 64, 2, p);
}

} // namespace

TEST(SetAssocCache, MissThenHit)
{
    auto c = makeTiny();
    EXPECT_FALSE(c.access(0x100));
    c.fill(0x100);
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x13f)); // same 64 B line
    EXPECT_FALSE(c.access(0x140)); // next line
}

TEST(SetAssocCache, LruEvictsLeastRecent)
{
    auto c = makeTiny();
    // Two lines in set 0 (line addr multiples of 64*4 = 256).
    c.fill(0);
    c.fill(256);
    EXPECT_TRUE(c.access(0)); // make 0 the MRU
    const auto victim = c.fill(512);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag_addr, 256u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(256));
}

TEST(SetAssocCache, FifoEvictsOldestFill)
{
    auto c = makeTiny(ReplacementPolicy::Fifo);
    c.fill(0);
    c.fill(256);
    EXPECT_TRUE(c.access(0)); // recency must NOT matter for FIFO
    const auto victim = c.fill(512);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag_addr, 0u);
}

TEST(SetAssocCache, RandomPolicyEvictsSomeValidWay)
{
    auto c = makeTiny(ReplacementPolicy::Random);
    c.fill(0);
    c.fill(256);
    const auto victim = c.fill(512);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->tag_addr == 0 || victim->tag_addr == 256);
}

TEST(SetAssocCache, DirtyTrackedThroughEviction)
{
    auto c = makeTiny();
    c.fill(0);
    EXPECT_TRUE(c.accessWrite(0));
    c.fill(256);
    const auto victim = c.fill(512); // evicts LRU = 0 (dirty)
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag_addr, 0u);
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(c.stats().dirtyEvictions.value(), 1u);
}

TEST(SetAssocCache, FillWithDirtyFlag)
{
    auto c = makeTiny();
    c.fill(0, true);
    c.fill(256);
    c.access(256);
    const auto victim = c.fill(512);
    ASSERT_TRUE(victim);
    EXPECT_TRUE(victim->dirty);
}

TEST(SetAssocCache, InvalidateReturnsLine)
{
    auto c = makeTiny();
    c.fill(0x40);
    c.markDirty(0x40);
    const auto line = c.invalidate(0x40);
    ASSERT_TRUE(line);
    EXPECT_TRUE(line->dirty);
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.invalidate(0x40).has_value());
}

TEST(SetAssocCache, MarkDirtyOnlyWhenPresent)
{
    auto c = makeTiny();
    EXPECT_FALSE(c.markDirty(0x40));
    c.fill(0x40);
    EXPECT_TRUE(c.markDirty(0x40));
}

TEST(SetAssocCache, RefillOfResidentLineKeepsSingleCopy)
{
    auto c = makeTiny();
    c.fill(0);
    EXPECT_FALSE(c.fill(0).has_value());
    EXPECT_EQ(c.validLines(), 1u);
}

TEST(SetAssocCache, FlushAllEmpties)
{
    auto c = makeTiny();
    c.fill(0);
    c.fill(64);
    c.flushAll();
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_FALSE(c.contains(0));
}

TEST(SetAssocCache, StatsCount)
{
    auto c = makeTiny();
    c.access(0);     // miss
    c.fill(0);       // fill
    c.access(0);     // hit
    EXPECT_EQ(c.stats().hits.value(), 1u);
    EXPECT_EQ(c.stats().misses.value(), 1u);
    EXPECT_EQ(c.stats().fills.value(), 1u);
    EXPECT_DOUBLE_EQ(c.stats().missRatio(), 0.5);
}

TEST(SetAssocCacheDeath, RejectsBadGeometry)
{
    EXPECT_EXIT(SetAssocCache("x", 1000, 63, 2), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(SetAssocCache("x", 1000, 64, 0), ::testing::ExitedWithCode(1),
                "associativity");
    EXPECT_EXIT(SetAssocCache("x", 100, 64, 2), ::testing::ExitedWithCode(1),
                "");
}

/**
 * Property sweep: under random traffic, structural invariants hold
 * for every geometry/policy combination:
 *  - valid lines never exceed capacity/line;
 *  - a filled line is found until evicted;
 *  - per-set occupancy never exceeds associativity (checked via the
 *    global bound and targeted same-set streams).
 */
class CacheProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint64_t, ReplacementPolicy>>
{
};

TEST_P(CacheProperty, InvariantsUnderRandomTraffic)
{
    const auto [ways, sets, policy] = GetParam();
    const std::uint64_t line = 64;
    SetAssocCache c("p", sets * ways * line, line, ways, policy, 77);
    astriflash::sim::Rng rng(123);

    const std::uint64_t frames = sets * ways;
    std::set<Addr> resident;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.uniformInt(frames * 8) * line;
        const bool hit = c.access(a);
        EXPECT_EQ(hit, resident.count(a) != 0) << "addr " << a;
        if (!hit) {
            const auto victim = c.fill(a);
            resident.insert(a);
            if (victim)
                resident.erase(victim->tag_addr);
        }
        ASSERT_LE(c.validLines(), frames);
        ASSERT_EQ(c.validLines(), resident.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(std::uint64_t{1},
                                         std::uint64_t{16},
                                         std::uint64_t{64}),
                       ::testing::Values(ReplacementPolicy::Lru,
                                         ReplacementPolicy::Fifo,
                                         ReplacementPolicy::Random)));

/** Page-granularity instantiation used by the DRAM cache. */
TEST(SetAssocCache, PageGranularity)
{
    SetAssocCache c("pages", 16 * 8 * 4096, 4096, 8);
    c.fill(0x3000);
    EXPECT_TRUE(c.access(0x3fff));
    EXPECT_FALSE(c.access(0x4000));
    EXPECT_EQ(c.numSets(), 16u);
}

/**
 * Differential test: the packed tag-word array against the original
 * one-struct-per-way model (reference_set_assoc_cache.hh), driven by
 * the same seeded stream of every mutating and probing call. Every
 * return value, victim identity and dirtiness included, the valid-line
 * count and all six counters must agree after each call.
 */
struct DiffGeometry {
    const char *name;
    std::uint64_t sets;
    std::uint32_t ways;
    std::uint64_t line;
};

constexpr DiffGeometry kDiffGeometries[] = {
    {"tlb_l1", 1, 48, 4096},      // fully associative
    {"tlb_l2", 256, 5, 4096},
    {"non_pow2_sets", 96, 8, 4096}, // modulo set index
    {"page_lines", 64, 16, 4096},
    {"l1d", 256, 4, 64},
    {"l2", 1024, 8, 64},
    {"llc", 1024, 16, 64},
};

class CacheDifferential
    : public ::testing::TestWithParam<
          std::tuple<DiffGeometry, ReplacementPolicy>>
{
};

void
expectSameState(const SetAssocCache &c, const reference::SetAssocCache &r,
                int op)
{
    ASSERT_EQ(c.validLines(), r.validLines()) << "op " << op;
    const auto &a = c.stats();
    const auto &b = r.stats();
    ASSERT_EQ(a.hits.value(), b.hits.value()) << "op " << op;
    ASSERT_EQ(a.misses.value(), b.misses.value()) << "op " << op;
    ASSERT_EQ(a.evictions.value(), b.evictions.value()) << "op " << op;
    ASSERT_EQ(a.dirtyEvictions.value(), b.dirtyEvictions.value())
        << "op " << op;
    ASSERT_EQ(a.fills.value(), b.fills.value()) << "op " << op;
    ASSERT_EQ(a.invalidations.value(), b.invalidations.value())
        << "op " << op;
}

void
expectSameLine(const std::optional<CacheLine> &a,
               const std::optional<CacheLine> &b, int op)
{
    ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
    if (a) {
        ASSERT_EQ(a->tag_addr, b->tag_addr) << "op " << op;
        ASSERT_EQ(a->dirty, b->dirty) << "op " << op;
    }
}

TEST_P(CacheDifferential, MatchesReferenceModelCallForCall)
{
    const auto [g, policy] = GetParam();
    const std::uint64_t capacity = g.sets * g.ways * g.line;
    SetAssocCache c("diff", capacity, g.line, g.ways, policy, 9);
    reference::SetAssocCache r(capacity, g.line, g.ways, policy, 9);
    ASSERT_EQ(c.numSets(), g.sets);
    astriflash::sim::Rng rng(2024);

    // Three frames' worth of lines per way, from the bottom and the
    // top of the representable range: the top lines' tag words sit
    // next to the invalid-way sentinel and must never alias it.
    const std::uint64_t span = g.sets * g.ways * 3;
    const Addr top = c.addressLimit() - span * g.line;
    ASSERT_EQ(c.addressLimit(), (Addr{0xffffffff} * g.sets) * g.line);
    for (int op = 0; op < 30000; ++op) {
        const Addr base = rng.uniformInt(4) == 0 ? top : 0;
        const Addr a = base + rng.uniformInt(span) * g.line +
                       rng.uniformInt(g.line);
        const std::uint64_t kind = rng.uniformInt(1000);
        if (kind < 400) {
            ASSERT_EQ(c.access(a), r.access(a)) << "op " << op;
        } else if (kind < 600) {
            ASSERT_EQ(c.accessWrite(a), r.accessWrite(a)) << "op " << op;
        } else if (kind < 850) {
            const bool dirty = rng.uniformInt(2) == 0;
            expectSameLine(c.fill(a, dirty), r.fill(a, dirty), op);
        } else if (kind < 920) {
            expectSameLine(c.invalidate(a), r.invalidate(a), op);
        } else if (kind < 970) {
            ASSERT_EQ(c.markDirty(a), r.markDirty(a)) << "op " << op;
        } else if (kind < 999) {
            ASSERT_EQ(c.contains(a), r.contains(a)) << "op " << op;
        } else {
            c.flushAll();
            r.flushAll();
        }
        expectSameState(c, r, op);
        if (::testing::Test::HasFatalFailure())
            return;
        if (op % 1000 == 999) {
            // The packed ages stay a permutation of 0..v-1 per set.
            astriflash::sim::InvariantChecker chk;
            c.checkInvariants(chk);
            ASSERT_EQ(chk.failures(), 0u) << "op " << op;
        }
    }
}

std::string
diffCaseName(const ::testing::TestParamInfo<CacheDifferential::ParamType>
                 &info)
{
    const ReplacementPolicy p = std::get<1>(info.param);
    return std::string(std::get<0>(info.param).name) +
           (p == ReplacementPolicy::Lru    ? "_lru"
            : p == ReplacementPolicy::Fifo ? "_fifo"
                                           : "_random");
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Combine(::testing::ValuesIn(kDiffGeometries),
                       ::testing::Values(ReplacementPolicy::Lru,
                                         ReplacementPolicy::Fifo,
                                         ReplacementPolicy::Random)),
    diffCaseName);

/**
 * The tag word's top value is the invalid-way sentinel, so the lines
 * whose tag would need it have no spare tag value: the array holds
 * the line just below the limit and rejects the first one past it,
 * whatever the line size, 2 B included.
 */
TEST(SetAssocCacheDeath, RejectsLinesWithoutSpareTagBits)
{
    SetAssocCache c("x", 2 * 2, 2, 2);
    const Addr limit = c.addressLimit();
    EXPECT_EQ(limit, Addr{0xffffffff} * 2);
    EXPECT_FALSE(c.fill(limit - 2).has_value());
    EXPECT_TRUE(c.contains(limit - 1));
    EXPECT_DEATH(c.fill(limit), "past the tag range");
}

/** One line past the range panics on every entry point. */
TEST(SetAssocCacheDeath, AddressOneLinePastTheRangePanics)
{
    // The L1D geometry: 256 sets of 4 x 64 B lines.
    SetAssocCache c("l1d", 64 * 1024, 64, 4);
    const Addr past = c.addressLimit();
    EXPECT_EQ(past, (Addr{0xffffffff} << 8) << 6);
    EXPECT_FALSE(c.access(past - 64));
    c.fill(past - 64);
    EXPECT_TRUE(c.access(past - 1));
    EXPECT_DEATH(c.access(past), "past the tag range");
    EXPECT_DEATH(c.accessWrite(past), "past the tag range");
    EXPECT_DEATH(c.contains(past), "past the tag range");
    EXPECT_DEATH(c.fill(past), "past the tag range");
    EXPECT_DEATH(c.invalidate(past), "past the tag range");
    EXPECT_DEATH(c.markDirty(past), "past the tag range");
    // A non-power-of-two set count divides instead of shifting.
    SetAssocCache odd("odd", 96 * 8 * 4096, 4096, 8);
    EXPECT_EQ(odd.addressLimit(), Addr{0xffffffff} * 96 * 4096);
    odd.fill(odd.addressLimit() - 4096);
    EXPECT_DEATH(odd.fill(odd.addressLimit()), "past the tag range");
}

/** Wide sets whose limit passes 2^64 hold every address. */
TEST(SetAssocCache, LimitSaturatesWhenEveryAddressFits)
{
    SetAssocCache c("pages", std::uint64_t{1} << 40, 1 << 20, 16);
    EXPECT_EQ(c.addressLimit(), ~Addr{0});
    c.fill(~Addr{0});
    EXPECT_TRUE(c.contains(~Addr{0}));
}

/** The 7-bit age field orders at most 127 ways. */
TEST(SetAssocCacheDeath, RejectsAssociativityAboveTheAgeField)
{
    SetAssocCache widest("x", 127 * 64, 64, SetAssocCache::kMaxWays);
    EXPECT_EQ(widest.associativity(), 127u);
    EXPECT_EXIT(SetAssocCache("x", 128 * 64, 64, 128),
                ::testing::ExitedWithCode(1), "age field");
}

namespace astriflash::mem {

/** Reaches the packed meta bytes to corrupt them. */
struct SetAssocCacheTestAccess {
    static std::uint8_t &
    meta(SetAssocCache &c, std::uint64_t set_no, std::uint32_t w)
    {
        return c.metaOf(c.slotOf(set_no, 0))[w];
    }
};

} // namespace astriflash::mem

namespace {

std::uint64_t
auditFailures(const SetAssocCache &c)
{
    astriflash::sim::InvariantChecker chk;
    c.checkInvariants(chk);
    return chk.failures();
}

} // namespace

/** checkInvariants catches a repeated or an out-of-range age. */
TEST(SetAssocCache, InvariantsCatchCorruptAges)
{
    // 4 sets x 4 ways of 64 B: set 0 holds lines 0, 256, 512, ...
    SetAssocCache c("m", 4 * 4 * 64, 64, 4);
    for (Addr a = 0; a < 4 * 256; a += 256)
        c.fill(a);
    c.fill(64); // set 1: one valid way
    ASSERT_EQ(auditFailures(c), 0u);

    // Ways 0..3 of set 0 hold ages 3, 2, 1, 0 (fill order).
    std::uint8_t &way0 = SetAssocCacheTestAccess::meta(c, 0, 0);
    std::uint8_t &way1 = SetAssocCacheTestAccess::meta(c, 0, 1);
    const std::uint8_t saved = way1;
    way1 = static_cast<std::uint8_t>((way1 & 0x80) | (way0 & 0x7f));
    EXPECT_GT(auditFailures(c), 0u) << "repeated age";
    way1 = saved;
    ASSERT_EQ(auditFailures(c), 0u);

    // An age of 4 in a 4-way set, and of 1 in a one-line set.
    way0 = static_cast<std::uint8_t>((way0 & 0x80) | 4);
    EXPECT_GT(auditFailures(c), 0u) << "age past the set";
    way0 = static_cast<std::uint8_t>((way0 & 0x80) | 3);
    ASSERT_EQ(auditFailures(c), 0u);
    std::uint8_t &lone = SetAssocCacheTestAccess::meta(c, 1, 0);
    lone = 1;
    EXPECT_GT(auditFailures(c), 0u) << "age past a partial set";
    lone = 0;
    ASSERT_EQ(auditFailures(c), 0u);

    // An invalid way must hold the invalid meta byte.
    std::uint8_t &hole = SetAssocCacheTestAccess::meta(c, 1, 1);
    hole = 0;
    EXPECT_GT(auditFailures(c), 0u) << "invalid way with an age";
}
