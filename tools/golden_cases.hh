/**
 * @file
 * The fixed-seed golden torture configurations and their JSON
 * serialisation, shared by the golden_stats tool and the
 * test_fcbc_suite regression so the two can never drift apart: both
 * must produce byte-identical output for the files under
 * tests/golden/.
 */

#ifndef ASTRIFLASH_TOOLS_GOLDEN_CASES_HH
#define ASTRIFLASH_TOOLS_GOLDEN_CASES_HH

#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "sim/json.hh"

#include "core/system.hh"

namespace astriflash::tools {

struct GoldenCase {
    const char *name;
    core::SystemKind kind;
    workload::Kind workload;
    std::uint64_t seed;
    bool footprint;
    bool openLoop;
    /** BC shards, each with its own flash device (1 = unsharded). */
    std::uint32_t shards = 1;
};

// Mirrors kTortureCases in tests/test_invariants.cpp: one case per
// system-kind/workload mix, fixed seeds, tatp both closed and open.
// astriflash_tatp_shards4 pins the multi-shard miss path: the tatp
// case over 4 BC shards and 4 flash devices.
constexpr GoldenCase kGoldenCases[] = {
    {"astriflash_tatp", core::SystemKind::AstriFlash,
     workload::Kind::Tatp, 1, false, false},
    {"astriflash_silo_footprint", core::SystemKind::AstriFlash,
     workload::Kind::Silo, 2, true, false},
    {"nops_tpcc", core::SystemKind::AstriFlashNoPS,
     workload::Kind::Tpcc, 3, false, false},
    {"nodp_hashtable", core::SystemKind::AstriFlashNoDP,
     workload::Kind::HashTable, 4, false, false},
    {"flashsync_arrayswap", core::SystemKind::FlashSync,
     workload::Kind::ArraySwap, 5, false, false},
    {"astriflash_tatp_openloop", core::SystemKind::AstriFlash,
     workload::Kind::Tatp, 6, false, true},
    {"astriflash_tatp_shards4", core::SystemKind::AstriFlash,
     workload::Kind::Tatp, 1, false, false, 4},
};

/** The smallCfg used by the torture suite, verbatim. */
inline core::SystemConfig
goldenCaseConfig(const GoldenCase &gc)
{
    core::SystemConfig cfg;
    cfg.kind = gc.kind;
    cfg.cores = 2;
    cfg.workloadKind = gc.workload;
    cfg.workload.datasetBytes = 64ull << 20;
    cfg.warmupJobs = 100;
    cfg.measureJobs = 400;
    cfg.invariantInterval = sim::microseconds(50);
    cfg.seed = gc.seed;
    if (gc.footprint)
        cfg.dramCache.footprintEnabled = true;
    if (gc.openLoop)
        cfg.meanInterarrival = sim::microseconds(5);
    if (gc.shards > 1) {
        cfg.dramCache.bc.shards = gc.shards;
        cfg.dramCache.fabric.devices = gc.shards;
    }
    return cfg;
}

/** Headline results plus the full stats tree, golden-file format. */
inline void
writeGoldenJson(std::ostream &os, const GoldenCase &gc,
                const core::RunResults &r, const core::System &sys)
{
    sim::JsonWriter w(os);
    w.beginObject();

    w.key("config");
    w.beginObject();
    w.field("case", gc.name);
    w.field("kind", core::systemKindName(gc.kind));
    w.field("workload", workload::kindName(gc.workload));
    w.field("seed", gc.seed);
    w.endObject();

    w.key("results");
    w.beginObject();
    w.field("jobs", r.jobs);
    w.field("throughput_jobs_per_sec", r.throughputJobsPerSec);
    w.field("avg_service_us", r.avgServiceUs());
    w.field("p50_service_us", r.serviceUs(0.50));
    w.field("p99_service_us", r.serviceUs(0.99));
    w.field("p999_service_us", r.serviceUs(0.999));
    w.field("avg_response_us", r.avgResponseUs());
    w.field("p99_response_us", r.responseUs(0.99));
    w.field("dram_cache_hit_ratio", r.dramCacheHitRatio);
    w.field("avg_exec_between_misses_us", r.avgExecBetweenMissesUs);
    w.field("flash_reads", r.flashReads);
    w.field("flash_writes", r.flashWrites);
    w.field("gc_blocked_reads", r.gcBlockedReads);
    w.field("shootdowns", r.shootdowns);
    w.field("peak_outstanding_misses", r.peakOutstandingMisses);
    w.endObject();

    w.key("stats");
    sys.statsRegistry().writeJson(w);

    w.endObject();
    os << "\n";
}

/** The committed golden file @p dir/@p name.json, or "" if unreadable. */
inline std::string
readGoldenFile(const std::string &dir, const std::string &name)
{
    std::ifstream in(dir + "/" + name + ".json", std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace astriflash::tools

#endif // ASTRIFLASH_TOOLS_GOLDEN_CASES_HH
