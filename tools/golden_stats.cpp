/**
 * @file
 * golden_stats — fixed-seed golden stats-JSON driver.
 *
 * Runs one of the golden torture configurations (the set
 * test_invariants.cpp sweeps, tatp closed- and open-loop included,
 * plus a 4-shard tatp case and an MSR-saturated tatp case) at its
 * fixed seed and writes the headline results plus the full
 * hierarchical stats tree as JSON. The files under tests/golden/ were
 * captured from the pre-strong-type tree; the golden_stats_* ctests
 * re-run each case and require byte-identical output, so any refactor
 * that changes simulated arithmetic — not just schema — fails loudly.
 *
 * The case table and serialisation live in golden_cases.hh, shared
 * with the test_fcbc_suite in-process regression.
 *
 *   golden_stats --list
 *   golden_stats --case=astriflash_tatp --out=stats.json
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "sim/option_parser.hh"

#include "golden_cases.hh"

using namespace astriflash;
using namespace astriflash::core;
using namespace astriflash::tools;

int
main(int argc, char **argv)
{
    std::string case_name;
    std::string out_file;
    bool list = false;

    sim::OptionParser opts(
        "golden_stats",
        "Run one fixed-seed torture configuration and write its full "
        "stats tree as JSON for golden-file comparison.");
    opts.addString("case", &case_name, "configuration name (--list)");
    opts.addString("out", &out_file,
                   "output JSON file (- for stdout)");
    opts.addFlag("list", &list, "print the known case names");
    opts.parseOrExit(argc, argv);

    if (list) {
        for (const GoldenCase &gc : kGoldenCases)
            std::printf("%s\n", gc.name);
        return 0;
    }

    const GoldenCase *chosen = nullptr;
    for (const GoldenCase &gc : kGoldenCases) {
        if (case_name == gc.name)
            chosen = &gc;
    }
    if (chosen == nullptr) {
        std::fprintf(stderr,
                     "golden_stats: unknown --case '%s' (try --list)\n",
                     case_name.c_str());
        return 2;
    }

    System sys(goldenCaseConfig(*chosen));
    const RunResults r = sys.run();

    if (out_file.empty() || out_file == "-") {
        writeGoldenJson(std::cout, *chosen, r, sys);
    } else {
        std::ofstream out(out_file);
        if (!out) {
            std::fprintf(stderr, "golden_stats: cannot open '%s'\n",
                         out_file.c_str());
            return 1;
        }
        writeGoldenJson(out, *chosen, r, sys);
    }
    return 0;
}
