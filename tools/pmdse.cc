/**
 * @file
 * pmdse: the design-space autotuner CLI (docs/DSE.md).
 *
 *   pmdse [options] [workload-id...]
 *
 * Sweeps each Table III workload's accelerator over its machine-config
 * design space (src/dse/), prints the per-workload Pareto front with
 * cost-ledger phase attribution, and closes with the "best config per
 * workload" table. `--json` additionally writes the schema-versioned
 * `polymath-dse/1` artifact. The search is deterministic: the same seed
 * produces byte-identical artifacts at any `-jN`.
 */
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
#include "dse/artifact.h"
#include "dse/dse.h"
#include "lower/compile_cache.h"
#include "report/artifact.h"
#include "workloads/suite.h"

using namespace polymath;

namespace {

struct Options
{
    dse::SearchOptions search;
    std::string jsonPath;
    std::vector<std::string> ids; ///< empty = whole Table III suite
};

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: pmdse [options] [workload-id...]\n"
        "\n"
        "Autotunes the Table III workloads over their accelerators'\n"
        "machine-config design spaces and reports the Pareto front\n"
        "(runtime vs. performance per watt) per workload. With no\n"
        "workload ids, the whole suite runs.\n"
        "\n"
        "  -j, --jobs N      evaluation fan-out (0 = all hardware\n"
        "                    threads; results are identical at any N)\n"
        "  --space KIND      config space: small | full (default full)\n"
        "  --search DRIVER   auto | grid | random (default auto: grid\n"
        "                    when the budget covers the space)\n"
        "  --samples N       random driver's first-round budget\n"
        "                    (default 48)\n"
        "  --rounds N        random driver's halving/refinement rounds\n"
        "                    (default 3)\n"
        "  --seed N          search seed (default 0x5eed)\n"
        "  --json FILE       also write the polymath-dse/1 artifact\n"
        "  -h, --help        this text\n");
}

int64_t
parseCount(const char *text, const char *flag)
{
    int64_t value = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc{} || ptr != end || value < 1)
        fatal(std::string(flag) + " expects a positive integer (got '" +
              text + "')");
    return value;
}

uint64_t
parseSeed(const char *text)
{
    uint64_t value = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc{} || ptr != end)
        fatal(std::string("--seed expects a non-negative integer (got '") +
              text + "')");
    return value;
}

const char *
flagValue(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc)
        fatal(std::string("missing value after ") + flag);
    return argv[++i];
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    opts.search.space = dse::ConfigSpace::Kind::Full;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "-h") || !std::strcmp(arg, "--help")) {
            usage(stdout);
            std::exit(0);
        } else if (!std::strcmp(arg, "-j") || !std::strcmp(arg, "--jobs")) {
            const char *value = flagValue(argc, argv, i, arg);
            int64_t jobs = 0;
            const char *end = value + std::strlen(value);
            const auto [ptr, ec] = std::from_chars(value, end, jobs);
            if (ec != std::errc{} || ptr != end || jobs < 0)
                fatal(std::string(arg) +
                      " expects a non-negative integer (got '" + value +
                      "')");
            opts.search.jobs = static_cast<int>(jobs);
        } else if (!std::strcmp(arg, "--space")) {
            opts.search.space = dse::ConfigSpace::kindFromString(
                flagValue(argc, argv, i, arg));
        } else if (!std::strcmp(arg, "--search")) {
            opts.search.driver = dse::SearchOptions::driverFromString(
                flagValue(argc, argv, i, arg));
        } else if (!std::strcmp(arg, "--samples")) {
            opts.search.samples =
                parseCount(flagValue(argc, argv, i, arg), arg);
        } else if (!std::strcmp(arg, "--rounds")) {
            opts.search.rounds =
                parseCount(flagValue(argc, argv, i, arg), arg);
        } else if (!std::strcmp(arg, "--seed")) {
            opts.search.seed = parseSeed(flagValue(argc, argv, i, arg));
        } else if (!std::strcmp(arg, "--json")) {
            opts.jsonPath = flagValue(argc, argv, i, arg);
        } else if (arg[0] == '-') {
            fatal(std::string("unknown flag '") + arg +
                  "' (try --help)");
        } else {
            opts.ids.push_back(arg);
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opts = parseArgs(argc, argv);
        const auto &registry = target::standardRegistry();

        // Resolve the workload list up front so a typo fails before any
        // compilation (benchmarkById throws UserError on unknown ids).
        std::vector<const wl::Benchmark *> suite;
        if (opts.ids.empty()) {
            for (const auto &bench : wl::tableIII())
                suite.push_back(&bench);
        } else {
            for (const auto &id : opts.ids)
                suite.push_back(&wl::benchmarkById(id));
        }

        // Compile once per workload through the shared cache; the DSE
        // fan-out reuses the same immutable program for every config.
        auto &cache = lower::CompileCache::global();
        const auto programs = core::parallelMap(
            opts.search.jobs, static_cast<int64_t>(suite.size()),
            [&](int64_t i) {
                const auto &bench = *suite[static_cast<size_t>(i)];
                return wl::compileBenchmarkCached(bench.source,
                                                  bench.buildOpts, registry,
                                                  bench.domain, cache);
            });

        std::vector<dse::WorkloadStudy> studies;
        for (size_t i = 0; i < suite.size(); ++i) {
            const auto &bench = *suite[i];
            studies.push_back(dse::explore(
                bench.id, bench.accel,
                dse::partitionsFor(*programs[i], bench.accel),
                bench.profile, opts.search));
            std::printf("%s\n", dse::frontTable(studies.back()).c_str());
        }
        std::printf("best configs:\n%s",
                    dse::bestTable(studies).c_str());

        if (!opts.jsonPath.empty()) {
            dse::DseArtifact artifact;
            artifact.name = "pmdse";
            artifact.git = report::buildGitDescribe();
            artifact.config = report::buildConfig();
            artifact.space =
                dse::ConfigSpace::toString(opts.search.space);
            artifact.search =
                dse::SearchOptions::toString(opts.search.driver);
            artifact.seed = opts.search.seed;
            artifact.samples = opts.search.samples;
            artifact.rounds = opts.search.rounds;
            for (const auto &study : studies)
                artifact.workloads.push_back(dse::toStudy(study));
            artifact.write(opts.jsonPath);
        }
        return 0;
    } catch (const UserError &e) {
        std::fprintf(stderr, "pmdse: %s\n", e.message().c_str());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pmdse: %s\n", e.what());
        return 2;
    }
}
