/**
 * @file
 * In-process replay of a workload's request sequence, once untimed by
 * spans (service::runRequestGuarded as a pmcd worker with telemetry on
 * calls it) and once with a span at the public entry point of every
 * layer the request passes through. The spans are recorded here, in
 * the benchmark, around the calls; the program itself is not
 * instrumented further.
 */
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "universe.h"

namespace perfbench {

/** Layers (and the benchmark's own bookkeeping) a span can name. */
enum class Layer : uint8_t
{
    Request,         ///< one whole request (root)
    Decode,          ///< service: Request::fromJson
    Execute,         ///< service: the guarded execution
    Preflight,       ///< service: preflightDiagnostics
    Encode,          ///< service: Response::json
    Registry,        ///< lower: target::standardRegistry
    CacheKey,        ///< lower: compileCacheKey
    CacheLookup,     ///< lower: CompileCache::getOrCompile
    Parse,           ///< pmlang: lang::parse
    Sema,            ///< pmlang: lang::analyze
    Build,           ///< srdfg: ir::buildSrdfg
    Fixpoint,        ///< passes: PassManager::runToFixpoint
    Alg1,            ///< lower: lowerGraph (Algorithm 1)
    Alg2,            ///< lower: compileProgram (Algorithm 2)
    Render,          ///< lower: CompiledProgram::str
    SocSetup,        ///< soc: SocRuntime construction
    SocExecute,      ///< soc: SocRuntime::execute
    Profile,         ///< targets: profileTable + profileJson
    Explore,         ///< dse: dse::explore
    Probe,           ///< the benchmark reading graphStats (not a layer)
    Count
};

constexpr size_t kLayers = static_cast<size_t>(Layer::Count);

/** One recorded span. */
struct SpanRecord
{
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1; ///< index of the enclosing span, -1 for a root
    int32_t request = 0; ///< request index within the replay
    Layer layer = Layer::Request;
};

/** Counts a request's layers report through their return values. */
struct RequestFacts
{
    bool hit = false;
    bool compiled = false;
    int64_t nodes = 0;
    int64_t arenaBytes = 0;
    int64_t partitions = 0;
    int64_t renderBytes = 0;
    int64_t dsePoints = 0;
    int64_t passApplications = 0;
    int64_t passChanged = 0;
    /** Per pass name: whole microseconds from PassResult::micros. */
    std::map<std::string, int64_t> passMicros;
};

/** The program's own spans (obs::Span) of one untraced request, per
 *  layer that has one: how many closed and their summed whole µs. */
struct ProgramSpans
{
    std::array<int32_t, kLayers> count{};
    std::array<int64_t, kLayers> us{};
};

/** Result of a replay; per-request vectors are indexed alike. */
struct ReplayResult
{
    int64_t requests = 0; ///< sequence requests replayed (each twice)
    int64_t executed = 0; ///< every execution, warm-ups included
    int64_t failed = 0;
    std::string firstFailure;
    std::vector<double> untracedNs;        ///< decode+execute+encode
    std::vector<double> untracedGuardedNs; ///< runRequestGuarded only
    std::vector<ProgramSpans> program;     ///< untraced run's own trace
    std::vector<SpanRecord> spans;         ///< traced replay
    std::vector<RequestFacts> facts;       ///< traced replay
};

/**
 * Replays @p workload's sequence for @p seed in-process for about
 * @p seconds after the warm-up, running every request untraced and
 * traced back to back.
 */
ReplayResult replay(Workload workload, uint64_t seed, double seconds,
                    const Expected &expected);

/** The per-layer metrics derived from @p r (names as in BENCHMARK.json;
 *  the daemon-scraped ones are added by the caller). */
std::map<std::string, double> layerMetrics(const ReplayResult &r);

/**
 * Holds the traced copy of runRequest to the program's real call path:
 * per request, the copy must enter each layer that has a program span
 * (parse, sema, build, fixpoint, Algorithms 1 and 2, soc execute) as
 * often as the untraced run's captured trace shows, the two medians of
 * each such layer must agree within a tolerance, and the untraced time
 * the copy's spans leave unattributed must not go clearly negative.
 * Returns "" or what disagreed.
 */
std::string crossCheck(const ReplayResult &r,
                       const std::map<std::string, double> &metrics);

/** Writes the spans as JSON lines (at most @p maxRequests requests). */
void writeSpans(const ReplayResult &r, const std::string &path,
                int64_t maxRequests);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H_
