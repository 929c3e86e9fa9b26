#include "service/exec.h"

#include <fstream>
#include <optional>
#include <set>

#include "core/diagnostics.h"
#include "core/error.h"
#include "core/json.h"
#include "core/strings.h"
#include "dse/artifact.h"
#include "dse/dse.h"
#include "lower/lower.h"
#include "passes/pass.h"
#include "pmlang/parser.h"
#include "soc/soc.h"
#include "srdfg/builder.h"
#include "targets/common/cost_ledger.h"
#include "targets/deco/chain_mapper.h"
#include "targets/tabla/scheduler.h"

namespace polymath::service {

lang::Domain
domainFromKeyword(const std::string &word)
{
    if (word == "ALL") return lang::Domain::None; // per-statement tags
    if (word == "RBT") return lang::Domain::RBT;
    if (word == "GA") return lang::Domain::GA;
    if (word == "DSP") return lang::Domain::DSP;
    if (word == "DA") return lang::Domain::DA;
    if (word == "DL") return lang::Domain::DL;
    fatal("unknown domain '" + word +
          "' (expected RBT|GA|DSP|DA|DL or ALL)");
}

bool
preflightDiagnostics(const std::string &source, std::string &err)
{
    DiagnosticEngine diag;
    lang::parseWithRecovery(source, diag);
    if (!diag.empty())
        err += diag.str();
    if (diag.hasErrors()) {
        err += format("pmc: %zu error(s)\n", diag.errorCount());
        return true;
    }
    return false;
}

ExecResult
runRequest(const Request &req, lower::CompileCache &cache)
{
    if (!isWorkVerb(req.verb))
        panic("runRequest called with non-work verb '" +
              std::string(toString(req.verb)) + "'");
    if (req.target.empty())
        fatal("a " + std::string(toString(req.verb)) +
              " request needs a target domain (RBT|GA|DSP|DA|DL|ALL)");
    const bool simulate =
        req.verb == Verb::Simulate || req.verb == Verb::Profile;
    const bool profile = req.verb == Verb::Profile;
    const bool want_doc = profile || req.profileDoc;

    const auto domain = domainFromKeyword(req.target);
    const auto &registry = target::standardRegistry();
    ir::BuildOptions build;
    build.entry = req.entry;
    build.paramConsts = req.params;

    // Compile through the shared cache. The key covers (source, build
    // options, domain, registry) but not the pass pipeline, so the
    // optimize flag is salted in to keep optimized and unoptimized
    // programs distinct.
    const std::string key = lower::compileCacheKey(
        req.source, build, domain, registry,
        req.optimize ? "optimize=1" : "optimize=0");
    ExecResult result;
    bool compiled_here = false;
    result.program = cache.getOrCompile(key, [&] {
        compiled_here = true;
        auto fresh = ir::compileToSrdfg(req.source, build);
        if (req.optimize)
            pass::standardPipeline().runToFixpoint(*fresh);
        lower::lowerGraph(*fresh, registry.supportedOpsByDomain(),
                          domain);
        return lower::compileProgram(*fresh, registry, domain);
    });
    result.cacheHit = !compiled_here;
    const lower::CompiledProgram &compiled = *result.program;

    if (req.verb == Verb::Dse) {
        // Design-space search over every searchable accelerator among
        // the compiled partitions (docs/DSE.md). Single-threaded per
        // request: the server's fairness unit is the request, and the
        // search is deterministic at any fan-out anyway.
        dse::SearchOptions opts;
        opts.space = dse::ConfigSpace::kindFromString(req.dseSpace);
        opts.driver =
            dse::SearchOptions::driverFromString(req.dseSearch);
        opts.samples = req.dseSamples;
        opts.rounds = req.dseRounds;
        opts.seed = req.dseSeed;
        opts.jobs = 1;
        target::WorkloadProfile workload;
        workload.invocations = req.invocations;
        std::vector<dse::WorkloadStudy> studies;
        std::set<std::string> swept;
        for (const auto &partition : compiled.partitions) {
            if (!dse::ConfigSpace::searchable(partition.accel) ||
                !swept.insert(partition.accel).second)
                continue;
            studies.push_back(dse::explore(
                req.file, partition.accel,
                dse::partitionsFor(compiled, partition.accel), workload,
                opts));
        }
        if (studies.empty())
            fatal("dse: the compiled program has no partitions on a "
                  "searchable accelerator");
        for (const auto &study : studies)
            result.out += dse::frontTable(study) + "\n";
        result.out += "best configs:\n" + dse::bestTable(studies);
        return result;
    }

    result.out += compiled.str();

    if (req.schedule) {
        for (const auto &partition : compiled.partitions) {
            if (partition.accel == "TABLA") {
                result.out += "TABLA PE schedule:\n" +
                              target::listSchedule(partition, {}).str();
            } else if (partition.accel == "DECO") {
                result.out += "DECO chain mapping:\n" +
                              target::mapChains(partition, {}).str();
            }
        }
    }
    if (!simulate)
        return result;

    soc::SocRuntime runtime;
    if (req.faultRate != 0) { // negative => validation error
        runtime.setFaultModel(soc::FaultModel(
            soc::FaultConfig::atRate(req.faultRate, req.faultSeed)));
    }
    target::WorkloadProfile workload;
    workload.invocations = req.invocations;
    // Only this request's reports carry ledgers; neighbors' simulate
    // requests build none.
    workload.profiling = want_doc;
    const auto sim = runtime.execute(compiled, workload);
    result.out += format("simulated: %s\n", sim.total.str().c_str());
    if (req.faultRate > 0) {
        result.out += format("reliability: %s\n",
                             sim.reliability.str().c_str());
    }
    if (profile) {
        for (size_t pi = 0; pi < sim.partitions.size(); ++pi) {
            result.out += format("partition %zu ", pi);
            result.out += target::profileTable(
                sim.partitions[pi], static_cast<int>(req.profileTop));
        }
    }
    if (want_doc) {
        // Sized for every partition's entries plus the total's, which
        // repeats them.
        size_t entries = 0;
        for (const auto &partition : sim.partitions)
            entries += partition.ledger ? partition.ledger->entries.size() : 0;
        std::string doc;
        doc.reserve(640 + 320 * sim.partitions.size() + 512 * entries);
        json::Writer w(doc);
        w.beginObject().field("schema", "polymath-profile/1");
        w.field("file", req.file);
        w.key("partitions").beginArray();
        for (const auto &partition : sim.partitions)
            target::writeProfileJson(w, partition);
        w.endArray().key("total");
        target::writeProfileJson(w, sim.total);
        w.endObject();
        doc += '\n';
        result.profileJson = std::move(doc);
    }
    return result;
}

namespace {

/** Distinct accelerators of @p program in partition order, joined with
 *  commas — the "backend mix" a request record reports. */
std::string
backendMix(const lower::CompiledProgram &program)
{
    std::string mix;
    std::set<std::string> seen;
    for (const auto &partition : program.partitions) {
        if (!seen.insert(partition.accel).second)
            continue;
        if (!mix.empty())
            mix += ",";
        mix += partition.accel;
    }
    return mix;
}

} // namespace

Response
runRequestGuarded(const Request &req, lower::CompileCache &cache,
                  RequestTelemetry *telemetry)
{
    Response resp;
    resp.id = req.id;
    // Request-scoped telemetry: the trace sink is installed for the
    // whole guarded body, so preflight, compile, and simulate spans of
    // *this* request (and no other) are captured even when the global
    // recorder is off. The nullptr path touches nothing.
    obs::RequestTrace rtrace(telemetry != nullptr ? telemetry->requestId
                                                  : std::string());
    std::optional<obs::RequestTraceScope> scope;
    if (telemetry != nullptr && telemetry->captureTrace)
        scope.emplace(rtrace);
    const int64_t begin_us =
        telemetry != nullptr
            ? obs::TraceRecorder::global().nowMicros()
            : 0;
    // Pre-flight syntax check with statement-level error recovery so
    // one response surfaces *every* syntax error, not just the first —
    // exactly the local pmc behavior.
    if (preflightDiagnostics(req.source, resp.error)) {
        resp.ok = false;
        resp.code = 1;
        if (telemetry != nullptr) {
            telemetry->executeMicros =
                obs::TraceRecorder::global().nowMicros() - begin_us;
            telemetry->trace = rtrace.take();
        }
        return resp;
    }
    try {
        ExecResult result = runRequest(req, cache);
        if (telemetry != nullptr) {
            if (result.program)
                telemetry->backends = backendMix(*result.program);
            (result.cacheHit ? telemetry->cacheHits
                             : telemetry->cacheMisses) += 1;
        }
        resp.output = std::move(result.out);
        resp.profileJson = std::move(result.profileJson);
        resp.cacheHit = result.cacheHit;
        resp.ok = true;
        resp.code = 0;
    } catch (const UserError &e) {
        const Diagnostic diag{Severity::Error, e.message(), e.loc()};
        resp.error += format("pmc: %s\n", diag.str().c_str());
        resp.ok = false;
        resp.code = 1;
    } catch (const InternalError &e) {
        resp.error += format("pmc: %s\n", e.what());
        resp.ok = false;
        resp.code = 2;
    } catch (const std::exception &e) {
        resp.error += format("pmc: internal error: %s\n", e.what());
        resp.ok = false;
        resp.code = 2;
    }
    if (telemetry != nullptr) {
        telemetry->executeMicros =
            obs::TraceRecorder::global().nowMicros() - begin_us;
        telemetry->trace = rtrace.take();
    }
    return resp;
}

} // namespace polymath::service
