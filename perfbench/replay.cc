#include "replay.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/diagnostics.h"
#include "core/error.h"
#include "core/json.h"
#include "core/strings.h"
#include "dse/dse.h"
#include "lower/compile_cache.h"
#include "lower/lower.h"
#include "obs/trace.h"
#include "passes/pass.h"
#include "pmlang/parser.h"
#include "pmlang/sema.h"
#include "service/exec.h"
#include "service/protocol.h"
#include "soc/soc.h"
#include "srdfg/builder.h"
#include "srdfg/printer.h"
#include "targets/common/backend.h"
#include "targets/common/cost_ledger.h"

namespace perfbench {

namespace pm = polymath;
using pm::service::Request;
using pm::service::Response;

namespace {

const char *
layerName(Layer layer)
{
    static const char *names[] = {
        "request",          "service.decode",    "service.execute",
        "service.preflight", "service.encode",   "lower.registry",
        "lower.cache_key",  "lower.cache_lookup", "pmlang.parse",
        "pmlang.sema",      "srdfg.build",       "passes.fixpoint",
        "lower.alg1",       "lower.alg2",        "lower.render",
        "soc.setup",        "soc.execute",       "targets.profile",
        "dse.explore",      "probe",
    };
    static_assert(sizeof(names) / sizeof(names[0]) ==
                  static_cast<size_t>(Layer::Count));
    return names[static_cast<size_t>(layer)];
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** In-memory span sink of the traced replay. */
struct Tracer
{
    std::vector<SpanRecord> spans;
    int32_t current = -1;
    int32_t request = 0;
};

/** Records one span from construction to destruction. */
class Scope
{
  public:
    Scope(Tracer &t, Layer layer) : t_(t)
    {
        index_ = static_cast<int32_t>(t.spans.size());
        t.spans.push_back({0, 0, t.current, t.request, layer});
        t.current = index_;
        t.spans.back().startNs = nowNs();
    }
    ~Scope()
    {
        t_.spans[index_].endNs = nowNs();
        t_.current = t_.spans[index_].parent;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int32_t index_ = 0;
};

/** The layers the program itself wraps in an obs::Span, by span name. */
constexpr std::pair<const char *, Layer> kProgramSpans[] = {
    {"pmlang:parse", Layer::Parse},     {"pmlang:sema", Layer::Sema},
    {"srdfg:build", Layer::Build},      {"pass:fixpoint", Layer::Fixpoint},
    {"lower:graph", Layer::Alg1},       {"lower:compile", Layer::Alg2},
    {"soc:execute", Layer::SocExecute},
};

/** The outermost spans of each kProgramSpans name in @p trace. A span
 *  inside another of its name (lowerGraph recursing into a component's
 *  subgraph) is part of that call; spans are appended as they close, so
 *  of two with equal whole-µs bounds the later one is the outer. */
ProgramSpans
programSpans(const std::vector<pm::obs::TraceEvent> &trace)
{
    ProgramSpans out;
    for (const auto &[name, layer] : kProgramSpans) {
        for (size_t j = 0; j < trace.size(); ++j) {
            const auto &ev = trace[j];
            if (ev.ph != 'X' || ev.name != name)
                continue;
            bool outermost = true;
            for (size_t k = j + 1; k < trace.size() && outermost; ++k) {
                const auto &o = trace[k];
                outermost = !(o.ph == 'X' && o.name == name &&
                              o.ts <= ev.ts &&
                              ev.ts + ev.dur <= o.ts + o.dur);
            }
            if (outermost) {
                out.count[static_cast<size_t>(layer)] += 1;
                out.us[static_cast<size_t>(layer)] += ev.dur;
            }
        }
    }
    return out;
}

/** Reads "<name>=<integer>" out of ir::graphStats' text. */
int64_t
statField(const std::string &stats, const std::string &name)
{
    const size_t at = stats.find(name + "=");
    return at == std::string::npos
               ? 0
               : std::stoll(stats.substr(at + name.size() + 1));
}

/**
 * service::runRequest with a span around each layer call. It must keep
 * making the same calls in the same order as service/exec.cc; the
 * digest check on every traced response holds it to the same bytes.
 */
pm::service::ExecResult
tracedRun(const Request &req, pm::lower::CompileCache &cache, Tracer &t,
          RequestFacts &facts)
{
    using pm::service::Verb;
    if (req.schedule || req.faultRate != 0)
        throw std::runtime_error("the traced replay does not mirror "
                                 "schedule or fault requests");
    if (req.target.empty())
        pm::fatal("a " + std::string(toString(req.verb)) +
                  " request needs a target domain (RBT|GA|DSP|DA|DL|ALL)");
    const bool simulate =
        req.verb == Verb::Simulate || req.verb == Verb::Profile;
    const bool profile = req.verb == Verb::Profile;
    const bool want_doc = profile || req.profileDoc;

    const auto domain = pm::service::domainFromKeyword(req.target);
    std::optional<pm::lower::AcceleratorRegistry> registry;
    {
        Scope s(t, Layer::Registry);
        registry.emplace(pm::target::standardRegistry());
    }
    pm::ir::BuildOptions build;
    build.entry = req.entry;
    build.paramConsts = req.params;
    std::string key;
    {
        Scope s(t, Layer::CacheKey);
        key = pm::lower::compileCacheKey(
            req.source, build, domain, *registry,
            req.optimize ? "optimize=1" : "optimize=0");
    }
    pm::service::ExecResult result;
    bool compiled_here = false;
    {
        Scope s(t, Layer::CacheLookup);
        result.program = cache.getOrCompile(key, [&] {
            compiled_here = true;
            std::shared_ptr<const pm::lang::Program> program;
            {
                Scope p(t, Layer::Parse);
                program = std::make_shared<const pm::lang::Program>(
                    pm::lang::parse(req.source));
            }
            {
                Scope p(t, Layer::Sema);
                pm::lang::analyze(*program, build.entry);
            }
            std::unique_ptr<pm::ir::Graph> fresh;
            {
                Scope p(t, Layer::Build);
                fresh = pm::ir::buildSrdfg(std::move(program), build);
            }
            {
                Scope p(t, Layer::Probe);
                const std::string stats = pm::ir::graphStats(*fresh);
                facts.nodes = statField(stats, "nodes");
                facts.arenaBytes = statField(stats, "arena_bytes");
            }
            if (req.optimize) {
                std::vector<pm::pass::PassResult> passes;
                {
                    Scope p(t, Layer::Fixpoint);
                    passes =
                        pm::pass::standardPipeline().runToFixpoint(*fresh);
                }
                for (const auto &r : passes) {
                    facts.passMicros[r.name] += r.micros;
                    facts.passApplications += 1;
                    facts.passChanged += r.changed ? 1 : 0;
                }
            }
            {
                Scope p(t, Layer::Alg1);
                pm::lower::lowerGraph(*fresh,
                                      registry->supportedOpsByDomain(),
                                      domain);
            }
            Scope p(t, Layer::Alg2);
            return pm::lower::compileProgram(*fresh, *registry, domain);
        });
    }
    result.cacheHit = !compiled_here;
    facts.hit = !compiled_here;
    facts.compiled = compiled_here;
    const pm::lower::CompiledProgram &compiled = *result.program;
    if (compiled_here)
        facts.partitions = static_cast<int64_t>(compiled.partitions.size());

    if (req.verb == Verb::Dse) {
        pm::dse::SearchOptions opts;
        opts.space = pm::dse::ConfigSpace::kindFromString(req.dseSpace);
        opts.driver =
            pm::dse::SearchOptions::driverFromString(req.dseSearch);
        opts.samples = req.dseSamples;
        opts.rounds = req.dseRounds;
        opts.seed = req.dseSeed;
        opts.jobs = 1;
        pm::target::WorkloadProfile workload;
        workload.invocations = req.invocations;
        std::vector<pm::dse::WorkloadStudy> studies;
        std::set<std::string> swept;
        for (const auto &partition : compiled.partitions) {
            if (!pm::dse::ConfigSpace::searchable(partition.accel) ||
                !swept.insert(partition.accel).second)
                continue;
            Scope s(t, Layer::Explore);
            studies.push_back(pm::dse::explore(
                req.file, partition.accel,
                pm::dse::partitionsFor(compiled, partition.accel),
                workload, opts));
            facts.dsePoints += studies.back().evaluated();
        }
        if (studies.empty())
            pm::fatal("dse: the compiled program has no partitions on a "
                      "searchable accelerator");
        for (const auto &study : studies)
            result.out += pm::dse::frontTable(study) + "\n";
        result.out += "best configs:\n" + pm::dse::bestTable(studies);
        return result;
    }

    {
        std::string text;
        {
            Scope s(t, Layer::Render);
            text = compiled.str();
        }
        facts.renderBytes = static_cast<int64_t>(text.size());
        result.out += text;
    }
    if (!simulate)
        return result;

    if (want_doc)
        pm::target::setProfilingEnabled(true);
    std::optional<pm::soc::SocRuntime> runtime;
    {
        Scope s(t, Layer::SocSetup);
        runtime.emplace();
    }
    pm::target::WorkloadProfile workload;
    workload.invocations = req.invocations;
    std::optional<pm::soc::SocResult> sim;
    {
        Scope s(t, Layer::SocExecute);
        sim.emplace(runtime->execute(compiled, workload));
    }
    result.out += pm::format("simulated: %s\n", sim->total.str().c_str());
    if (profile || want_doc) {
        Scope s(t, Layer::Profile);
        if (profile) {
            for (size_t pi = 0; pi < sim->partitions.size(); ++pi) {
                result.out += pm::format("partition %zu ", pi);
                result.out += pm::target::profileTable(
                    sim->partitions[pi], static_cast<int>(req.profileTop));
            }
        }
        if (want_doc) {
            std::string doc = "{\"schema\":\"polymath-profile/1\"";
            doc += ",\"file\":" + pm::json::quote(req.file);
            doc += ",\"partitions\":[";
            for (size_t pi = 0; pi < sim->partitions.size(); ++pi) {
                if (pi)
                    doc += ",";
                doc += pm::target::profileJson(sim->partitions[pi]);
            }
            doc += "],\"total\":" + pm::target::profileJson(sim->total) +
                   "}\n";
            result.profileJson = std::move(doc);
        }
    }
    return result;
}

/** service::runRequestGuarded over tracedRun, capturing the program's
 *  own spans as the daemon's telemetry does (they are discarded). */
Response
tracedGuarded(const Request &req, pm::lower::CompileCache &cache, Tracer &t,
              RequestFacts &facts)
{
    Response resp;
    resp.id = req.id;
    pm::obs::RequestTrace programTrace(req.requestId);
    pm::obs::RequestTraceScope programScope(programTrace);
    {
        Scope s(t, Layer::Preflight);
        if (pm::service::preflightDiagnostics(req.source, resp.error)) {
            resp.ok = false;
            resp.code = 1;
            return resp;
        }
    }
    try {
        auto result = tracedRun(req, cache, t, facts);
        resp.output = std::move(result.out);
        resp.profileJson = std::move(result.profileJson);
        resp.cacheHit = result.cacheHit;
        resp.ok = true;
        resp.code = 0;
    } catch (const pm::UserError &e) {
        const pm::Diagnostic diag{pm::Severity::Error, e.message(), e.loc()};
        resp.error += pm::format("pmc: %s\n", diag.str().c_str());
        resp.ok = false;
        resp.code = 1;
    } catch (const pm::InternalError &e) {
        resp.error += pm::format("pmc: %s\n", e.what());
        resp.ok = false;
        resp.code = 2;
    } catch (const std::exception &e) {
        resp.error += pm::format("pmc: internal error: %s\n", e.what());
        resp.ok = false;
        resp.code = 2;
    }
    return resp;
}

std::string
checkResponse(const Draw &d, const Response &r, const Expected &expected)
{
    if (!r.ok)
        return "not ok: " + r.error;
    return checkOutput(d, r.code, r.output, r.error, r.profileJson,
                       expected);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

} // namespace

ReplayResult
replay(Workload workload, uint64_t seed, double seconds,
       const Expected &expected)
{
    const Shape shape = shapeOf(workload);
    ReplayResult out;
    auto fail = [&out](const Draw &d, const std::string &bad) {
        ++out.failed;
        if (out.firstFailure.empty())
            out.firstFailure = expectedKey(d) + ": " + bad;
    };

    // Each request runs twice, untraced (runRequestGuarded with the
    // trace capture a daemon worker with telemetry on asks for) and
    // traced, against two caches that see the same requests and so stay
    // in the same state. The two runs alternate which goes first and sit
    // side by side in time, so host speed drift and cache warmth fall on
    // both alike.
    pm::lower::CompileCache plain, traced;
    plain.setCapacity(shape.cacheEntries);
    traced.setCapacity(shape.cacheEntries);
    for (auto *cache : {&plain, &traced}) {
        for (const Draw &d : warmup(workload)) {
            const auto req = Request::fromJson(requestLine(d, 0));
            const std::string bad = checkResponse(
                d, pm::service::runRequestGuarded(req, *cache), expected);
            ++out.executed;
            if (!bad.empty())
                fail(d, "warm-up: " + bad);
        }
    }
    Tracer t;
    Sequence seq(workload, seed);
    const int64_t start = nowNs();
    const int64_t budget = static_cast<int64_t>(seconds * 1e9);
    for (int32_t i = 0; nowNs() - start < budget; ++i) {
        const Draw d = seq.next();
        const std::string line = requestLine(d, i + 1);
        auto runPlain = [&] {
            const int64_t t0 = nowNs();
            const Request req = Request::fromJson(line);
            const int64_t t1 = nowNs();
            pm::service::RequestTelemetry telem;
            telem.requestId = req.requestId;
            telem.captureTrace = true;
            const Response resp =
                pm::service::runRequestGuarded(req, plain, &telem);
            const int64_t t2 = nowNs();
            const std::string wire = resp.json();
            const int64_t t3 = nowNs();
            out.untracedNs.push_back(static_cast<double>(t3 - t0));
            out.untracedGuardedNs.push_back(static_cast<double>(t2 - t1));
            out.program.push_back(programSpans(telem.trace));
            const std::string bad = checkResponse(d, resp, expected);
            if (!bad.empty())
                fail(d, bad);
        };
        auto runTraced = [&] {
            t.request = i;
            out.facts.emplace_back();
            Response resp;
            {
                Scope root(t, Layer::Request);
                std::optional<Request> req;
                {
                    Scope s(t, Layer::Decode);
                    req.emplace(Request::fromJson(line));
                }
                {
                    Scope s(t, Layer::Execute);
                    resp = tracedGuarded(*req, traced, t, out.facts.back());
                }
                Scope s(t, Layer::Encode);
                const std::string wire = resp.json();
            }
            const std::string bad = checkResponse(d, resp, expected);
            if (!bad.empty())
                fail(d, "traced: " + bad);
        };
        if (i % 2 == 0) {
            runPlain();
            runTraced();
        } else {
            runTraced();
            runPlain();
        }
        out.requests = i + 1;
        out.executed += 2;
    }
    out.spans = std::move(t.spans);
    return out;
}

std::map<std::string, double>
layerMetrics(const ReplayResult &r)
{
    const size_t n = static_cast<size_t>(r.requests);
    // Per request and layer: summed self time (ns) and whether present.
    std::vector<std::array<double, kLayers>> self(n);
    std::vector<std::array<bool, kLayers>> seen(n);
    std::vector<double> rootNs(n, 0), execNs(n, 0);
    for (size_t i = 0; i < n; ++i) {
        self[i].fill(0);
        seen[i].fill(false);
    }
    std::vector<double> childNs(r.spans.size(), 0);
    for (const auto &s : r.spans) {
        if (s.parent >= 0)
            childNs[s.parent] += static_cast<double>(s.endNs - s.startNs);
    }
    for (size_t k = 0; k < r.spans.size(); ++k) {
        const auto &s = r.spans[k];
        const size_t li = static_cast<size_t>(s.layer);
        const double dur = static_cast<double>(s.endNs - s.startNs);
        self[s.request][li] += dur - childNs[k];
        seen[s.request][li] = true;
        if (s.layer == Layer::Request)
            rootNs[s.request] = dur;
        if (s.layer == Layer::Execute)
            execNs[s.request] = dur;
    }

    auto at = [](const auto &row, Layer l) {
        return row[static_cast<size_t>(l)];
    };
    // Median self time in µs over the requests that entered the layer
    // (and pass @p keep); 0 when none did.
    auto layerUs = [&](Layer l, auto keep) {
        std::vector<double> v;
        for (size_t i = 0; i < n; ++i) {
            if (at(seen[i], l) && keep(i))
                v.push_back(at(self[i], l) / 1000.0);
        }
        return median(v);
    };
    auto all = [](size_t) { return true; };
    auto factMedian = [&](auto get) {
        std::vector<double> v;
        for (size_t i = 0; i < n; ++i) {
            if (r.facts[i].compiled)
                v.push_back(static_cast<double>(get(r.facts[i])));
        }
        return median(v);
    };

    std::map<std::string, double> m;
    m["service.decode_us"] = layerUs(Layer::Decode, all);
    m["service.encode_us"] = layerUs(Layer::Encode, all);
    m["service.preflight_us"] = layerUs(Layer::Preflight, all);
    m["lower.registry_us"] = layerUs(Layer::Registry, all);
    m["lower.cache_key_us"] = layerUs(Layer::CacheKey, all);
    m["lower.cache_lookup_us"] =
        layerUs(Layer::CacheLookup, [&](size_t i) { return r.facts[i].hit; });
    m["lower.render_us"] = layerUs(Layer::Render, all);
    m["pmlang.parse_us"] = layerUs(Layer::Parse, all);
    m["pmlang.sema_us"] = layerUs(Layer::Sema, all);
    m["srdfg.build_us"] = layerUs(Layer::Build, all);
    m["lower.alg1_us"] = layerUs(Layer::Alg1, all);
    m["lower.alg2_us"] = layerUs(Layer::Alg2, all);
    m["soc.setup_us"] = layerUs(Layer::SocSetup, all);
    m["soc.execute_us"] = layerUs(Layer::SocExecute, all);
    m["targets.profile_us"] = layerUs(Layer::Profile, all);
    m["dse.explore_us"] = layerUs(Layer::Explore, all);

    // The passes' own timings come from PassResult::micros, so the
    // fixpoint span's self time excludes them.
    std::vector<double> fixSelf;
    std::map<std::string, std::vector<double>> perPass;
    int64_t applications = 0, changed = 0;
    for (size_t i = 0; i < n; ++i) {
        const auto &f = r.facts[i];
        applications += f.passApplications;
        changed += f.passChanged;
        if (!at(seen[i], Layer::Fixpoint))
            continue;
        double passNs = 0;
        for (const auto &[name, us] : f.passMicros) {
            perPass[name].push_back(static_cast<double>(us));
            passNs += static_cast<double>(us) * 1000.0;
        }
        fixSelf.push_back((at(self[i], Layer::Fixpoint) - passNs) / 1000.0);
    }
    m["passes.fixpoint_us"] = median(fixSelf);
    for (const char *name : {"constant-folding", "simplify", "cse",
                             "algebraic-combination", "dce"}) {
        std::string metric = std::string("passes.") + name + "_us";
        std::replace(metric.begin(), metric.end(), '-', '_');
        const auto it = perPass.find(name);
        m[metric] = it == perPass.end() ? 0 : median(it->second);
    }
    m["passes.changed_ratio"] =
        applications == 0 ? 0
                          : static_cast<double>(changed) /
                                static_cast<double>(applications);

    m["srdfg.nodes"] = factMedian([](const RequestFacts &f) { return f.nodes; });
    m["srdfg.arena_bytes"] =
        factMedian([](const RequestFacts &f) { return f.arenaBytes; });
    m["lower.partitions"] =
        factMedian([](const RequestFacts &f) { return f.partitions; });
    {
        std::vector<double> bytes, points;
        for (size_t i = 0; i < n; ++i) {
            if (at(seen[i], Layer::Render))
                bytes.push_back(static_cast<double>(r.facts[i].renderBytes));
            if (at(seen[i], Layer::Explore))
                points.push_back(static_cast<double>(r.facts[i].dsePoints));
        }
        m["lower.render_bytes"] = median(bytes);
        m["dse.points"] = median(points);
    }

    // Unattributed: the untraced guarded time minus what the traced
    // layer spans under it account for (probe time excluded).
    std::vector<double> unattributed, traced;
    for (size_t i = 0; i < n; ++i) {
        const double probe = at(self[i], Layer::Probe);
        const double spanned = execNs[i] - at(self[i], Layer::Execute) - probe;
        unattributed.push_back((r.untracedGuardedNs[i] - spanned) / 1000.0);
        traced.push_back(rootNs[i] - probe);
    }
    m["service.unattributed_us"] = median(unattributed);
    const double untracedMedian = median(r.untracedNs);
    m["obs.trace_overhead_ratio"] =
        untracedMedian > 0 ? median(traced) / untracedMedian - 1 : 0;
    return m;
}

std::string
crossCheck(const ReplayResult &r, const std::map<std::string, double> &metrics)
{
    // Per request and program-spanned layer: the copy's span count and
    // summed whole duration (ns).
    const size_t n = static_cast<size_t>(r.requests);
    std::vector<ProgramSpans> copy(n);
    std::vector<std::array<double, kLayers>> copyNs(n);
    for (auto &row : copyNs)
        row.fill(0);
    for (const auto &s : r.spans) {
        const size_t li = static_cast<size_t>(s.layer);
        copy[s.request].count[li] += 1;
        copyNs[s.request][li] += static_cast<double>(s.endNs - s.startNs);
    }
    for (const auto &[name, layer] : kProgramSpans) {
        const size_t li = static_cast<size_t>(layer);
        std::vector<double> copyUs, programUs;
        for (size_t i = 0; i < n; ++i) {
            if (copy[i].count[li] != r.program[i].count[li])
                return pm::format("request %zu: the copy entered %s %d "
                                  "time(s), runRequest %d",
                                  i, layerName(layer), copy[i].count[li],
                                  r.program[i].count[li]);
            if (copy[i].count[li] > 0) {
                copyUs.push_back(copyNs[i][li] / 1000.0);
                programUs.push_back(static_cast<double>(r.program[i].us[li]));
            }
        }
        // Both sides time the same call on identically warmed state, so
        // their medians over a run differ by noise and by the program's
        // whole-µs truncation; a gap past this means the calls differ.
        const double c = median(copyUs), p = median(programUs);
        if (std::abs(c - p) > std::max(5.0, 0.25 * std::max(c, p)))
            return pm::format("%s: the copy's median %.1f us, runRequest's "
                              "span %s median %.1f us",
                              layerName(layer), c, name, p);
    }
    // Work runRequest stopped doing that the copy still times shows up
    // as negative unattributed time.
    const double guardedUs = median(r.untracedGuardedNs) / 1000.0;
    const double unattributed = metrics.at("service.unattributed_us");
    if (unattributed < -std::max(5.0, 0.05 * guardedUs))
        return pm::format("service.unattributed_us is %.1f us against an "
                          "untraced median of %.1f us: the copy times work "
                          "runRequestGuarded does not do",
                          unattributed, guardedUs);
    return "";
}

void
writeSpans(const ReplayResult &r, const std::string &path,
           int64_t maxRequests)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    for (const auto &s : r.spans) {
        if (s.request >= maxRequests)
            break;
        out << "{\"request\":" << s.request << ",\"name\":\""
            << layerName(s.layer) << "\",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
            << "}\n";
    }
}

} // namespace perfbench
