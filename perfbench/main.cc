/**
 * @file
 * pmbench: the benchmark's measuring program (perfbench/run.py builds
 * and drives it; see perfbench/README.md).
 *
 *   pmbench run      --workload W --seed N --seconds S  end-to-end metrics
 *   pmbench trace    --workload W --seed N --seconds S  per-layer metrics
 *   pmbench selftest                                    generator checks
 *   pmbench expected                                    digest table
 *
 * run/trace/selftest also take --pmcd <binary> --work <dir>
 * --expected <table>. The last line of run/trace output is the result
 * object {"correct","attempted","failed","metrics"}.
 */
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/json.h"
#include "lower/compile_cache.h"
#include "loadgen.h"
#include "replay.h"
#include "service/exec.h"
#include "service/protocol.h"
#include "universe.h"

using namespace perfbench;

namespace {

/** Rounds per end-to-end run. Each round's timed phase runs on a fresh
 *  daemon for an equal share of the measured seconds; spreading a run
 *  over several processes evens out per-process speed differences. */
constexpr int kRounds = 10;

/** Set-ups per round: the round's own daemon and this many less one
 *  extra daemons that only set up and shut down. A set-up takes
 *  10-35 ms and its time is skewed by host noise, so setup_s comes from
 *  kRounds * kSetupsPerRound samples. */
constexpr int kSetupsPerRound = 3;

struct Options
{
    std::string mode;
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0; ///< required by run and trace
    std::string pmcd;
    std::string work = ".";
    std::string expected;
};

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::runtime_error("usage: pmbench run|trace|selftest|expected "
                                 "[--workload W] [--seed N] [--seconds S] "
                                 "[--pmcd BIN] [--work DIR] "
                                 "[--expected FILE] (run and trace need "
                                 "--workload and --seconds)");
    Options o;
    o.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value after " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            const auto [p, ec] = std::from_chars(
                value.data(), value.data() + value.size(), o.seed);
            if (ec != std::errc{} || p != value.data() + value.size())
                throw std::runtime_error("--seed expects an integer");
        } else if (arg == "--seconds") {
            o.seconds = std::stod(value);
            if (!(o.seconds > 0))
                throw std::runtime_error("--seconds must be positive");
        } else if (arg == "--pmcd") {
            o.pmcd = value;
        } else if (arg == "--work") {
            o.work = value;
        } else if (arg == "--expected") {
            o.expected = value;
        } else {
            throw std::runtime_error("unknown option " + arg);
        }
    }
    return o;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string
number(double v)
{
    char buf[64];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return ec == std::errc{} ? std::string(buf, p) : "0";
}

/**
 * Mean of the better half of per-round values (the higher half when
 * @p higherIsBetter). Noise from other tenants of the host only ever
 * slows a round down, by up to 2x for minutes on a shared 4-vCPU host,
 * so the better half tracks the code's own speed and the slowed rounds
 * do not move the result.
 */
double
betterHalf(std::vector<double> v, bool higherIsBetter)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    if (higherIsBetter)
        std::reverse(v.begin(), v.end());
    const size_t half = (v.size() + 1) / 2;
    double sum = 0;
    for (size_t i = 0; i < half; ++i)
        sum += v[i];
    return sum / static_cast<double>(half);
}

struct Metric
{
    double value;
    const char *unit;
};

void
printResult(bool correct, int64_t attempted, int64_t failed,
            const std::map<std::string, Metric> &metrics)
{
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        if (!first)
            line += ", ";
        first = false;
        line += "\"" + name + "\": {\"value\": " + number(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/** Host CPU time from /proc/stat's "cpu" line, in clock ticks. */
struct CpuTicks
{
    double busy = 0;  ///< user + nice + system + irq + softirq
    double steal = 0; ///< time the hypervisor ran other guests
};

CpuTicks
readCpuTicks()
{
    std::FILE *f = std::fopen("/proc/stat", "r");
    CpuTicks t;
    if (!f)
        return t;
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
        t.busy = static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6]);
        t.steal = static_cast<double>(v[7]);
    }
    std::fclose(f);
    return t;
}

/** Share of the CPU time wanted between @p a and @p b that the
 *  hypervisor gave to other guests instead (0 without /proc/stat). */
double
stealShare(const CpuTicks &a, const CpuTicks &b)
{
    const double steal = b.steal - a.steal;
    const double wanted = b.busy - a.busy + steal;
    return wanted > 0 ? steal / wanted : 0;
}

Workload
workloadOf(const Options &o)
{
    Workload w;
    if (!workloadFromName(o.workload, w))
        throw std::runtime_error("unknown workload '" + o.workload + "'");
    return w;
}

/** Sends @p draws in order through the closed loop. */
PhaseResult
sendAll(Daemon &daemon, const std::vector<Draw> &draws,
        const Expected &expected)
{
    size_t next = 0;
    return daemon.run([&] { return draws[next++]; }, 0,
                      static_cast<int64_t>(draws.size()), expected);
}

int
runMode(const Options &o)
{
    const Workload w = workloadOf(o);
    const Expected expected = loadExpected(o.expected);
    const Shape shape = shapeOf(w);
    const std::vector<Draw> warm = warmup(w);
    Sequence seq(w, o.seed);
    // Per round: kSetupsPerRound set-up times, one daemon's peak RSS,
    // and its timed phase's throughput and median latency. Each
    // round's timings are taken net of the host's steal time: on a
    // shared VM the hypervisor runs other guests for up to half of the
    // time this benchmark wants a CPU, in stretches of minutes, and
    // that share explains most of the run-to-run drift (see
    // STEADINESS.md). A round whose wanted CPU time was stolen at share
    // s counts (1 - s) of its wall time. Timings are then reported as
    // the mean of the better half of the rounds.
    std::vector<double> setups, rss, rps, p50;
    std::string perRound;
    int64_t attempted = 0, failed = 0, samples = 0;
    std::string problem;
    auto note = [&problem](const std::string &p) {
        if (problem.empty() && !p.empty())
            problem = p;
    };
    for (int round = 0; round < kRounds; ++round) {
        const CpuTicks roundStart = readCpuTicks();
        const size_t roundSetups = setups.size();
        for (int extra = 1; extra < kSetupsPerRound; ++extra) {
            const auto t0 = Clock::now();
            Daemon daemon(o.pmcd, o.work + "/pmcd.sock",
                          o.work + "/pmcd.log", shape);
            const PhaseResult warmed = sendAll(daemon, warm, expected);
            setups.push_back(secondsSince(t0));
            const std::string bad = daemon.shutdown(warmed.sent);
            attempted += warmed.sent;
            failed += warmed.failed + (bad.empty() ? 0 : 1);
            note(warmed.firstFailure);
            note(bad);
        }
        const auto t0 = Clock::now();
        Daemon daemon(o.pmcd, o.work + "/pmcd.sock", o.work + "/pmcd.log",
                      shape);
        const PhaseResult warmed = sendAll(daemon, warm, expected);
        setups.push_back(secondsSince(t0));
        const PhaseResult timed = daemon.run(
            [&] { return seq.next(); }, o.seconds / kRounds, -1, expected);
        const double ran = 1 - stealShare(roundStart, readCpuTicks());
        const std::string bad = daemon.shutdown(warmed.sent + timed.sent);
        for (size_t k = roundSetups; k < setups.size(); ++k)
            setups[k] *= ran;
        rss.push_back(daemon.peakRssMb());
        const double wallRps =
            static_cast<double>(timed.sent) / timed.seconds;
        const double wallP50 = quantile(timed.latencyMs, 0.50);
        rps.push_back(wallRps / ran);
        p50.push_back(wallP50 * ran);
        samples += static_cast<int64_t>(timed.latencyMs.size());
        // p99 is printed, not reported: steal arrives in slices of
        // milliseconds, so the tail of a stolen round grows by far more
        // than its steal share and no round-level correction holds it.
        char roundText[96];
        std::snprintf(roundText, sizeof(roundText),
                      " %zu/%.4f/%.1f/%.4f/%.4f", timed.latencyMs.size(),
                      1 - ran, wallRps, wallP50,
                      quantile(timed.latencyMs, 0.99));
        perRound += roundText;
        attempted += warmed.sent + timed.sent;
        failed += warmed.failed + timed.failed + (bad.empty() ? 0 : 1);
        note(warmed.firstFailure);
        note(timed.firstFailure);
        note(bad);
        if (timed.maxInFlight > shape.window)
            problem = "in-flight window exceeded";
    }
    if (!problem.empty())
        std::fprintf(stderr, "pmbench: %s\n", problem.c_str());
    rusage self{};
    ::getrusage(RUSAGE_SELF, &self);
    const double clientCpu =
        static_cast<double>(self.ru_utime.tv_sec + self.ru_stime.tv_sec) +
        static_cast<double>(self.ru_utime.tv_usec + self.ru_stime.tv_usec) /
            1e6;
    std::printf("pmbench: workload=%s seed=%llu rounds=%d setups=%zu "
                "latency_samples=%lld client_cpu_s=%.3f "
                "samples/steal_share/wall_rps/wall_p50_ms/wall_p99_ms "
                "per round:%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                kRounds, setups.size(), static_cast<long long>(samples),
                clientCpu,
                perRound.c_str());
    printResult(problem.empty() && failed == 0, attempted, failed,
                {
                    {"throughput_rps", {betterHalf(rps, true), "1/s"}},
                    {"p50_ms", {betterHalf(p50, false), "ms"}},
                    {"setup_s", {betterHalf(setups, false), "s"}},
                    {"peak_rss_mb", {quantile(rss, 0.5), "MiB"}},
                });
    return 0;
}

/** p50 of the queue-wait histogram in a metrics-verb JSON snapshot. */
double
queueWaitP50(const std::string &metricsJson)
{
    const auto doc = polymath::json::parse(metricsJson);
    const auto &latencies = doc.at("latencies").obj();
    const auto it = latencies.find("service.queue_wait_us");
    return it == latencies.end() ? 0 : it->second.at("p50").num();
}

int
traceMode(const Options &o)
{
    const Workload w = workloadOf(o);
    const Expected expected = loadExpected(o.expected);
    const Shape shape = shapeOf(w);
    // A third of the time on the daemon, two thirds on the replay
    // (which runs every request twice).
    const double slice = o.seconds / 3;

    // Daemon phase: the counters only a live pmcd has (queue wait from
    // the metrics verb, cache behavior from the stats verb), scraped as
    // deltas over the timed requests.
    Daemon daemon(o.pmcd, o.work + "/pmcd.sock", o.work + "/pmcd.log",
                  shape);
    const PhaseResult warmed = sendAll(daemon, warmup(w), expected);
    daemon.control("metrics", ",\"metricsDelta\":true");
    const Reply before = daemon.control("stats");
    Sequence seq(w, o.seed);
    const PhaseResult timed =
        daemon.run([&] { return seq.next(); }, slice, -1, expected);
    const Reply metrics =
        daemon.control("metrics", ",\"metricsDelta\":true");
    const Reply after = daemon.control("stats");
    const std::string bad = daemon.shutdown(warmed.sent + timed.sent);
    auto delta = [&](const char *name) {
        return after.stats.at(name) - before.stats.at(name);
    };
    const double hits = delta("cacheHits");
    const double misses = delta("cacheMisses");

    const ReplayResult r = replay(w, o.seed, 2 * slice, expected);
    writeSpans(r, o.work + "/spans-" + o.workload + ".jsonl", 2000);

    const std::map<std::string, double> layers = layerMetrics(r);
    const std::string mirror = crossCheck(r, layers);
    std::map<std::string, Metric> out;
    for (const auto &[name, value] : layers) {
        const char *unit = "us";
        if (name == "srdfg.nodes" || name == "lower.partitions" ||
            name == "dse.points")
            unit = "count";
        else if (name == "srdfg.arena_bytes" || name == "lower.render_bytes")
            unit = "bytes";
        else if (name.find("ratio") != std::string::npos)
            unit = "ratio";
        out[name] = {value, unit};
    }
    out["service.queue_wait_us"] = {queueWaitP50(metrics.metricsJson), "us"};
    out["lower.cache_hit_ratio"] = {
        hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"};
    out["lower.cache_evictions"] = {
        timed.sent > 0 ? delta("cacheEvictions") * 1000.0 /
                             static_cast<double>(timed.sent)
                       : 0,
        "per_1k_req"};

    std::string problem;
    for (const std::string *p : {&warmed.firstFailure, &timed.firstFailure,
                                 &bad, &r.firstFailure, &mirror}) {
        if (problem.empty() && !p->empty())
            problem = *p;
    }
    if (timed.maxInFlight > shape.window)
        problem = "in-flight window exceeded";
    if (!problem.empty())
        std::fprintf(stderr, "pmbench: %s\n", problem.c_str());
    const int64_t failed = warmed.failed + timed.failed + r.failed +
                           (bad.empty() ? 0 : 1) + (mirror.empty() ? 0 : 1);
    std::printf("pmbench: workload=%s seed=%llu daemon_requests=%lld "
                "replayed_requests=%lld spans=%zu\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<long long>(timed.sent),
                static_cast<long long>(r.requests), r.spans.size());
    printResult(problem.empty() && failed == 0,
                warmed.sent + timed.sent + r.executed, failed, out);
    return 0;
}

int
expectedMode()
{
    polymath::lower::CompileCache cache;
    std::printf("# perfbench expected-output table: responseDigest() of "
                "(exit code, stdout, stderr, profile document)\n"
                "# per program/optimize/verb. Regenerate with "
                "`pmbench expected` only when an output change is "
                "intended.\n");
    for (size_t p = 0; p < universe().size(); ++p) {
        for (const bool opt : {false, true}) {
            for (const Verb v : {Verb::Compile, Verb::Simulate,
                                 Verb::Profile, Verb::Dse}) {
                const Draw d{static_cast<int>(p), opt, v};
                const auto req = polymath::service::Request::fromJson(
                    requestLine(d, 1));
                const auto t0 = Clock::now();
                const auto resp =
                    polymath::service::runRequestGuarded(req, cache);
                const double us = secondsSince(t0) * 1e6;
                std::printf("%s %016llx\n", expectedKey(d).c_str(),
                            static_cast<unsigned long long>(responseDigest(
                                resp.code, resp.output, resp.error,
                                resp.profileJson)));
                std::fprintf(stderr, "%-40s code=%d %10.1f us %8zu bytes\n",
                             expectedKey(d).c_str(), resp.code, us,
                             resp.output.size());
            }
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parseArgs(argc, argv);
        if ((o.mode == "run" || o.mode == "trace") && o.seconds == 0)
            throw std::runtime_error("--seconds is required");
        if (o.mode == "run")
            return runMode(o);
        if (o.mode == "trace")
            return traceMode(o);
        if (o.mode == "selftest")
            return selftest(o.work);
        if (o.mode == "expected")
            return expectedMode();
        throw std::runtime_error("unknown mode " + o.mode);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pmbench: error: %s\n", e.what());
        return 1;
    }
}
