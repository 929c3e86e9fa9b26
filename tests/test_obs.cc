/**
 * @file
 * Observability tests: span recording/nesting, the zero-cost disabled
 * path, counter/histogram atomicity under the thread pool, Chrome-trace
 * export structure, the virtual SoC timeline, fault metrics vs. the
 * ReliabilityReport, and -j1 == -jN span-count determinism over the
 * Table III suite (docs/OBSERVABILITY.md).
 */
#include <algorithm>
#include <gtest/gtest.h>
#include <map>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "driver.h"
#include "lower/compile_cache.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "soc/soc.h"
#include "targets/common/backend.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

// --- spans -------------------------------------------------------------------

TEST(Trace, SpansRecordOnDestructionInnermostFirst)
{
    obs::TraceRecorder rec;
    rec.setEnabled(true);
    {
        obs::Span outer("outer", "test", rec);
        {
            obs::Span inner("inner", "test", rec);
            inner.arg("k", int64_t{7});
        }
        outer.arg("s", std::string("v"));
    }
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].name, "inner"); // destroyed (recorded) first
    EXPECT_EQ(events[1].name, "outer");
    EXPECT_EQ(events[0].ph, 'X');
    EXPECT_EQ(events[0].pid, obs::kRealPid);
    // The inner span nests inside the outer on the timeline.
    EXPECT_GE(events[0].ts, events[1].ts);
    EXPECT_LE(events[0].ts + events[0].dur,
              events[1].ts + events[1].dur);
    ASSERT_EQ(events[0].args.size(), 1u);
    EXPECT_EQ(events[0].args[0].key, "k");
    EXPECT_EQ(events[0].args[0].value, "7");
    EXPECT_TRUE(events[0].args[0].numeric);
    ASSERT_EQ(events[1].args.size(), 1u);
    EXPECT_FALSE(events[1].args[0].numeric);
}

TEST(Trace, DisabledRecorderIsZeroEventNoOp)
{
    obs::TraceRecorder rec; // disabled by default
    {
        obs::Span span("never", "test", rec);
        EXPECT_FALSE(span.active());
        span.arg("k", int64_t{1});
        span.rename("still-never");
    }
    rec.instant("nope", "test");
    rec.completeReal("nope", "test", 0, 1);
    rec.virtualSpan("nope", "test", 0, 0.0, 1.0);
    EXPECT_EQ(rec.eventCount(), 0u);
}

TEST(Trace, EnableDisableGatesRecording)
{
    obs::TraceRecorder rec;
    rec.setEnabled(true);
    rec.instant("on", "test");
    rec.setEnabled(false);
    rec.instant("off", "test");
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "on");
    EXPECT_EQ(events[0].ph, 'i');
}

TEST(Trace, VirtualSpansConvertSecondsToMicros)
{
    obs::TraceRecorder rec;
    rec.setEnabled(true);
    const int64_t track = rec.newVirtualTrack();
    EXPECT_NE(rec.newVirtualTrack(), track); // tracks are distinct
    rec.virtualSpan("compute", "soc", track, 1.5, 0.25);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].pid, obs::kVirtualPid);
    EXPECT_EQ(events[0].tid, track);
    EXPECT_EQ(events[0].ts, 1'500'000);
    EXPECT_EQ(events[0].dur, 250'000);
}

TEST(Trace, ThreadRankIsStablePerThreadAndDenseAcrossThreads)
{
    const int64_t here = obs::TraceRecorder::threadRank();
    EXPECT_EQ(obs::TraceRecorder::threadRank(), here);
    const auto ranks = core::parallelMap(
        4, 8, [](int64_t) { return obs::TraceRecorder::threadRank(); });
    for (const int64_t rank : ranks)
        EXPECT_GE(rank, 0);
}

// --- metrics -----------------------------------------------------------------

TEST(Metrics, CountersAreAtomicUnderThePool)
{
    obs::MetricsRegistry registry;
    auto &counter = registry.counter("n");
    core::parallelMap(8, 1000, [&](int64_t) {
        counter.add(1);
        return 0;
    });
    EXPECT_EQ(counter.value(), 1000);
    // Lookup returns the same counter, not a new one.
    EXPECT_EQ(registry.counter("n").value(), 1000);
}

TEST(Metrics, HistogramTracksCountSumMinMaxUnderThePool)
{
    obs::MetricsRegistry registry;
    auto &hist = registry.histogram("h");
    core::parallelMap(8, 100, [&](int64_t i) {
        hist.observe(i + 1); // 1..100
        return 0;
    });
    const auto stats = registry.snapshot().histograms.at("h");
    EXPECT_EQ(stats.count, 100);
    EXPECT_EQ(stats.sum, 5050);
    EXPECT_EQ(stats.min, 1);
    EXPECT_EQ(stats.max, 100);
    EXPECT_DOUBLE_EQ(stats.mean(), 50.5);
}

TEST(Metrics, SnapshotIsAssertFriendlyAndResettable)
{
    obs::MetricsRegistry registry;
    registry.counter("c").add(3);
    registry.gauge("g").set(2.5);
    auto snap = registry.snapshot();
    EXPECT_EQ(snap.counter("c"), 3);
    EXPECT_EQ(snap.counter("absent"), 0);
    EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.5);
    EXPECT_EQ(snap.str().rfind("c", 0), 0u); // name column first
    EXPECT_NE(snap.str().find(" 3\n"), std::string::npos);
    EXPECT_NE(snap.json().find("\"counters\""), std::string::npos);
    registry.reset();
    EXPECT_EQ(registry.snapshot().counter("c"), 0);
}

// --- Chrome-trace export -----------------------------------------------------

TEST(Export, ChromeTraceJsonHasRequiredKeysAndBalancedBraces)
{
    obs::TraceRecorder rec;
    rec.setEnabled(true);
    {
        obs::Span span("quoted \"name\" \\ with\nnewline", "cat", rec);
        span.arg("note", std::string("tab\there"));
        span.arg("n", int64_t{-4});
    }
    rec.virtualSpan("compute", "soc", rec.newVirtualTrack(), 0.0, 0.5);
    rec.instant("mark", "cat");

    const std::string json = obs::chromeTraceJson(rec);
    for (const char *key :
         {"\"traceEvents\"", "\"ph\"", "\"ts\"", "\"pid\"", "\"tid\"",
          "\"dur\"", "\"name\"", "\"cat\"", "\"args\"",
          "\"process_name\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    // Control characters and quotes inside strings must be escaped; the
    // only raw newlines are the exporter's own event separators.
    EXPECT_EQ(json.find('\t'), std::string::npos);
    EXPECT_NE(json.find("\\\"name\\\""), std::string::npos);
    EXPECT_NE(json.find("with\\nnewline"), std::string::npos);
    EXPECT_NE(json.find("tab\\there"), std::string::npos);
    const auto count = [&](char c) {
        return std::count(json.begin(), json.end(), c);
    };
    EXPECT_EQ(count('{'), count('}'));
    EXPECT_EQ(count('['), count(']'));
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

/** A fixed trace: a span with string/numeric args needing escapes, an
 *  instant without a category, and a virtual-track name. */
std::vector<obs::TraceEvent>
pinnedEvents()
{
    obs::TraceEvent span;
    span.name = "compile \"a\\b\"\n";
    span.cat = "frontend";
    span.tid = 3;
    span.ts = 1200;
    span.dur = 345;
    span.args = {obs::TraceArg::num("bytes", -17),
                 obs::TraceArg::str("file", "x\ty.pm")};
    obs::TraceEvent instant;
    instant.name = "mark";
    instant.ph = 'i';
    instant.ts = 9;
    obs::TraceEvent track;
    track.name = "thread_name";
    track.ph = 'M';
    track.pid = obs::kVirtualPid;
    track.tid = 4;
    track.args = {obs::TraceArg::str("name", "DECO")};
    return {span, instant, track};
}

TEST(Export, ChromeTraceBytesArePinned)
{
    obs::TraceRecorder rec;
    rec.setEnabled(true);
    for (auto &event : pinnedEvents())
        rec.record(std::move(event));
    EXPECT_EQ(obs::chromeTraceJson(rec),
              R"json({"displayTimeUnit":"ms",)json"
              R"json("traceEvents":[{"name":"process_name","ph":"M",)json"
              R"json("pid":1,"tid":0,)json"
              R"json("args":{"name":"polymath (wall clock)"}},)json"
              R"json({"name":"process_name","ph":"M","pid":2,"tid":0,)json"
              R"json("args":{"name":"polymath SoC (virtual time)"}},)json" "\n"
              R"json({"name":"compile \"a\\b\"\n","cat":"frontend",)json"
              R"json("ph":"X","pid":1,"tid":3,"ts":1200,"dur":345,)json"
              R"json("args":{"bytes":-17,"file":"x\ty.pm"}},)json" "\n"
              R"json({"name":"mark","ph":"i","pid":1,"tid":0,"ts":9,)json"
              R"json("s":"t"},)json" "\n"
              R"json({"name":"thread_name","ph":"M","pid":2,"tid":4,)json"
              R"json("ts":0,"args":{"name":"DECO"}}]})json" "\n");
}

TEST(Metrics, SnapshotJsonBytesArePinned)
{
    obs::MetricsSnapshot snap;
    snap.counters = {{"service.requests", 12}, {"z.neg", -3}};
    snap.gauges = {{"cache.ratio", 0.1}, {"big", 1e300}, {"zero", 0.0}};
    obs::HistogramStats h;
    h.count = 3;
    h.sum = 7;
    h.min = -1;
    h.max = 6;
    h.underflow = 1;
    snap.histograms = {{"pass.dce.micros", h}, {"empty", {}}};
    obs::LatencyStats l;
    l.count = 4;
    l.sum = 1001;
    l.min = 2;
    l.max = 990;
    l.p50 = 4.5;
    l.p99 = 989.30000000000007;
    l.p999 = 990;
    snap.latencies = {{"service.request.execute_us", l}};
    EXPECT_EQ(snap.json(),
              R"json({"counters":{"service.requests":12,"z.neg":-3},)json"
              R"json("gauges":{"big":1.0000000000000001e+300,)json"
              R"json("cache.ratio":0.10000000000000001,"zero":0},)json"
              R"json("histograms":{"empty":{"count":0,"sum":0,"min":0,)json"
              R"json("max":0,"mean":0,"underflow":0},)json"
              R"json("pass.dce.micros":{"count":3,"sum":7,"min":-1,)json"
              R"json("max":6,"mean":2.3333333333333335,"underflow":1}},)json"
              R"json("latencies":{"service.request.execute_us":{)json"
              R"json("count":4,"sum":1001,"min":2,"max":990,"underflow":0,)json"
              R"json("p50":4.5,"p99":989.30000000000007,"p999":990}}})json");
    EXPECT_EQ(obs::MetricsSnapshot{}.json(),
              R"json({"counters":{},"gauges":{},"histograms":{},)json"
              R"json("latencies":{}})json");
}

// --- the instrumented stack --------------------------------------------------

/** Compiles + SoC-executes the Table III suite under the global recorder
 *  with @p jobs workers, returning per-name span counts. */
std::map<std::string, int64_t>
suiteSpanCounts(int jobs)
{
    // Force the lazily-built workload table first: its one-time
    // construction parses benchmark sources, which would otherwise show
    // up as extra frontend spans in whichever run happens to be first.
    wl::tableIII();
    auto &rec = obs::TraceRecorder::global();
    lower::CompileCache::global().clear();
    rec.clear();
    rec.setEnabled(true);
    {
        bench::DriverOptions options;
        options.jobs = jobs;
        const bench::Driver driver(options);
        const auto registry = target::standardRegistry();
        driver.mapTableIII(
            registry, [](const wl::Benchmark &bench,
                         const lower::CompiledProgram &program) {
                const soc::SocRuntime runtime;
                runtime.execute(program, bench.profile);
                return 0;
            });
    }
    rec.setEnabled(false);
    std::map<std::string, int64_t> counts;
    for (const auto &event : rec.snapshot()) {
        // cache:coalesced-wait is the one timing-dependent span: whether
        // a cache hit blocks on an in-flight compile depends on thread
        // interleaving, so it is excluded from the determinism contract
        // (docs/OBSERVABILITY.md).
        if (event.name != "cache:coalesced-wait")
            ++counts[event.name];
    }
    rec.clear();
    return counts;
}

TEST(Instrumentation, SuiteSpanCountsAreIdenticalAcrossJobs)
{
    const auto serial = suiteSpanCounts(1);
    const auto parallel = suiteSpanCounts(4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    // The whole stack shows up: frontend, passes, lowering, per-partition
    // compiles, backend scheduling, SoC execution, and driver jobs.
    for (const char *name :
         {"pmlang:parse", "pmlang:sema", "srdfg:build", "pass:fixpoint",
          "lower:graph", "lower:compile", "backend:simulate",
          "soc:execute", "driver:job"}) {
        EXPECT_TRUE(serial.count(name) > 0) << name;
    }
}

TEST(Instrumentation, UntracedSuiteRunRecordsNothing)
{
    auto &rec = obs::TraceRecorder::global();
    rec.setEnabled(false);
    rec.clear();
    lower::CompileCache::global().clear();
    const auto registry = target::standardRegistry();
    const auto &bench = wl::tableIII().front();
    const auto program = wl::compileBenchmarkCached(
        bench.source, bench.buildOpts, registry, bench.domain,
        lower::CompileCache::global());
    const soc::SocRuntime runtime;
    runtime.execute(*program, bench.profile);
    EXPECT_EQ(rec.eventCount(), 0u);
}

TEST(Instrumentation, SocLaysDmaAndComputeOnTheVirtualTimeline)
{
    auto &rec = obs::TraceRecorder::global();
    lower::CompileCache::global().clear();
    rec.clear();
    rec.setEnabled(true);
    const auto registry = target::standardRegistry();
    const auto &bench = wl::tableIII().front();
    const auto program = wl::compileBenchmarkCached(
        bench.source, bench.buildOpts, registry, bench.domain,
        lower::CompileCache::global());
    const soc::SocRuntime runtime;
    const auto result = runtime.execute(*program, bench.profile);
    rec.setEnabled(false);

    std::vector<obs::TraceEvent> virt;
    for (const auto &event : rec.snapshot()) {
        if (event.pid == obs::kVirtualPid && event.ph == 'X')
            virt.push_back(event);
    }
    rec.clear();
    ASSERT_FALSE(virt.empty());
    const auto has_prefix = [&](const char *prefix) {
        return std::any_of(virt.begin(), virt.end(),
                           [&](const obs::TraceEvent &e) {
                               return e.name.rfind(prefix, 0) == 0;
                           });
    };
    EXPECT_TRUE(has_prefix("compute["));
    EXPECT_TRUE(has_prefix("dma["));
    // One compute span per partition, all on one track, starting at t=0
    // and non-overlapping in schedule order.
    const int64_t track = virt.front().tid;
    int64_t cursor = 0;
    int64_t computes = 0;
    for (const auto &event : virt) {
        EXPECT_EQ(event.tid, track);
        EXPECT_GE(event.ts, 0);
        EXPECT_GE(event.dur, 0);
        if (event.name.rfind("compute[", 0) == 0) {
            EXPECT_GE(event.ts, cursor);
            cursor = event.ts + event.dur;
            ++computes;
        }
    }
    EXPECT_EQ(computes,
              static_cast<int64_t>(program->partitions.size()));
    // The track's extent matches the simulated end-to-end runtime to
    // microsecond rounding (host glue/manager time is not a span).
    EXPECT_LE(static_cast<double>(cursor) * 1e-6,
              result.total.seconds + 1e-6);
}

TEST(Instrumentation, FaultMetricsMatchTheReliabilityReport)
{
    auto &metrics = obs::MetricsRegistry::global();
    lower::CompileCache::global().clear();
    const auto registry = target::standardRegistry();
    const auto &bench = wl::tableIII().front();
    const auto program = wl::compileBenchmarkCached(
        bench.source, bench.buildOpts, registry, bench.domain,
        lower::CompileCache::global());

    soc::FaultConfig config;
    config.seed = 0xfeed;
    config.dmaFailureRate = 0.6;
    config.watchdogRate = 0.3;
    config.accelUnavailableRate = 0.1;
    soc::SocRuntime runtime;
    runtime.setFaultModel(soc::FaultModel(config));

    const auto before = metrics.snapshot();
    const auto result = runtime.execute(*program, bench.profile);
    const auto after = metrics.snapshot();

    const auto delta = [&](const char *name) {
        return after.counter(name) - before.counter(name);
    };
    EXPECT_EQ(delta("soc.faults.injected"),
              result.reliability.faultsInjected);
    EXPECT_EQ(delta("soc.faults.retries"),
              result.reliability.retriesSpent);
    EXPECT_EQ(delta("soc.faults.host_fallbacks"),
              result.reliability.hostFallbacks);
    EXPECT_EQ(delta("soc.faults.offload_attempts"),
              result.reliability.offloadAttempts);
    // The fault-free reference run inside execute() must not double-count
    // executions: one call, one execution.
    EXPECT_EQ(delta("soc.executions"), 1);
}

TEST(Instrumentation, CompileCacheCountersFlowIntoMetrics)
{
    auto &metrics = obs::MetricsRegistry::global();
    auto &cache = lower::CompileCache::global();
    cache.clear();
    const auto registry = target::standardRegistry();
    const auto &bench = wl::tableIII().front();

    const auto before = metrics.snapshot();
    for (int i = 0; i < 3; ++i) {
        wl::compileBenchmarkCached(bench.source, bench.buildOpts,
                                   registry, bench.domain, cache);
    }
    const auto after = metrics.snapshot();
    EXPECT_EQ(after.counter("compile_cache.misses") -
                  before.counter("compile_cache.misses"),
              1);
    EXPECT_EQ(after.counter("compile_cache.hits") -
                  before.counter("compile_cache.hits"),
              2);
    EXPECT_EQ(cache.coalesced(), 0);
}

} // namespace
} // namespace polymath
