#include "obs/export.h"

#include <charconv>
#include <fstream>

#include "core/error.h"
#include "core/json.h"

namespace polymath::obs {

namespace {

/** Metadata event naming timeline @p pid in trace viewers. */
void
writeProcessName(json::Writer &w, int pid, const char *name)
{
    w.beginObject().field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", pid);
    w.field("tid", 0);
    w.key("args").beginObject();
    w.field("name", name);
    w.endObject().endObject();
}

} // namespace

void
writeTraceEvent(json::Writer &w, const TraceEvent &event)
{
    w.beginObject().field("name", event.name);
    if (!event.cat.empty())
        w.field("cat", event.cat);
    w.field("ph", std::string_view(&event.ph, 1));
    w.field("pid", event.pid);
    w.field("tid", event.tid);
    w.field("ts", event.ts);
    if (event.ph == 'X')
        w.field("dur", event.dur);
    if (event.ph == 'i')
        w.field("s", "t"); // instant scope: thread
    if (!event.args.empty()) {
        w.key("args").beginObject();
        for (const auto &arg : event.args) {
            w.key(arg.key);
            if (arg.numeric)
                w.raw(arg.value);
            else
                w.value(arg.value);
        }
        w.endObject();
    }
    w.endObject();
}

std::string
chromeTraceJson(const TraceRecorder &recorder)
{
    const auto events = recorder.snapshot();
    std::string out;
    json::Writer w(out);
    w.beginObject().field("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();
    writeProcessName(w, kRealPid, "polymath (wall clock)");
    writeProcessName(w, kVirtualPid, "polymath SoC (virtual time)");
    for (const auto &event : events)
        writeTraceEvent(w.lineBreak(), event);
    w.endArray().endObject();
    out += '\n';
    return out;
}

namespace {

/** "service.requests.completed" -> "polymath_service_requests_completed". */
std::string
promName(const std::string &name)
{
    std::string out = "polymath_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

/** Locale-independent number rendering for exposition values. */
std::string
promDouble(double value)
{
    char buf[64];
    const auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::general, 17);
    return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

} // namespace

std::string
prometheusText(const MetricsSnapshot &snapshot)
{
    std::string out;
    for (const auto &[name, value] : snapshot.counters) {
        const std::string n = promName(name);
        out += "# TYPE " + n + " counter\n";
        out += n + " " + std::to_string(value) + "\n";
    }
    for (const auto &[name, value] : snapshot.gauges) {
        const std::string n = promName(name);
        out += "# TYPE " + n + " gauge\n";
        out += n + " " + promDouble(value) + "\n";
    }
    for (const auto &[name, h] : snapshot.histograms) {
        const std::string n = promName(name);
        out += "# TYPE " + n + " summary\n";
        out += n + "_sum " + std::to_string(h.sum) + "\n";
        out += n + "_count " + std::to_string(h.count) + "\n";
        if (h.underflow > 0)
            out += n + "_underflow " + std::to_string(h.underflow) + "\n";
    }
    for (const auto &[name, l] : snapshot.latencies) {
        const std::string n = promName(name);
        out += "# TYPE " + n + " summary\n";
        out += n + "{quantile=\"0.5\"} " + promDouble(l.p50) + "\n";
        out += n + "{quantile=\"0.99\"} " + promDouble(l.p99) + "\n";
        out += n + "{quantile=\"0.999\"} " + promDouble(l.p999) + "\n";
        out += n + "_sum " + std::to_string(l.sum) + "\n";
        out += n + "_count " + std::to_string(l.count) + "\n";
        if (l.underflow > 0)
            out += n + "_underflow " + std::to_string(l.underflow) + "\n";
    }
    return out;
}

void
writeChromeTrace(const TraceRecorder &recorder, const std::string &path)
{
    std::ofstream file(path, std::ios::binary);
    if (!file)
        fatal("cannot open trace file '" + path + "' for writing");
    const std::string json = chromeTraceJson(recorder);
    file.write(json.data(), static_cast<std::streamsize>(json.size()));
    if (!file)
        fatal("failed writing trace file '" + path + "'");
}

} // namespace polymath::obs
