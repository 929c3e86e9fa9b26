#include "report/artifact.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/error.h"
#include "core/json.h"
#include "core/strings.h"

#ifndef POLYMATH_GIT_DESCRIBE
#define POLYMATH_GIT_DESCRIBE "unknown"
#endif
#ifndef POLYMATH_BUILD_CONFIG
#define POLYMATH_BUILD_CONFIG "unknown"
#endif

namespace polymath::report {

std::string
buildGitDescribe()
{
    return POLYMATH_GIT_DESCRIBE;
}

std::string
buildConfig()
{
    return POLYMATH_BUILD_CONFIG;
}

void
BenchArtifact::add(const std::string &benchmark, const std::string &metric,
                   double value)
{
    metrics.push_back(Metric{benchmark, metric, value});
}

std::string
BenchArtifact::json() const
{
    std::vector<const Metric *> sorted;
    sorted.reserve(metrics.size());
    for (const auto &m : metrics)
        sorted.push_back(&m);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Metric *a, const Metric *b) {
                         if (a->benchmark != b->benchmark)
                             return a->benchmark < b->benchmark;
                         return a->metric < b->metric;
                     });

    std::string out = "{\n";
    out += "  \"schema\": " + json::quote(kSchema) + ",\n";
    out += "  \"name\": " + json::quote(name) + ",\n";
    out += "  \"provenance\": {\"git\": " + json::quote(git) +
           ", \"config\": " + json::quote(config) +
           ", \"jobs\": " + std::to_string(jobs) + "},\n";
    out += "  \"metrics\": [";
    for (size_t i = 0; i < sorted.size(); ++i) {
        out += i ? ",\n    " : "\n    ";
        out += "{\"benchmark\": " + json::quote(sorted[i]->benchmark) +
               ", \"metric\": " + json::quote(sorted[i]->metric) +
               ", \"value\": ";
        json::appendNumber(out, sorted[i]->value);
        out += '}';
    }
    out += sorted.empty() ? "]\n" : "\n  ]\n";
    return out + "}\n";
}

BenchArtifact
BenchArtifact::fromJson(const std::string &text)
{
    const json::Value root = json::parse(text);
    if (!root.has("schema") || root.at("schema").str() != kSchema) {
        fatal(std::string("bench artifact: expected schema \"") + kSchema +
              "\", got " +
              (root.has("schema") ? "\"" + root.at("schema").str() + "\""
                                  : "none"));
    }
    BenchArtifact artifact;
    artifact.name = root.has("name") ? root.at("name").str() : "";
    if (root.has("provenance")) {
        const json::Value &prov = root.at("provenance");
        if (prov.has("git"))
            artifact.git = prov.at("git").str();
        if (prov.has("config"))
            artifact.config = prov.at("config").str();
        if (prov.has("jobs"))
            artifact.jobs = prov.at("jobs").asInt();
    }
    if (root.has("metrics")) {
        for (const json::Value &row : root.at("metrics").arr()) {
            artifact.add(row.at("benchmark").str(), row.at("metric").str(),
                         json::numberFromJson(row.at("value")));
        }
    }
    return artifact;
}

void
BenchArtifact::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("bench artifact: cannot open '" + path + "' for writing");
    const std::string text = json();
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out)
        fatal("bench artifact: write to '" + path + "' failed");
}

BenchArtifact
BenchArtifact::read(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("bench artifact: cannot read '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return fromJson(text.str());
}

std::string
MetricDiff::str() const
{
    const char *verdict = "ok";
    switch (status) {
      case Status::Ok: break;
      case Status::Changed: verdict = "CHANGED"; break;
      case Status::MissingInCurrent: verdict = "MISSING in current"; break;
      case Status::MissingInBaseline: verdict = "MISSING in baseline"; break;
    }
    std::string line = benchmark + "/" + metric + ": " + verdict;
    if (status == Status::Ok || status == Status::Changed) {
        line += " (baseline " + formatG(baseline, 6) + ", current " +
                formatG(current, 6) + ", rel err " + formatG(relError, 3) +
                ")";
    } else if (status == Status::MissingInCurrent) {
        line += " (baseline " + formatG(baseline, 6) + ")";
    } else {
        line += " (current " + formatG(current, 6) + ")";
    }
    return line;
}

bool
CompareResult::ok() const
{
    for (const auto &d : diffs) {
        if (d.status != MetricDiff::Status::Ok)
            return false;
    }
    return true;
}

std::string
CompareResult::summary() const
{
    std::string out;
    int bad = 0;
    for (const auto &d : diffs) {
        if (d.status == MetricDiff::Status::Ok)
            continue;
        out += "  " + d.str() + "\n";
        ++bad;
    }
    if (bad == 0) {
        return "all " + std::to_string(compared) +
               " metrics within tolerance\n";
    }
    return std::to_string(bad) + " of " +
           std::to_string(diffs.size()) + " metric rows out of tolerance:\n" +
           out;
}

CompareResult
compareArtifacts(const BenchArtifact &baseline, const BenchArtifact &current,
                 const CompareOptions &options)
{
    auto key = [](const BenchArtifact::Metric &m) {
        return m.benchmark + "\x1f" + m.metric;
    };
    std::map<std::string, const BenchArtifact::Metric *> cur;
    for (const auto &m : current.metrics)
        cur[key(m)] = &m;

    CompareResult result;
    std::map<std::string, bool> seen;
    for (const auto &base : baseline.metrics) {
        MetricDiff d;
        d.benchmark = base.benchmark;
        d.metric = base.metric;
        d.baseline = base.value;
        auto it = cur.find(key(base));
        if (it == cur.end()) {
            d.status = MetricDiff::Status::MissingInCurrent;
            result.diffs.push_back(std::move(d));
            continue;
        }
        seen[key(base)] = true;
        ++result.compared;
        d.current = it->second->value;
        double tol = options.relTol;
        auto override_it = options.metricTol.find(base.metric);
        if (override_it != options.metricTol.end())
            tol = override_it->second;
        const double scale =
            std::max(std::abs(d.baseline), std::abs(d.current));
        const double diff = std::abs(d.current - d.baseline);
        d.relError = scale > 0 ? diff / scale : 0.0;
        // Non-finite values defeat the relative test: NaN matches only
        // NaN, an infinity only the identical infinity.
        if (!std::isfinite(d.baseline) || !std::isfinite(d.current)) {
            const bool same =
                (std::isnan(d.baseline) && std::isnan(d.current)) ||
                d.baseline == d.current;
            if (!same)
                d.status = MetricDiff::Status::Changed;
        } else if (diff > tol * scale) {
            d.status = MetricDiff::Status::Changed;
        }
        result.diffs.push_back(std::move(d));
    }
    for (const auto &m : current.metrics) {
        if (seen.count(key(m)))
            continue;
        MetricDiff d;
        d.benchmark = m.benchmark;
        d.metric = m.metric;
        d.current = m.value;
        d.status = MetricDiff::Status::MissingInBaseline;
        result.diffs.push_back(std::move(d));
    }
    return result;
}

} // namespace polymath::report
