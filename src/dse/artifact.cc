#include "dse/artifact.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "core/error.h"
#include "core/json.h"

namespace polymath::dse {

namespace {

void
writePoint(json::Writer &w, const DsePoint &p)
{
    w.beginObject().field("index", p.index);
    w.field("label", p.label);
    w.field("seconds", p.seconds);
    w.field("joules", p.joules);
    w.field("perfPerWatt", p.perfPerWatt);
    w.field("computeSeconds", p.computeSeconds);
    w.field("dmaSeconds", p.dmaSeconds);
    w.field("overheadSeconds", p.overheadSeconds);
    w.field("dominantPhase", p.dominantPhase);
    w.field("topCost", p.topCost);
    w.endObject();
}

DsePoint
pointFromJson(const json::Value &v)
{
    DsePoint p;
    p.index = v.at("index").asInt();
    p.label = v.at("label").str();
    p.seconds = json::numberFromJson(v.at("seconds"));
    p.joules = json::numberFromJson(v.at("joules"));
    p.perfPerWatt = json::numberFromJson(v.at("perfPerWatt"));
    p.computeSeconds = json::numberFromJson(v.at("computeSeconds"));
    p.dmaSeconds = json::numberFromJson(v.at("dmaSeconds"));
    p.overheadSeconds = json::numberFromJson(v.at("overheadSeconds"));
    p.dominantPhase = v.at("dominantPhase").str();
    p.topCost = v.at("topCost").str();
    return p;
}

DsePoint
toPoint(const EvalPoint &e)
{
    DsePoint p;
    p.index = e.index;
    p.label = e.label;
    p.seconds = e.seconds;
    p.joules = e.joules;
    p.perfPerWatt = e.perfPerWatt;
    p.computeSeconds = e.computeSeconds;
    p.dmaSeconds = e.dmaSeconds;
    p.overheadSeconds = e.overheadSeconds;
    p.dominantPhase = e.dominantPhase;
    p.topCost = e.topCost;
    return p;
}

} // namespace

DseStudy
toStudy(const WorkloadStudy &study)
{
    DseStudy out;
    out.id = study.workload;
    out.backend = study.backend;
    out.spaceSize = study.spaceSize;
    out.evaluated = study.evaluated();
    out.baseline = toPoint(study.baseline());
    out.best = toPoint(study.best());
    out.front.reserve(study.front.size());
    for (const size_t pos : study.front)
        out.front.push_back(toPoint(study.points[pos]));
    return out;
}

std::string
DseArtifact::json() const
{
    std::string doc;
    json::Writer w(doc);
    w.beginObject().field("schema", kSchema);
    w.field("name", name);
    w.field("git", git);
    w.field("config", config);
    w.field("space", space);
    w.field("search", search);
    // Seeds are full uint64s; same decimal-string convention as the
    // service protocol.
    w.field("seed", std::to_string(seed));
    w.field("samples", samples);
    w.field("rounds", rounds);
    w.key("workloads").beginArray();
    for (const auto &study : workloads) {
        w.beginObject().field("id", study.id);
        w.field("backend", study.backend);
        w.field("spaceSize", study.spaceSize);
        w.field("evaluated", study.evaluated);
        writePoint(w.key("baseline"), study.baseline);
        writePoint(w.key("best"), study.best);
        w.key("front").beginArray();
        for (const auto &point : study.front)
            writePoint(w, point);
        w.endArray().endObject();
    }
    w.endArray().endObject();
    doc += '\n';
    return doc;
}

DseArtifact
DseArtifact::fromJson(const std::string &text)
{
    const json::Value doc = json::parse(text);
    const std::string schema = doc.at("schema").str();
    if (schema != kSchema)
        fatal("dse artifact: unsupported schema '" + schema +
              "' (this build reads " + kSchema + ")");
    DseArtifact artifact;
    artifact.name = doc.at("name").str();
    artifact.git = doc.at("git").str();
    artifact.config = doc.at("config").str();
    artifact.space = doc.at("space").str();
    artifact.search = doc.at("search").str();
    {
        const std::string seed = doc.at("seed").str();
        uint64_t value = 0;
        const char *begin = seed.data();
        const char *end = begin + seed.size();
        const auto [ptr, ec] = std::from_chars(begin, end, value);
        if (ec != std::errc{} || ptr != end)
            fatal("dse artifact: field 'seed' must be a decimal "
                  "unsigned integer string (got '" +
                  seed + "')");
        artifact.seed = value;
    }
    artifact.samples = doc.at("samples").asInt();
    artifact.rounds = doc.at("rounds").asInt();
    for (const auto &entry : doc.at("workloads").arr()) {
        DseStudy study;
        study.id = entry.at("id").str();
        study.backend = entry.at("backend").str();
        study.spaceSize = entry.at("spaceSize").asInt();
        study.evaluated = entry.at("evaluated").asInt();
        study.baseline = pointFromJson(entry.at("baseline"));
        study.best = pointFromJson(entry.at("best"));
        for (const auto &point : entry.at("front").arr())
            study.front.push_back(pointFromJson(point));
        artifact.workloads.push_back(std::move(study));
    }
    return artifact;
}

void
DseArtifact::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '" + path + "' for writing");
    out << json();
    if (!out)
        fatal("failed writing '" + path + "'");
}

DseArtifact
DseArtifact::read(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return fromJson(buffer.str());
}

report::BenchArtifact
DseArtifact::toBenchArtifact() const
{
    report::BenchArtifact bench;
    bench.name = name;
    bench.git = git;
    bench.config = config;
    bench.jobs = 1; // the DSE artifact is jobs-independent by contract
    for (const auto &study : workloads) {
        bench.add(study.id, "front_size",
                  static_cast<double>(study.front.size()));
        bench.add(study.id, "evaluated",
                  static_cast<double>(study.evaluated));
        bench.add(study.id, "baseline_seconds", study.baseline.seconds);
        bench.add(study.id, "best_seconds", study.best.seconds);
        bench.add(study.id, "best_joules", study.best.joules);
        bench.add(study.id, "best_perf_per_watt",
                  study.best.perfPerWatt);
        bench.add(study.id, "speedup",
                  study.best.seconds > 0.0
                      ? study.baseline.seconds / study.best.seconds
                      : 0.0);
        bench.add(study.id, "ppw_gain",
                  study.baseline.perfPerWatt > 0.0
                      ? study.best.perfPerWatt /
                            study.baseline.perfPerWatt
                      : 0.0);
    }
    return bench;
}

} // namespace polymath::dse
