#include "service/protocol.h"

#include <charconv>
#include <cmath>

#include "core/error.h"
#include "core/json.h"

namespace polymath::service {

namespace {

bool
asBool(const json::Value &v, const std::string &key)
{
    if (!std::holds_alternative<bool>(v.data))
        fatal("service: field '" + key + "' must be a boolean");
    return std::get<bool>(v.data);
}

/** Integer field: JSON doubles are exact up to 2^53, far beyond any
 *  id/count the protocol carries. */
int64_t
getInt(const json::Object &obj, const std::string &key, int64_t dflt)
{
    auto it = obj.find(key);
    if (it == obj.end())
        return dflt;
    const double d = it->second.num();
    if (!std::isfinite(d) || d != std::floor(d))
        fatal("service: field '" + key + "' must be an integer");
    return static_cast<int64_t>(d);
}

double
getNum(const json::Object &obj, const std::string &key, double dflt)
{
    auto it = obj.find(key);
    return it == obj.end() ? dflt : it->second.num();
}

bool
getBool(const json::Object &obj, const std::string &key, bool dflt)
{
    auto it = obj.find(key);
    return it == obj.end() ? dflt : asBool(it->second, key);
}

std::string
getString(const json::Object &obj, const std::string &key,
          const std::string &dflt)
{
    auto it = obj.find(key);
    return it == obj.end() ? dflt : it->second.str();
}

/** Seed field: full uint64 carried as a decimal string (a JSON double
 *  truncates past 2^53). */
uint64_t
getSeed(const json::Object &obj, const std::string &key, uint64_t dflt)
{
    const std::string seed = getString(obj, key, std::to_string(dflt));
    uint64_t value = 0;
    const char *begin = seed.data();
    const char *end = begin + seed.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end)
        fatal("service: field '" + key +
              "' must be a decimal unsigned integer string (got '" +
              seed + "')");
    return value;
}

} // namespace

const char *
toString(Verb verb)
{
    switch (verb) {
      case Verb::Compile: return "compile";
      case Verb::Simulate: return "simulate";
      case Verb::Profile: return "profile";
      case Verb::Dse: return "dse";
      case Verb::Stats: return "stats";
      case Verb::Dump: return "dump";
      case Verb::Metrics: return "metrics";
      case Verb::Shutdown: return "shutdown";
    }
    return "?";
}

bool
isWorkVerb(Verb verb)
{
    return verb == Verb::Compile || verb == Verb::Simulate ||
           verb == Verb::Profile || verb == Verb::Dse;
}

namespace {

Verb
verbFromString(const std::string &word)
{
    if (word == "compile") return Verb::Compile;
    if (word == "simulate") return Verb::Simulate;
    if (word == "profile") return Verb::Profile;
    if (word == "dse") return Verb::Dse;
    if (word == "stats") return Verb::Stats;
    if (word == "dump") return Verb::Dump;
    if (word == "metrics") return Verb::Metrics;
    if (word == "shutdown") return Verb::Shutdown;
    fatal("service: unknown verb '" + word +
          "' (expected compile|simulate|profile|dse|stats|dump|"
          "metrics|shutdown)");
}

} // namespace

std::string
Request::json() const
{
    std::string doc = "{\"id\":" + std::to_string(id);
    doc += ",\"verb\":" + json::quote(toString(verb));
    if (!requestId.empty())
        doc += ",\"requestId\":" + json::quote(requestId);
    if (metricsDelta)
        doc += ",\"metricsDelta\":true";
    doc += ",\"file\":" + json::quote(file);
    doc += ",\"source\":" + json::quote(source);
    doc += ",\"entry\":" + json::quote(entry);
    if (!params.empty()) {
        doc += ",\"params\":{";
        bool first = true;
        for (const auto &[name, value] : params) {
            if (!first)
                doc += ",";
            first = false;
            doc += json::quote(name) + ":" + std::to_string(value);
        }
        doc += "}";
    }
    if (optimize)
        doc += ",\"optimize\":true";
    if (!target.empty())
        doc += ",\"target\":" + json::quote(target);
    if (schedule)
        doc += ",\"schedule\":true";
    doc += ",\"invocations\":" + std::to_string(invocations);
    if (faultRate != 0.0)
        doc += ",\"faultRate\":" + json::numberToJson(faultRate);
    // Seeds are full uint64s; a JSON double would truncate past 2^53,
    // so the seed travels as a decimal string.
    doc += ",\"faultSeed\":" + json::quote(std::to_string(faultSeed));
    doc += ",\"profileTop\":" + std::to_string(profileTop);
    if (profileDoc)
        doc += ",\"profileDoc\":true";
    if (verb == Verb::Dse) {
        doc += ",\"dseSpace\":" + json::quote(dseSpace);
        doc += ",\"dseSearch\":" + json::quote(dseSearch);
        doc += ",\"dseSamples\":" + std::to_string(dseSamples);
        doc += ",\"dseRounds\":" + std::to_string(dseRounds);
        // Same uint64-as-decimal-string convention as faultSeed.
        doc += ",\"dseSeed\":" + json::quote(std::to_string(dseSeed));
    }
    doc += "}";
    return doc;
}

Request
Request::fromJson(const std::string &line)
{
    const json::Value doc = json::parse(line);
    const json::Object &obj = doc.obj();
    Request req;
    auto verb_it = obj.find("verb");
    if (verb_it == obj.end())
        fatal("service: request has no 'verb'");
    req.verb = verbFromString(verb_it->second.str());
    req.id = getInt(obj, "id", 0);
    req.requestId = getString(obj, "requestId", "");
    req.metricsDelta = getBool(obj, "metricsDelta", false);
    req.file = getString(obj, "file", req.file);
    req.source = getString(obj, "source", "");
    req.entry = getString(obj, "entry", req.entry);
    auto params_it = obj.find("params");
    if (params_it != obj.end()) {
        for (const auto &[name, value] : params_it->second.obj()) {
            const double d = value.num();
            if (!std::isfinite(d) || d != std::floor(d))
                fatal("service: param '" + name +
                      "' must be an integer");
            req.params[name] = static_cast<int64_t>(d);
        }
    }
    req.optimize = getBool(obj, "optimize", false);
    req.target = getString(obj, "target", "");
    req.schedule = getBool(obj, "schedule", false);
    req.invocations = getInt(obj, "invocations", 1);
    req.faultRate = getNum(obj, "faultRate", 0.0);
    req.faultSeed = getSeed(obj, "faultSeed", req.faultSeed);
    req.profileTop = getInt(obj, "profileTop", 10);
    req.profileDoc = getBool(obj, "profileDoc", false);
    req.dseSpace = getString(obj, "dseSpace", req.dseSpace);
    req.dseSearch = getString(obj, "dseSearch", req.dseSearch);
    req.dseSamples = getInt(obj, "dseSamples", req.dseSamples);
    req.dseRounds = getInt(obj, "dseRounds", req.dseRounds);
    req.dseSeed = getSeed(obj, "dseSeed", req.dseSeed);
    if (req.profileTop < 1)
        fatal("service: field 'profileTop' must be positive");
    if (req.invocations < 1)
        fatal("service: field 'invocations' must be positive");
    if (req.dseSamples < 1)
        fatal("service: field 'dseSamples' must be positive");
    if (req.dseRounds < 1)
        fatal("service: field 'dseRounds' must be positive");
    return req;
}

std::string
Response::json() const
{
    // One buffer sized for the payloads plus their escapes' growth.
    const size_t payload = output.size() + error.size() +
                           profileJson.size() + metricsJson.size();
    std::string doc;
    doc.reserve(payload + payload / 8 + 128 + 48 * stats.size());
    auto field = [&doc](const char *name, const std::string &value) {
        if (value.empty())
            return;
        doc += name;
        json::appendQuoted(doc, value);
    };
    doc += "{\"id\":";
    doc += std::to_string(id);
    doc += ok ? ",\"ok\":true" : ",\"ok\":false";
    if (rejected)
        doc += ",\"rejected\":true";
    doc += ",\"code\":";
    doc += std::to_string(code);
    if (cacheHit)
        doc += ",\"cacheHit\":true";
    field(",\"requestId\":", requestId);
    field(",\"output\":", output);
    field(",\"error\":", error);
    field(",\"profileJson\":", profileJson);
    field(",\"metricsJson\":", metricsJson);
    if (!stats.empty()) {
        doc += ",\"stats\":{";
        bool first = true;
        for (const auto &[name, value] : stats) {
            if (!first)
                doc += ',';
            first = false;
            json::appendQuoted(doc, name);
            doc += ':';
            json::appendNumber(doc, value);
        }
        doc += '}';
    }
    doc += '}';
    return doc;
}

Response
Response::fromJson(const std::string &line)
{
    const json::Value doc = json::parse(line);
    const json::Object &obj = doc.obj();
    Response resp;
    resp.id = getInt(obj, "id", 0);
    resp.ok = getBool(obj, "ok", false);
    resp.rejected = getBool(obj, "rejected", false);
    resp.code = static_cast<int>(getInt(obj, "code", 0));
    resp.cacheHit = getBool(obj, "cacheHit", false);
    resp.requestId = getString(obj, "requestId", "");
    resp.output = getString(obj, "output", "");
    resp.error = getString(obj, "error", "");
    resp.profileJson = getString(obj, "profileJson", "");
    resp.metricsJson = getString(obj, "metricsJson", "");
    auto stats_it = obj.find("stats");
    if (stats_it != obj.end()) {
        for (const auto &[name, value] : stats_it->second.obj())
            resp.stats[name] = json::numberFromJson(value);
    }
    return resp;
}

} // namespace polymath::service
