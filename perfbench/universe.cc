#include "universe.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "workloads/programs.h"
#include "workloads/suite.h"

namespace perfbench {

namespace {

// serve_churn: Zipf exponent over the (program, optimize) keys, block
// length, and the verb mix of one block (sums to kChurnBlock). The
// exponent and the mix are assumptions, not measurements: no recorded
// pmcd traffic exists to derive them from. Keep them fixed until a
// recorded traffic sample (flight-recorder dump or metrics export) is
// committed, then derive both from it.
constexpr double kZipfExponent = 1.0;
constexpr size_t kChurnBlock = 1000;
constexpr int kChurnCompile = 450;
constexpr int kChurnSimulate = 300;
constexpr int kChurnProfile = 200;
constexpr int kChurnDse = 50;
// Fixed (seed-independent) shuffle of keys into Zipf ranks.
constexpr uint64_t kRankSeed = 0x9e3779b97f4a7c15ull;

std::string
domainKeyword(polymath::lang::Domain d)
{
    using polymath::lang::Domain;
    switch (d) {
      case Domain::RBT: return "RBT";
      case Domain::GA: return "GA";
      case Domain::DSP: return "DSP";
      case Domain::DA: return "DA";
      case Domain::DL: return "DL";
      default: return "ALL";
    }
}

std::vector<Program>
makeUniverse()
{
    namespace wl = polymath::wl;
    std::vector<Program> out;
    for (const auto &b : wl::tableIII()) {
        out.push_back({b.id, domainKeyword(b.domain), b.source,
                       b.buildOpts.entry, b.buildOpts.paramConsts, true});
    }
    for (const auto &app : wl::tableIV()) {
        out.push_back({app.id, "ALL", app.source, app.buildOpts.entry,
                       app.buildOpts.paramConsts, true});
    }
    // Size variants: the same generators at other sizes, so the cold
    // and churn workloads see a spread of program sizes, not only the
    // paper's configurations.
    auto variant = [&](std::string name, std::string target,
                       std::string source) {
        out.push_back({std::move(name), std::move(target),
                       std::move(source), "main", {}, false});
    };
    variant("BFS-24", "GA", wl::bfsProgram(24));
    variant("SSSP-96", "GA", wl::sssPProgram(96));
    variant("PageRank-48", "GA", wl::pagerankProgram(48));
    variant("LRMF-100x80", "DA", wl::lrmfProgram(100, 80, 8));
    variant("KMeans-1000", "DA", wl::kmeansProgram(1000, 16, 4));
    variant("LogReg-1024x64", "DA", wl::logregProgram(1024, 64));
    variant("LogRegInfer-64", "DA", wl::logregInferProgram(64));
    variant("BlackScholes-4096", "DA", wl::blackScholesProgram(4096));
    variant("FFT-1024", "DSP", wl::fftProgram(1024));
    variant("DCT-256", "DSP", wl::dctProgram(256, 256));
    return out;
}

/** splitmix64: the benchmark's only random source, so sequences are
 *  identical on every platform. */
uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Fisher-Yates over splitmix64 (std::shuffle's algorithm is not
 *  specified, so it could differ between standard libraries). */
template <typename T>
void
shuffle(std::vector<T> &v, uint64_t &rng)
{
    for (size_t i = v.size(); i > 1; --i) {
        const size_t j = splitmix(rng) % i;
        std::swap(v[i - 1], v[j]);
    }
}

/** Exact per-key counts of one churn block (largest remainder). */
std::vector<int>
churnKeyCounts()
{
    const auto shares = churnKeyShares();
    std::vector<int> counts(shares.size());
    std::vector<std::pair<double, size_t>> rest;
    size_t used = 0;
    for (size_t k = 0; k < shares.size(); ++k) {
        const double exact = shares[k] * kChurnBlock;
        counts[k] = static_cast<int>(std::floor(exact));
        used += counts[k];
        rest.push_back({exact - counts[k], k});
    }
    std::sort(rest.begin(), rest.end(), [](const auto &a, const auto &b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (size_t i = 0; used < kChurnBlock; ++i, ++used)
        counts[rest[i].second] += 1;
    return counts;
}

} // namespace

const std::vector<Program> &
universe()
{
    static const std::vector<Program> programs = makeUniverse();
    return programs;
}

const char *
verbName(Verb verb)
{
    switch (verb) {
      case Verb::Compile: return "compile";
      case Verb::Simulate: return "simulate";
      case Verb::Profile: return "profile";
      case Verb::Dse: return "dse";
    }
    return "?";
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::CompileCold: return "compile_cold";
      case Workload::ServeHot: return "serve_hot";
      case Workload::ServeChurn: return "serve_churn";
    }
    return "?";
}

bool
workloadFromName(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::CompileCold, Workload::ServeHot,
                       Workload::ServeChurn}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

Shape
shapeOf(Workload w)
{
    switch (w) {
      // One editing user, one worker. The cache bound keeps the
      // daemon's memory independent of how many edits a run sends
      // (every edit is a new key).
      case Workload::CompileCold: return {1, 1, 32};
      case Workload::ServeHot: return {2, 2, 0};
      // Well below the 54-key universe, so misses insert and evict.
      case Workload::ServeChurn: return {2, 2, 16};
    }
    return {};
}

std::vector<double>
churnKeyShares()
{
    const size_t keys = universe().size() * 2;
    std::vector<size_t> byRank(keys);
    for (size_t k = 0; k < keys; ++k)
        byRank[k] = k;
    uint64_t rng = kRankSeed;
    shuffle(byRank, rng);
    double norm = 0;
    for (size_t r = 1; r <= keys; ++r)
        norm += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
    std::vector<double> shares(keys);
    for (size_t r = 0; r < keys; ++r) {
        shares[byRank[r]] =
            1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent) /
            norm;
    }
    return shares;
}

Sequence::Sequence(Workload w, uint64_t seed)
    : workload_(w), rng_(seed ^ 0x5eedbe11c0ffee00ull)
{
}

size_t
Sequence::blockSize() const
{
    switch (workload_) {
      case Workload::CompileCold: return universe().size();
      case Workload::ServeHot:
        return 2 * static_cast<size_t>(std::count_if(
                       universe().begin(), universe().end(),
                       [](const Program &p) { return p.tableProgram; }));
      case Workload::ServeChurn: return kChurnBlock;
    }
    return 1;
}

void
Sequence::refill()
{
    const auto &programs = universe();
    block_.clear();
    pos_ = 0;
    switch (workload_) {
      case Workload::CompileCold:
        // One edit of every program per block, in seeded order.
        for (size_t p = 0; p < programs.size(); ++p)
            block_.push_back({static_cast<int>(p), true, Verb::Compile});
        shuffle(block_, rng_);
        break;
      case Workload::ServeHot:
        // Every table program once as simulate and once as profile.
        for (size_t p = 0; p < programs.size(); ++p) {
            if (!programs[p].tableProgram)
                continue;
            block_.push_back({static_cast<int>(p), false, Verb::Simulate});
            block_.push_back({static_cast<int>(p), false, Verb::Profile});
        }
        shuffle(block_, rng_);
        break;
      case Workload::ServeChurn: {
        // Zipf key counts and the verb mix are fixed per block; the
        // seed shuffles both lists independently and pairs them up.
        std::vector<int> keys;
        const auto counts = churnKeyCounts();
        for (size_t k = 0; k < counts.size(); ++k)
            keys.insert(keys.end(), counts[k], static_cast<int>(k));
        std::vector<Verb> verbs;
        verbs.insert(verbs.end(), kChurnCompile, Verb::Compile);
        verbs.insert(verbs.end(), kChurnSimulate, Verb::Simulate);
        verbs.insert(verbs.end(), kChurnProfile, Verb::Profile);
        verbs.insert(verbs.end(), kChurnDse, Verb::Dse);
        shuffle(keys, rng_);
        shuffle(verbs, rng_);
        for (size_t i = 0; i < keys.size(); ++i)
            block_.push_back({keys[i] / 2, keys[i] % 2 == 1, verbs[i]});
        break;
      }
    }
}

Draw
Sequence::next()
{
    if (pos_ == block_.size())
        refill();
    Draw d = block_[pos_++];
    if (workload_ == Workload::CompileCold)
        d.edit = issued_;
    ++issued_;
    return d;
}

std::vector<Draw>
warmup(Workload w)
{
    const auto &programs = universe();
    std::vector<Draw> out;
    switch (w) {
      case Workload::CompileCold:
        for (size_t p = 0; p < programs.size(); ++p) {
            Draw d{static_cast<int>(p), true, Verb::Compile};
            d.edit = -2; // warm-up comment, never reused by timed edits
            out.push_back(d);
        }
        break;
      case Workload::ServeHot:
        for (size_t p = 0; p < programs.size(); ++p) {
            if (!programs[p].tableProgram)
                continue;
            out.push_back({static_cast<int>(p), false, Verb::Simulate});
            out.push_back({static_cast<int>(p), false, Verb::Profile});
        }
        break;
      case Workload::ServeChurn: {
        // The cache starts holding the most popular keys, least popular
        // of them first so the LRU order matches popularity.
        const auto shares = churnKeyShares();
        std::vector<size_t> order(shares.size());
        for (size_t k = 0; k < order.size(); ++k)
            order[k] = k;
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return shares[a] > shares[b];
        });
        const size_t n = std::min(shapeOf(w).cacheEntries, order.size());
        for (size_t i = n; i-- > 0;) {
            const int k = static_cast<int>(order[i]);
            out.push_back({k / 2, k % 2 == 1, Verb::Compile});
        }
        break;
      }
    }
    return out;
}

namespace {

/** Source text of @p d, with its edit comment when it has one. */
std::string
sourceOf(const Draw &d)
{
    std::string src = universe()[d.program].source;
    if (d.edit == -2)
        src += "\n// warm-up\n";
    else if (d.edit >= 0)
        src += "\n// edit " + std::to_string(d.edit) + "\n";
    return src;
}

void
appendQuoted(std::string &out, const std::string &s)
{
    static const char *hex = "0123456789abcdef";
    out += '"';
    for (const unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (c < 0x20) {
                out += "\\u00";
                out += hex[c >> 4];
                out += hex[c & 15];
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

} // namespace

std::string
requestLine(const Draw &d, int64_t id)
{
    const Program &p = universe()[d.program];
    std::string line = "{\"id\":" + std::to_string(id) + ",\"verb\":\"";
    line += verbName(d.verb);
    line += "\",\"file\":";
    appendQuoted(line, p.name);
    line += ",\"source\":";
    appendQuoted(line, sourceOf(d));
    line += ",\"entry\":";
    appendQuoted(line, p.entry);
    if (!p.params.empty()) {
        line += ",\"params\":{";
        bool first = true;
        for (const auto &[name, value] : p.params) {
            if (!first)
                line += ',';
            first = false;
            appendQuoted(line, name);
            line += ':' + std::to_string(value);
        }
        line += '}';
    }
    if (d.optimize)
        line += ",\"optimize\":true";
    line += ",\"target\":";
    appendQuoted(line, p.target);
    line += '}';
    return line;
}

uint64_t
responseDigest(int code, const std::string &output,
               const std::string &error, const std::string &profileJson)
{
    // Eight bytes per multiply, so checking a large response costs the
    // client little next to the daemon's work.
    uint64_t h = 0x243f6a8885a308d3ull;
    auto step = [&h](uint64_t word) {
        h = (h ^ word) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 31;
    };
    auto mix = [&step](const std::string &s) {
        const char *p = s.data();
        size_t n = s.size();
        for (; n >= 8; p += 8, n -= 8) {
            uint64_t word = 0;
            std::memcpy(&word, p, 8);
            step(word);
        }
        uint64_t tail = 0;
        std::memcpy(&tail, p, n);
        step(tail);
        step(s.size()); // separates the fields
    };
    mix(std::to_string(code));
    mix(output);
    mix(error);
    mix(profileJson);
    return h;
}

std::string
expectedKey(const Draw &d)
{
    return universe()[d.program].name + "/" + (d.optimize ? "1" : "0") +
           "/" + verbName(d.verb);
}

std::string
checkOutput(const Draw &d, int code, const std::string &output,
            const std::string &error, const std::string &profileJson,
            const Expected &expected)
{
    if (code != 0)
        return "exit code " + std::to_string(code) + ": " + error;
    const auto it = expected.find(expectedKey(d));
    if (it == expected.end())
        return "no expected digest";
    if (responseDigest(code, output, error, profileJson) != it->second)
        return "output differs from the expected digest";
    return "";
}

Expected
loadExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    Expected table;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, digest;
        if (!(fields >> key >> digest))
            throw std::runtime_error("bad line in " + path + ": " + line);
        table[key] = std::stoull(digest, nullptr, 16);
    }
    return table;
}

} // namespace perfbench
