#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <list>
#include <stdexcept>
#include <thread>

#include "loadgen.h"
#include "universe.h"

namespace perfbench {

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

constexpr Workload kAll[] = {Workload::CompileCold, Workload::ServeHot,
                             Workload::ServeChurn};

/** The first @p blocks blocks of a sequence as request lines. */
std::vector<std::string>
lines(Workload w, uint64_t seed, size_t blocks)
{
    Sequence seq(w, seed);
    std::vector<std::string> out;
    for (size_t i = 0; i < blocks * seq.blockSize(); ++i)
        out.push_back(requestLine(seq.next(), static_cast<int64_t>(i)));
    return out;
}

/** Per block: the sorted (key, verb) list and the sorted key and verb
 *  lists of the first @p blocks blocks. */
struct BlockContents
{
    std::vector<std::string> keys;
    std::vector<int> verbs;
};

std::vector<BlockContents>
contents(Workload w, uint64_t seed, size_t blocks)
{
    Sequence seq(w, seed);
    std::vector<BlockContents> out(blocks);
    for (auto &b : out) {
        for (size_t i = 0; i < seq.blockSize(); ++i) {
            const Draw d = seq.next();
            b.keys.push_back(universe()[d.program].name +
                             (d.optimize ? "/1" : "/0"));
            b.verbs.push_back(static_cast<int>(d.verb));
        }
        std::sort(b.keys.begin(), b.keys.end());
        std::sort(b.verbs.begin(), b.verbs.end());
    }
    return out;
}

void
checkSequences()
{
    for (const Workload w : kAll) {
        const std::string name = workloadName(w);
        check(lines(w, 7, 3) == lines(w, 7, 3),
              name + ": same seed gives byte-identical request lines");
        check(lines(w, 7, 3) != lines(w, 8, 3),
              name + ": another seed gives another order");
        const auto a = contents(w, 7, 3);
        const auto b = contents(w, 8, 3);
        bool same = true;
        for (size_t i = 0; i < a.size(); ++i)
            same = same && a[i].keys == b[i].keys && a[i].verbs == b[i].verbs;
        check(same, name + ": another seed only reorders each block's "
                           "keys and verbs");
        Sequence seq(w, 9);
        bool inUniverse = true;
        for (int i = 0; i < 5000; ++i) {
            const Draw d = seq.next();
            inUniverse = inUniverse && d.program >= 0 &&
                         d.program < static_cast<int>(universe().size());
        }
        check(inUniverse, name + ": every draw is in the universe");
    }
    // compile_cold: every edit comment is unique, so nothing can hit.
    Sequence cold(Workload::CompileCold, 3);
    bool unique = true;
    for (int64_t i = 0; i < 1000; ++i)
        unique = unique && cold.next().edit == i;
    check(unique, "compile_cold: every request carries a unique edit");
}

void
checkZipf()
{
    const auto shares = churnKeyShares();
    std::vector<double> sorted = shares;
    std::sort(sorted.rbegin(), sorted.rend());
    bool zipf = true;
    for (size_t r = 1; r < sorted.size(); ++r) {
        const double want = sorted[0] / static_cast<double>(r + 1);
        zipf = zipf && std::abs(sorted[r] - want) < 1e-12;
    }
    check(zipf, "serve_churn: key shares follow Zipf(1) by rank");
    for (const uint64_t seed : {1, 2, 3}) {
        Sequence seq(Workload::ServeChurn, seed);
        const size_t block = seq.blockSize();
        std::vector<int> counts(shares.size(), 0);
        const size_t blocks = 4;
        for (size_t i = 0; i < blocks * block; ++i) {
            const Draw d = seq.next();
            counts[d.program * 2 + (d.optimize ? 1 : 0)] += 1;
        }
        bool match = true;
        for (size_t k = 0; k < shares.size(); ++k) {
            const double want = shares[k] * static_cast<double>(blocks * block);
            match = match && std::abs(counts[k] - want) <=
                                 static_cast<double>(blocks);
        }
        check(match, "serve_churn seed " + std::to_string(seed) +
                         ": drawn key shares match Zipf within rounding");
    }
}

/** LRU over the churn sequence, sequentially, as one daemon worker
 *  would see it. */
double
simulatedHitRatio(uint64_t seed, size_t requests)
{
    const size_t capacity = shapeOf(Workload::ServeChurn).cacheEntries;
    std::list<int> lru;
    auto touch = [&](int key) {
        const auto it = std::find(lru.begin(), lru.end(), key);
        const bool hit = it != lru.end();
        if (hit)
            lru.erase(it);
        lru.push_front(key);
        if (lru.size() > capacity)
            lru.pop_back();
        return hit;
    };
    for (const Draw &d : warmup(Workload::ServeChurn))
        touch(d.program * 2 + (d.optimize ? 1 : 0));
    Sequence seq(Workload::ServeChurn, seed);
    size_t hits = 0;
    for (size_t i = 0; i < requests; ++i) {
        const Draw d = seq.next();
        hits += touch(d.program * 2 + (d.optimize ? 1 : 0)) ? 1 : 0;
    }
    return static_cast<double>(hits) / static_cast<double>(requests);
}

void
checkHitRatio()
{
    for (const uint64_t seed : {1, 2, 3, 4, 5}) {
        const double ratio = simulatedHitRatio(seed, 20000);
        char text[128];
        std::snprintf(text, sizeof(text),
                      "serve_churn seed %llu: LRU hit ratio %.3f in "
                      "[0.5, 0.8]",
                      static_cast<unsigned long long>(seed), ratio);
        check(ratio >= 0.5 && ratio <= 0.8, text);
    }
}

/**
 * A stand-in server: answers requests one at a time, each after
 * @p delay, and records how many were outstanding at once.
 */
class StubServer
{
  public:
    StubServer(const std::string &path, int connections,
               std::chrono::microseconds delay)
        : delay_(delay)
    {
        ::unlink(path.c_str());
        listener_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        if (listener_ < 0 ||
            ::bind(listener_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listener_, connections) != 0)
            throw std::runtime_error("stub server cannot listen on " + path);
        thread_ = std::thread([this, connections] { serve(connections); });
    }
    ~StubServer()
    {
        thread_.join();
        ::close(listener_);
    }
    StubServer(const StubServer &) = delete;
    StubServer &operator=(const StubServer &) = delete;

    int maxOutstanding() const { return maxOutstanding_.load(); }

  private:
    void serve(int connections)
    {
        std::vector<Conn> conns(connections);
        for (auto &c : conns)
            c.fd = ::accept(listener_, nullptr, nullptr);
        std::deque<Conn *> queue;
        int open = connections;
        std::string line;
        while (open > 0 || !queue.empty()) {
            std::vector<pollfd> fds;
            for (auto &c : conns) {
                if (c.fd >= 0)
                    fds.push_back({c.fd, POLLIN, 0});
            }
            ::poll(fds.data(), fds.size(), queue.empty() ? -1 : 0);
            for (auto &c : conns) {
                if (c.fd < 0)
                    continue;
                pollfd p{c.fd, POLLIN, 0};
                if (::poll(&p, 1, 0) <= 0)
                    continue;
                char chunk[1 << 16];
                const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
                if (n <= 0) {
                    ::close(c.fd);
                    c.fd = -1;
                    --open;
                    continue;
                }
                c.buffer.append(chunk, static_cast<size_t>(n));
                while (takeLine(c, line)) {
                    queue.push_back(&c);
                    maxOutstanding_ = std::max(
                        maxOutstanding_.load(), static_cast<int>(queue.size()));
                }
            }
            if (!queue.empty()) {
                std::this_thread::sleep_for(delay_);
                Conn *c = queue.front();
                queue.pop_front();
                if (c->fd >= 0)
                    sendLine(c->fd, "{\"id\":0,\"ok\":true,\"code\":0}");
            }
        }
    }

    std::chrono::microseconds delay_;
    int listener_ = -1;
    std::atomic<int> maxOutstanding_{0};
    std::thread thread_;
};

void
checkWindowAndLatency(const std::string &work)
{
    const auto delay = std::chrono::microseconds(2000);
    const std::string path = work + "/stub.sock";
    Expected expected;
    const uint64_t empty = responseDigest(0, "", "", "");
    for (size_t p = 0; p < universe().size(); ++p) {
        for (const bool opt : {false, true}) {
            for (const Verb v : {Verb::Compile, Verb::Simulate,
                                 Verb::Profile, Verb::Dse})
                expected[expectedKey({static_cast<int>(p), opt, v})] = empty;
        }
    }
    for (const int window : {1, 2}) {
        PhaseResult result;
        int serverMax = 0;
        {
            StubServer stub(path, window, delay);
            {
                Shape shape;
                shape.window = window;
                Daemon client("", path, "", shape);
                Sequence seq(Workload::ServeHot, 1);
                result =
                    client.run([&] { return seq.next(); }, 0, 60, expected);
            } // closing the client's connections ends the stub's loop
            serverMax = stub.maxOutstanding();
        }
        const std::string w = "window " + std::to_string(window);
        check(result.failed == 0 && result.sent == 60,
              w + ": 60 requests answered");
        check(result.maxInFlight <= window && serverMax <= window,
              w + ": client and server never see more than the window "
                  "in flight (client " +
                  std::to_string(result.maxInFlight) + ", server " +
                  std::to_string(serverMax) + ")");
        // The server answers one request per delay. With two in flight
        // the second waits for the first, and latency timed from send
        // includes that wait: its median is about two delays.
        std::vector<double> lat = result.latencyMs;
        std::sort(lat.begin(), lat.end());
        const double median = lat[lat.size() / 2];
        const double d = std::chrono::duration<double, std::milli>(delay)
                             .count();
        char text[160];
        std::snprintf(text, sizeof(text),
                      "%s: latency is timed from send (median %.2f ms, "
                      "service time %.2f ms)",
                      w.c_str(), median, d);
        check(median >= d * window * 0.9 && median < d * window + 5, text);
    }
}

void
checkReplyParser()
{
    Reply r;
    const bool ok = parseReply(
        "{\"id\":7,\"ok\":true,\"code\":0,\"cacheHit\":true,\"requestId\":"
        "\"r1\",\"output\":\"a\\\"b\\\\c\\nd\\u0001\",\"stats\":{\"x\":1.5}}",
        r);
    check(ok && r.id == 7 && r.ok && r.code == 0 &&
              r.output == "a\"b\\c\nd\x01" && r.stats["x"] == 1.5,
          "reply parser decodes escapes and stats");
    check(!parseReply("{\"id\":7,\"ok\":tru}", r),
          "reply parser rejects a malformed line");
}

} // namespace

int
selftest(const std::string &work)
{
    checkSequences();
    checkZipf();
    checkHitRatio();
    checkReplyParser();
    checkWindowAndLatency(work);
    std::printf("%s: %d failure(s)\n", failures ? "FAIL" : "PASS", failures);
    return failures ? 1 : 0;
}

} // namespace perfbench
