/**
 * @file
 * The end-to-end load generator: starts a pmcd daemon, drives it over
 * its Unix-socket protocol from one thread with a closed-loop window of
 * connections (each behaves like a `pmc --connect` caller waiting for
 * its reply), checks every response against the expected digests, and
 * shuts the daemon down with the conservation check.
 */
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "universe.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** The fields of a pmcd response line the benchmark reads. */
struct Reply
{
    int64_t id = 0;
    bool ok = false;
    bool rejected = false;
    int code = 0;
    std::string output;
    std::string error;
    std::string profileJson;
    std::string metricsJson;
    std::map<std::string, double> stats;
};

/** Parses one response line; false when it is not a JSON object of the
 *  response's shape. Independent of the program's own JSON code so the
 *  client's cost does not move with it. */
bool parseReply(const std::string &line, Reply &out);

/** What one closed-loop phase observed. */
struct PhaseResult
{
    std::vector<double> latencyMs; ///< send to full response, per reply
    int64_t sent = 0;
    int64_t failed = 0; ///< not ok, refused, or wrong bytes
    double seconds = 0; ///< first send to last reply
    int maxInFlight = 0;
    std::string firstFailure;
};

/** One connection of the closed loop. */
struct Conn
{
    int fd = -1;
    std::string buffer; ///< bytes read past the last full line
    bool busy = false;
    Clock::time_point sentAt;
    Draw draw;
};

/**
 * A running pmcd child process and the client's connections to it.
 * The destructor kills and reaps a daemon that was not shut down.
 */
class Daemon
{
  public:
    /** Starts @p pmcd listening on @p socket (stderr to @p log) and
     *  opens the shape's window of connections once it accepts. With
     *  an empty @p pmcd it connects to a server already listening. */
    Daemon(const std::string &pmcd, const std::string &socket,
           const std::string &log, const Shape &shape);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Closed loop: keeps every connection busy with the next draw of
     * @p next until @p seconds pass (or @p count draws when count >= 0),
     * then waits for the outstanding replies.
     */
    template <typename Next>
    PhaseResult run(Next &&next, double seconds, int64_t count,
                    const Expected &expected);

    /** One control request (stats/metrics/shutdown) on connection 0;
     *  @p fields are extra JSON members, each starting with a comma. */
    Reply control(const std::string &verb, const std::string &fields = "");

    /** Sends shutdown, reaps the process, and checks that it exited
     *  cleanly with completed + rejected == offered == @p workSent and
     *  nothing rejected. @return "" or the failure. */
    std::string shutdown(int64_t workSent);

    /** Peak resident set (VmHWM) of the daemon in MiB, read just
     *  before shutdown() sends its request. */
    double peakRssMb() const { return peakRssMb_; }

  private:
    void spawn(const std::string &pmcd, const std::string &socket,
               const std::string &log, const Shape &shape);
    void dispatch(const Draw &d, Conn &c);
    /** Reads until @p c holds one full line; returns it. */
    std::string readLine(Conn &c);

    pid_t pid_ = -1;
    std::vector<Conn> conns_;
    int64_t nextId_ = 1;
    double peakRssMb_ = 0;
};

/** Sends @p line plus a newline on @p fd. @throws std::runtime_error. */
void sendLine(int fd, const std::string &line);
/** Moves one full line out of @p c's buffer; false when none yet. */
bool takeLine(Conn &c, std::string &line);
/** Blocks until a busy connection of @p conns has bytes, and reads
 *  them into its buffer. @throws std::runtime_error when one closes. */
void waitReadable(std::vector<Conn> &conns);

/** Checks @p r against the expected digest of @p d; "" when right. */
std::string checkReply(const Draw &d, const Reply &r,
                       const Expected &expected);

/** The generator's self-checks (sequences, Zipf shares, churn hit
 *  ratio, window, send-time latency), temporary files under @p work.
 *  @return the process exit code. */
int selftest(const std::string &work);

template <typename Next>
PhaseResult
Daemon::run(Next &&next, double seconds, int64_t count,
            const Expected &expected)
{
    PhaseResult result;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    auto more = [&] {
        return count >= 0 ? result.sent < count : Clock::now() < deadline;
    };
    int inFlight = 0;
    auto send = [&](Conn &c) {
        c.draw = next();
        c.busy = true;
        ++inFlight;
        result.maxInFlight = std::max(result.maxInFlight, inFlight);
        ++result.sent;
        dispatch(c.draw, c);
    };
    for (auto &c : conns_) {
        if (more())
            send(c);
    }
    auto lastReply = start;
    std::string line;
    while (inFlight > 0) {
        for (auto &c : conns_) {
            if (!c.busy)
                continue;
            // Each connection has one request outstanding, so the next
            // full line on it is that request's reply.
            if (!takeLine(c, line))
                continue;
            const auto now = Clock::now();
            lastReply = now;
            result.latencyMs.push_back(
                std::chrono::duration<double, std::milli>(now - c.sentAt)
                    .count());
            c.busy = false;
            --inFlight;
            Reply r;
            const std::string bad = parseReply(line, r)
                                        ? checkReply(c.draw, r, expected)
                                        : "unparsable reply";
            if (!bad.empty()) {
                ++result.failed;
                if (result.firstFailure.empty())
                    result.firstFailure = expectedKey(c.draw) + ": " + bad;
            }
            if (more())
                send(c);
        }
        if (inFlight > 0)
            waitReadable(conns_);
    }
    result.seconds =
        std::chrono::duration<double>(lastReply - start).count();
    return result;
}

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H_
