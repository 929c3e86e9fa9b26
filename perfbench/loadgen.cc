#include "loadgen.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

// ---- a minimal reader for the response's JSON object ---------------

class Reader
{
  public:
    explicit Reader(const std::string &s) : s_(s) {}

    bool object(Reply &r)
    {
        if (!eat('{'))
            return false;
        if (eat('}'))
            return true;
        do {
            std::string key;
            if (!string(key) || !eat(':'))
                return false;
            if (!field(key, r))
                return false;
        } while (eat(','));
        return eat('}') && i_ == s_.size();
    }

  private:
    bool field(const std::string &key, Reply &r)
    {
        if (key == "output") return string(r.output);
        if (key == "error") return string(r.error);
        if (key == "profileJson") return string(r.profileJson);
        if (key == "metricsJson") return string(r.metricsJson);
        if (key == "ok") return boolean(r.ok);
        if (key == "rejected") return boolean(r.rejected);
        if (key == "code") {
            double v = 0;
            if (!number(v))
                return false;
            r.code = static_cast<int>(v);
            return true;
        }
        if (key == "id") {
            double v = 0;
            if (!number(v))
                return false;
            r.id = static_cast<int64_t>(v);
            return true;
        }
        if (key == "stats") {
            if (!eat('{'))
                return false;
            if (eat('}'))
                return true;
            do {
                std::string name;
                double v = 0;
                if (!string(name) || !eat(':') || !number(v))
                    return false;
                r.stats[name] = v;
            } while (eat(','));
            return eat('}');
        }
        return skip();
    }

    bool eat(char c)
    {
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    bool boolean(bool &v)
    {
        if (s_.compare(i_, 4, "true") == 0) {
            v = true;
            i_ += 4;
            return true;
        }
        if (s_.compare(i_, 5, "false") == 0) {
            v = false;
            i_ += 5;
            return true;
        }
        return false;
    }

    bool number(double &v)
    {
        const char *begin = s_.c_str() + i_;
        char *end = nullptr;
        v = std::strtod(begin, &end);
        if (end == begin)
            return false;
        i_ += static_cast<size_t>(end - begin);
        return true;
    }

    static int hexDigit(char c)
    {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
    }

    bool string(std::string &out)
    {
        if (!eat('"'))
            return false;
        out.clear();
        // Next quote and next backslash at or after i_, each found with
        // memchr and kept until passed, so every byte is scanned once
        // per kind: the client must stay cheap next to the daemon.
        size_t quote = 0, escape = 0;
        auto next = [this](char c) {
            const void *p = std::memchr(s_.data() + i_, c, s_.size() - i_);
            return p ? static_cast<size_t>(static_cast<const char *>(p) -
                                           s_.data())
                     : s_.size();
        };
        bool first = true;
        for (;;) {
            if (first || quote < i_)
                quote = next('"');
            if (first || escape < i_)
                escape = next('\\');
            first = false;
            const size_t stop = std::min(quote, escape);
            if (stop == s_.size())
                return false;
            out.append(s_, i_, stop - i_);
            i_ = stop + 1;
            if (s_[stop] == '"')
                return true;
            if (i_ >= s_.size())
                return false;
            const char e = s_[i_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (i_ + 4 > s_.size())
                    return false;
                unsigned cp = 0;
                for (int k = 0; k < 4; ++k) {
                    const int d = hexDigit(s_[i_ + k]);
                    if (d < 0)
                        return false;
                    cp = cp * 16 + static_cast<unsigned>(d);
                }
                i_ += 4;
                // The daemon escapes only control bytes this way.
                if (cp >= 0x80)
                    return false;
                out += static_cast<char>(cp);
                break;
              }
              default: return false;
            }
        }
    }

    bool skip()
    {
        if (i_ >= s_.size())
            return false;
        const char c = s_[i_];
        if (c == '"') {
            std::string ignored;
            return string(ignored);
        }
        if (c == 't' || c == 'f') {
            bool ignored = false;
            return boolean(ignored);
        }
        if (c == 'n')
            return s_.compare(i_, 4, "null") == 0 && (i_ += 4, true);
        if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            ++i_;
            if (eat(close))
                return true;
            do {
                if (c == '{') {
                    std::string key;
                    if (!string(key) || !eat(':'))
                        return false;
                }
                if (!skip())
                    return false;
            } while (eat(','));
            return eat(close);
        }
        double ignored = 0;
        return number(ignored);
    }

    const std::string &s_;
    size_t i_ = 0;
};

int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw std::runtime_error("socket(): " + std::string(strerror(errno)));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** The request line of @p d with id @p id. Each (key, verb) line is
 *  escaped once and later requests only splice in the id and the edit
 *  number, so the client does not re-escape the source per request. */
std::string
cachedLine(const Draw &d, int64_t id)
{
    static std::unordered_map<std::string,
                              std::pair<std::string, std::string>>
        parts;
    const std::string key = expectedKey(d) + "#" +
                            (d.edit >= 0 ? "e" : d.edit == -2 ? "w" : "");
    auto it = parts.find(key);
    if (it == parts.end()) {
        Draw probe = d;
        probe.edit = d.edit >= 0 ? 0 : d.edit;
        std::string line = requestLine(probe, 0);
        const std::string head = "{\"id\":0";
        line.erase(0, head.size());
        std::string tail;
        if (d.edit >= 0) {
            // Split around the "0" of "// edit 0".
            const std::string lead = "// edit ";
            const size_t at = line.rfind(lead + "0\\n\"");
            if (at == std::string::npos)
                throw std::runtime_error("edit comment not found");
            tail = line.substr(at + lead.size() + 1);
            line.erase(at + lead.size());
        }
        it = parts.emplace(key, std::make_pair(line, tail)).first;
    }
    std::string line = "{\"id\":" + std::to_string(id) + it->second.first;
    if (d.edit >= 0)
        line += std::to_string(d.edit) + it->second.second;
    return line;
}

} // namespace

bool
parseReply(const std::string &line, Reply &out)
{
    Reader reader(line);
    return reader.object(out);
}

void
sendLine(int fd, const std::string &line)
{
    std::string data = line;
    data += '\n';
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error("send(): " +
                                     std::string(strerror(errno)));
        }
        off += static_cast<size_t>(n);
    }
}

bool
takeLine(Conn &c, std::string &line)
{
    const size_t nl = c.buffer.find('\n');
    if (nl == std::string::npos)
        return false;
    line.assign(c.buffer, 0, nl);
    c.buffer.erase(0, nl + 1);
    return true;
}

namespace {

void
fill(Conn &c)
{
    char chunk[1 << 16];
    for (;;) {
        const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            c.buffer.append(chunk, static_cast<size_t>(n));
            return;
        }
        if (n == 0)
            throw std::runtime_error("pmcd closed the connection");
        if (errno != EINTR)
            throw std::runtime_error("recv(): " +
                                     std::string(strerror(errno)));
    }
}

} // namespace

void
waitReadable(std::vector<Conn> &conns)
{
    std::vector<pollfd> fds;
    std::vector<Conn *> owners;
    for (auto &c : conns) {
        if (c.busy) {
            fds.push_back({c.fd, POLLIN, 0});
            owners.push_back(&c);
        }
    }
    for (;;) {
        const int n = ::poll(fds.data(), fds.size(), 60000);
        if (n > 0)
            break;
        if (n == 0)
            throw std::runtime_error("no reply from pmcd for 60 s");
        if (errno != EINTR)
            throw std::runtime_error("poll(): " +
                                     std::string(strerror(errno)));
    }
    for (size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents != 0)
            fill(*owners[i]);
    }
}

std::string
checkReply(const Draw &d, const Reply &r, const Expected &expected)
{
    if (r.rejected)
        return "refused by admission control";
    if (!r.ok)
        return "not ok: " + r.error;
    return checkOutput(d, r.code, r.output, r.error, r.profileJson,
                       expected);
}

namespace {

/** Peak resident set (VmHWM) of process @p pid in MiB, 0 if unreadable. */
double
vmHwmMb(pid_t pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0;
}

} // namespace

Daemon::Daemon(const std::string &pmcd, const std::string &socket,
               const std::string &log, const Shape &shape)
{
    if (!pmcd.empty())
        spawn(pmcd, socket, log, shape);
    const auto start = Clock::now();
    while (static_cast<int>(conns_.size()) < shape.window) {
        const int fd = connectTo(socket);
        if (fd >= 0) {
            conns_.push_back({});
            conns_.back().fd = fd;
            continue;
        }
        int status = 0;
        if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("pmcd exited at start; see " + log);
        }
        if (secondsSince(start) > 30)
            throw std::runtime_error("pmcd did not listen within 30 s");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

void
Daemon::spawn(const std::string &pmcd, const std::string &socket,
              const std::string &log, const Shape &shape)
{
    ::unlink(socket.c_str());
    std::vector<std::string> args = {pmcd, "--socket", socket, "-j",
                                     std::to_string(shape.workers)};
    if (shape.cacheEntries > 0) {
        args.push_back("--cache-entries");
        args.push_back(std::to_string(shape.cacheEntries));
    }
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const int logFd =
        ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    const int nullFd = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
    if (logFd < 0 || nullFd < 0)
        throw std::runtime_error("cannot open " + log);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
        // The daemon dies with the benchmark, however the benchmark
        // ends (a killed run must not leave a pmcd behind).
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        ::dup2(nullFd, 1);
        ::dup2(logFd, 2);
        ::execv(pmcd.c_str(), argv.data());
        ::_exit(127);
    }
    ::close(logFd);
    ::close(nullFd);
    if (pid_ < 0) {
        pid_ = -1;
        throw std::runtime_error("cannot start " + pmcd + ": " +
                                 strerror(errno));
    }
}

Daemon::~Daemon()
{
    for (auto &c : conns_) {
        if (c.fd >= 0)
            ::close(c.fd);
    }
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
    }
}

void
Daemon::dispatch(const Draw &d, Conn &c)
{
    const std::string line = cachedLine(d, nextId_++);
    c.sentAt = Clock::now();
    sendLine(c.fd, line);
}

std::string
Daemon::readLine(Conn &c)
{
    std::string line;
    while (!takeLine(c, line)) {
        pollfd p{c.fd, POLLIN, 0};
        if (::poll(&p, 1, 60000) <= 0)
            throw std::runtime_error("no control reply from pmcd");
        fill(c);
    }
    return line;
}

Reply
Daemon::control(const std::string &verb, const std::string &fields)
{
    Conn &c = conns_.front();
    sendLine(c.fd, "{\"id\":" + std::to_string(nextId_++) +
                       ",\"verb\":\"" + verb + "\"" + fields + "}");
    Reply r;
    if (!parseReply(readLine(c), r) || !r.ok)
        throw std::runtime_error(verb + " request failed: " + r.error);
    return r;
}

std::string
Daemon::shutdown(int64_t workSent)
{
    // VmHWM belongs to the exec'd daemon's own address space; wait4's
    // ru_maxrss would also carry the forked client's pre-exec peak.
    peakRssMb_ = vmHwmMb(pid_);
    if (peakRssMb_ <= 0)
        return "cannot read VmHWM of pmcd";
    const Reply r = control("shutdown");
    for (auto &c : conns_) {
        ::close(c.fd);
        c.fd = -1;
    }
    int status = 0;
    const pid_t waited = ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (waited < 0)
        return "waitpid(): " + std::string(strerror(errno));
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return "pmcd did not exit cleanly";
    auto stat = [&r](const char *name) {
        const auto it = r.stats.find(name);
        return it == r.stats.end() ? -1.0 : it->second;
    };
    const double offered = stat("offered");
    const double completed = stat("completed");
    const double rejected = stat("rejected");
    if (completed + rejected != offered)
        return "conservation broken: completed + rejected != offered";
    if (offered != static_cast<double>(workSent))
        return "pmcd counted " + std::to_string(offered) +
               " offered requests, the client sent " +
               std::to_string(workSent);
    if (rejected != 0)
        return "pmcd rejected " + std::to_string(rejected) + " requests";
    return "";
}

} // namespace perfbench
