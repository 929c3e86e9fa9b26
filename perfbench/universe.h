/**
 * @file
 * The benchmark's fixed request universe and its seeded request
 * sequences (see perfbench/README.md for why each workload exists).
 *
 * The universe is a fixed list of PMLang programs: the 17 Table III/IV
 * programs plus size variants from the public generators of
 * workloads/programs.h. A workload's sequence is an endless stream of
 * (program, optimize, verb) draws. The seed only permutes: every block
 * of a sequence holds the same multiset of keys and verbs for any seed,
 * so two seeds do the same work in a different order.
 */
#ifndef PERFBENCH_UNIVERSE_H_
#define PERFBENCH_UNIVERSE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One program of the universe. */
struct Program
{
    std::string name;   ///< e.g. "ResNet-18" or "FFT-1024"
    std::string target; ///< --target keyword (RBT|GA|DSP|DA|DL|ALL)
    std::string source;
    std::string entry = "main";
    std::map<std::string, int64_t> params;
    bool tableProgram = false; ///< one of the 17 Table III/IV programs
};

/** The fixed universe, in a fixed order. */
const std::vector<Program> &universe();

/** Work verbs the benchmark sends. */
enum class Verb
{
    Compile,
    Simulate,
    Profile,
    Dse,
};
const char *verbName(Verb verb);

/** One request of a sequence. */
struct Draw
{
    int program = 0;       ///< index into universe()
    bool optimize = false;
    Verb verb = Verb::Compile;
    /** >= 0: a unique trailing comment "// edit <n>" is appended to the
     *  source, so the compile cache never holds the key; -2: the
     *  compile_cold warm-up comment; -1: the source as is. */
    int64_t edit = -1;
};

enum class Workload
{
    CompileCold,
    ServeHot,
    ServeChurn,
};
const char *workloadName(Workload w);
/** @return false when @p name is not a workload. */
bool workloadFromName(const std::string &name, Workload &out);

/** Daemon shape of a workload. */
struct Shape
{
    int workers = 1;       ///< pmcd -j
    int window = 1;        ///< requests the client keeps in flight
    size_t cacheEntries = 0; ///< pmcd --cache-entries (0 = default)
};
Shape shapeOf(Workload w);

/** The endless seeded request stream of a workload. */
class Sequence
{
  public:
    Sequence(Workload w, uint64_t seed);

    /** The next request. */
    Draw next();

    /** Requests per block: every block holds the same multiset of
     *  (program, optimize) keys and of verbs, whatever the seed. */
    size_t blockSize() const;

  private:
    void refill();

    Workload workload_;
    uint64_t rng_;
    std::vector<Draw> block_;
    size_t pos_ = 0;
    int64_t issued_ = 0;
};

/**
 * Requests sent before timing starts: for serve_hot one simulate and
 * one profile per program (every later compile is a hit), for
 * serve_churn one compile of each of the most popular keys, for
 * compile_cold one compile of each program under a warm-up comment.
 */
std::vector<Draw> warmup(Workload w);

/** serve_churn's key popularity: the Zipf probability of each
 *  (program, optimize) key, index = program * 2 + optimize. */
std::vector<double> churnKeyShares();

/** The JSON request line (no newline) that pmc --connect would send. */
std::string requestLine(const Draw &d, int64_t id);

/** 64-bit digest of the bytes of a response the user sees: exit code,
 *  stdout, stderr, and the profile document (little-endian words). */
uint64_t responseDigest(int code, const std::string &output,
                        const std::string &error,
                        const std::string &profileJson);

/** Expected digests keyed by "program/optimize/verb". */
using Expected = std::map<std::string, uint64_t>;
std::string expectedKey(const Draw &d);

/** Checks one reply to @p d (exit code and user-visible bytes)
 *  against @p expected; "" when right, else what is wrong. */
std::string checkOutput(const Draw &d, int code, const std::string &output,
                        const std::string &error,
                        const std::string &profileJson,
                        const Expected &expected);
/** Loads the committed table; @throws std::runtime_error on a bad file. */
Expected loadExpected(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_UNIVERSE_H_
