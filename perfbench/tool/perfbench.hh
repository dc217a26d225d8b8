/**
 * @file
 * perfbench-tool: the compiled half of the repository benchmark.
 *
 * perfbench/run.py owns process management (building, spawning
 * printedd / printed-balancer, /proc resource probes, statistics and
 * the final report). This tool does everything that must speak the
 * repository's own C++ API:
 *
 *   requests  print the seeded request stream of a workload
 *   warm      send a workload's set-up requests to a daemon
 *   golden    print the in-process digest of the golden request set
 *   load      closed-loop load against a daemon or balancer, the
 *             golden-set and reference checks of every reply, and
 *             (traced runs) the per-layer probes
 *   probe     the paced compute probe (and hier flows) on a daemon
 *   tiled     the in-process million-gate hierarchical flow
 *
 * Every request is a pure function of (workload, seed, index), so
 * the replies folded in index order form a digest that does not
 * depend on how many connections carried them.
 */

#ifndef PERFBENCH_TOOL_PERFBENCH_HH
#define PERFBENCH_TOOL_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Microseconds between two clock readings. */
inline double
micros(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** What one generated request asks the service for (the order is
 *  the records file's kind column, benchlib.KINDS). */
enum class ReqKind : std::uint8_t
{
    Synth,
    Yield,
    YieldStream,
    Iss,
    ClassifyStream,
};

/** The core every yield request and probe runs on (p1_8_2). */
printed::CoreConfig yieldConfig();

/** True for the kinds answered with partial frames. */
inline bool
isStream(ReqKind kind)
{
    return kind == ReqKind::YieldStream ||
           kind == ReqKind::ClassifyStream;
}

/** One generated request. */
struct GenRequest
{
    ReqKind kind = ReqKind::Synth;
    bool fresh = false;  ///< sent on its own connect/call/close
    std::string id;      ///< the request id echoed in the reply
    std::string line;    ///< the request line (no newline)
};

/** FNV-1a 64 over bytes, continuing from `h`. */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

inline std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    return fnv1a(s.data(), s.size(), h);
}

/** Fold per-request reply hashes, in index order, into a digest. */
std::uint64_t foldDigest(const std::vector<std::uint64_t> &hashes);

/** "0x%016x". */
std::string hex64(std::uint64_t v);

/**
 * Every synthesis key the synth workloads draw from: the Figure-7
 * grid (stages x width x bars) x every opcode mask that keeps a
 * result-producing instruction x the tri-state result mux on/off,
 * in canonical order.
 */
std::vector<printed::CoreConfig> keyUniverse();

/** Zipf(s) over ranks [0, n), drawn from a 64-bit uniform. */
class Zipf
{
  public:
    Zipf(std::size_t n, double s);
    std::size_t draw(std::uint64_t u) const;

  private:
    std::vector<double> cdf_;
};

/** The seeded request stream of one workload. */
class Generator
{
  public:
    /** fatal()s on an unknown workload name. */
    Generator(std::string workload, std::uint64_t seed);

    /** Request `index` of the stream: a pure function of it. */
    GenRequest at(std::uint64_t index) const;

    /** Requests the stream can issue (keys drawn without
     *  replacement run out). */
    std::uint64_t limit() const;

    /** Set-up requests sent before measuring (cache pre-warm). */
    std::vector<GenRequest> warmup() const;

  private:
    std::string workload_;
    std::uint64_t seed_;
    std::vector<printed::CoreConfig> keys_; ///< seeded permutation
    Zipf zipf_;
};

/** Names of the service workloads (a daemon or balancer serves). */
bool isServiceWorkload(const std::string &workload);

/**
 * The seed-independent golden request set: its replies, folded in
 * order, must equal the digest recorded in perfbench/expected.json.
 */
std::vector<GenRequest> goldenRequests();

/**
 * The fixed compute probe of workloads whose own traffic has no
 * yield / classify / ISS sweep requests: `perKind` of each, seeded
 * apart from the workload stream.
 */
std::vector<GenRequest> computeProbe(std::uint64_t seed,
                                     unsigned perKind);

/** Tiny JSON object writer (keys in insertion order). */
class JsonOut
{
  public:
    JsonOut &num(const std::string &key, double v);
    JsonOut &str(const std::string &key, const std::string &v);
    JsonOut &boolean(const std::string &key, bool v);
    JsonOut &raw(const std::string &key, const std::string &json);
    std::string text() const { return "{" + body_ + "}"; }

  private:
    void key(const std::string &k);
    std::string body_;
};

/** JSON array of numbers. */
std::string jsonArray(const std::vector<double> &v);

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);

/** Named per-layer values (the traced run's ledger inputs). */
using LayerMap = std::map<std::string, double>;

/** Options of the load subcommand. */
struct LoadOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::uint16_t relayPort = 0; ///< a printed-balancer in front
    unsigned conns = 1;
    std::uint64_t first = 0; ///< index of the run's first request
    std::uint64_t count = 0; ///< stop after this many requests (0 = time only)
    std::uint64_t maxFresh = 0; ///< end the run after this many
                                ///< fresh connections (0 = no limit;
                                ///< a traced run's halves get half)
    std::string outPath;     ///< result JSON
    std::string recordsPath; ///< per-request binary records
    std::string scratchDir;  ///< disk-tier probe directory
    bool hier = false;       ///< probe: run the hier probe flows too
    unsigned part = 0, parts = 1; ///< probe: send slice `part` of `parts`
};

int runLoadCommand(const LoadOptions &opts);

/**
 * Slice `opts.part` of `opts.parts` of the compute probe
 * (computeProbe()) sent sequentially to the daemon at `opts.port`,
 * every reply checked against the reference; writes the records and a
 * result JSON like the load command.
 */
int runProbeCommand(const LoadOptions &opts);

/** Options of the tiled subcommand. */
struct TiledOptions
{
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    std::size_t targetGates = 1000000; ///< tiledConfigForGates target
    bool serialCheck = false;    ///< also compare with a 1-thread flow
    std::uint16_t port = 0;      ///< traced: an idle printedd
    std::uint16_t relayPort = 0; ///< traced: a balancer in front of it
    std::string outPath;
    std::string recordsPath;
    std::string scratchDir;
};

int runTiledCommand(const TiledOptions &opts);

/**
 * In-process probes of the module layers (traced runs): times calls
 * into each module's public functions on inputs of the workload.
 * `sample` holds request lines of the run.
 */
LayerMap probeLayers(const std::string &workload,
                     const std::vector<GenRequest> &sample,
                     const std::string &scratchDir);

} // namespace perfbench

#endif // PERFBENCH_TOOL_PERFBENCH_HH
