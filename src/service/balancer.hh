/**
 * @file
 * printed-balancer: the sharded front of a printedd fleet.
 *
 * Speaks the exact printedd protocol to clients and routes every
 * keyed compute request (synth/yield/sweep) to one of N worker
 * processes by consistent-hashing its routeKey() over a ShardMap
 * ring. Key affinity is the whole point: all work on one CoreConfig
 * lands on one shard, so that shard's in-memory SynthCache stays
 * hot and request coalescing still fires (per shard) even though
 * the fleet has no shared memory. Admin requests (metrics/health)
 * fan out to every shard and come back merged; shutdown is
 * acknowledged, propagated to every live shard, and then drains the
 * balancer itself.
 *
 * Streaming (protocol v2) passes through: partial frames from the
 * worker are forwarded to the client as they arrive, so the
 * balancer adds pipelining latency, not batching latency.
 *
 * Shard death — the mark-down state machine:
 *
 *     UP --connect/exchange failure--> DOWN (atomic flag)
 *     DOWN --probe ok--> UP
 *     probe cadence: capped exponential backoff per shard
 *
 * A request whose primary shard is down, fails mid-exchange, or
 * answers "shutting_down" (it is draining) is re-routed to the next
 * live shard in the key's ring-successor
 * order (ShardMap::failoverOrder — exactly the shard that would own
 * the key if the dead one left the ring). Because compute replies
 * are pure functions of the request line, the failover shard's
 * bytes are identical to the primary's; the balancer only annotates
 * the final reply with "degraded": true so clients can see they
 * were served by a fallback. A mid-stream failover rewrites
 * "resume_from" past the partials already forwarded, so the client
 * sees one gapless stream. When every candidate shard is down the
 * request is answered with an "unavailable" error (transient: the
 * RetryingClient treats it like queue_full).
 *
 * Worker fleet: either a list of externally managed host:port
 * workers (BalancerOptions::workers) or a self-spawned fleet
 * (spawnWorkers > 0): fork/exec `printedd --port 0`, parse the
 * bound port from the child's "printedd listening on" banner, and
 * reap the children on drain.
 *
 * Fault injection: an optional FaultPlan applies to compute frames
 * the balancer relays (drop/truncate/delay), so chaos tests can
 * exercise the client's resume path *through* the balancer, and its
 * queue_full rate refuses compute requests before they are routed.
 */

#ifndef PRINTED_SERVICE_BALANCER_HH
#define PRINTED_SERVICE_BALANCER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "service/client.hh"
#include "service/fault_plan.hh"
#include "service/line_server.hh"
#include "service/protocol.hh"
#include "service/shard_map.hh"

namespace printed::service
{

/** Address of one externally managed worker. */
struct WorkerAddress
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
};

/** Configuration of a Balancer. */
struct BalancerOptions
{
    /** Listen address of the balancer itself. */
    std::string host = "127.0.0.1";

    /** Listen port; 0 = ephemeral (read back via port()). */
    std::uint16_t port = 0;

    /** Externally managed workers (shard ids = vector indices). */
    std::vector<WorkerAddress> workers;

    /**
     * Self-spawned fleet size; > 0 forks this many `printedd
     * --port 0` children instead of using `workers`.
     */
    unsigned spawnWorkers = 0;

    /** printedd binary for spawn mode. */
    std::string printeddPath = "printedd";

    /** Extra argv passed to every spawned worker. */
    std::vector<std::string> workerArgs;

    /** Ring geometry (every party must agree for affinity math). */
    unsigned vnodes = ShardMap::kDefaultVnodes;
    std::uint64_t ringSeed = ShardMap::kDefaultSeed;

    /** Down-shard probe cadence and its per-shard backoff. */
    double probePeriodMs = 100;
    double probeBackoffBaseMs = 50;
    double probeBackoffMaxMs = 2000;

    /** Per-frame reply deadline on a worker exchange; 0 = none. */
    double shardCallTimeoutMs = 30000;

    /** Largest accepted request line; longer closes the client. */
    std::size_t maxRequestBytes = 1 << 20;

    /** Injected-fault schedule on compute requests and frames. */
    FaultPlan faultPlan;
};

/** Monotonic counters of one Balancer (rendered into metrics). */
struct BalancerStats
{
    std::atomic<std::uint64_t> requests{0};  ///< lines handled
    std::atomic<std::uint64_t> routed{0};    ///< keyed forwards
    std::atomic<std::uint64_t> fanouts{0};   ///< admin fan-outs
    std::atomic<std::uint64_t> partialsForwarded{0};
    std::atomic<std::uint64_t> failovers{0}; ///< degraded serves
    std::atomic<std::uint64_t> markedDown{0};
    std::atomic<std::uint64_t> revived{0};   ///< probe successes
    std::atomic<std::uint64_t> unavailable{0};
};

/** The printed-balancer TCP front. */
class Balancer
{
  public:
    explicit Balancer(BalancerOptions opts);
    ~Balancer();

    Balancer(const Balancer &) = delete;
    Balancer &operator=(const Balancer &) = delete;

    /**
     * Spawn workers (spawn mode), build the ring, bind, listen,
     * start the accept and probe threads.
     */
    void start();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return front_.port(); }

    /** Shard count (valid after start()). */
    std::size_t shardCount() const { return shards_.size(); }

    /** Is a shard currently marked up? (test introspection) */
    bool shardUp(unsigned shard) const;

    /** Worker address of a shard (valid after start()). */
    WorkerAddress shardAddress(unsigned shard) const;

    /** Request shutdown (does not touch the workers). */
    void beginShutdown();

    /** Block until shutdown, then drain and reap spawned workers. */
    void wait();

    const BalancerStats &stats() const { return stats_; }

  private:
    using ConnPtr = LineServer::ConnPtr;

    /** One worker and its mark-down state. */
    struct Shard
    {
        unsigned id = 0;
        WorkerAddress addr;
        pid_t pid = -1; ///< spawn mode only
        int stdoutFd = -1;
        std::thread stdoutDrain;
        std::atomic<bool> up{true};
        std::atomic<unsigned> probeFailures{0};
        std::chrono::steady_clock::time_point nextProbe{};
    };

    void probeLoop();

    /**
     * Handle one request line. `shardConns` is the connection's
     * private cache of worker connections (one reader handles its
     * connection's lines serially, so no locking).
     */
    void handleLine(const ConnPtr &conn, const std::string &line,
                    std::map<unsigned, Client> &shardConns);

    /** Route + forward one compute request (failover inside). */
    void routeCompute(const ConnPtr &conn, const Request &req,
                      const std::string &line,
                      std::map<unsigned, Client> &shardConns);

    /**
     * One forwarding attempt against one shard. Returns true when
     * a final frame was delivered to the client; false on shard
     * failure or a draining shard's "shutting_down" (the caller
     * marks it down and fails over). `forwardedOut` counts partial
     * frames relayed across attempts (feeds the failover
     * resume_from rewrite).
     */
    bool forwardAttempt(Shard &shard, Client &worker,
                        const ConnPtr &conn,
                        const std::string &wireLine, bool degraded,
                        std::uint64_t &forwardedOut);

    /** Every shard's `type` result body, as a JSON array in shard
     *  order. `use` sees each live body; a shard that fails (or whose
     *  body `use` throws on) is marked down and shows `downBody`. */
    std::string fanOut(
        std::map<unsigned, Client> &shardConns, RequestType type,
        const std::string &downBody,
        const std::function<void(const std::string &)> &use);

    /** Merged fan-out bodies. */
    std::string mergedMetricsBody(
        std::map<unsigned, Client> &shardConns);
    std::string mergedHealthBody(
        std::map<unsigned, Client> &shardConns);

    /** Render the balancer's own counters as a JSON object. */
    std::string balancerStatsBody() const;

    void markDown(Shard &shard);
    void propagateShutdown();

    /** Spawn-mode helpers. */
    void spawnWorker(unsigned index);
    void reapWorkers();

    void joinEverything();

    BalancerOptions opts_;
    LineServer front_{"balancer"};
    std::chrono::steady_clock::time_point started_;

    std::unique_ptr<ShardMap> ring_;
    std::vector<std::unique_ptr<Shard>> shards_;
    mutable std::mutex probeMutex_; ///< guards nextProbe times

    BalancerStats stats_;

    std::thread probeThread_;

    std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;
    bool joined_ = false;
};

} // namespace printed::service

#endif // PRINTED_SERVICE_BALANCER_HH
