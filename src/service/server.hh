/**
 * @file
 * printedd: the long-running evaluation service.
 *
 * Serves the protocol of protocol.hh over loopback TCP. The server
 * is structured as
 *
 *   accept thread -> one reader thread per connection
 *                 -> bounded request queue (admission control)
 *                 -> executor threads  -> shared compute ThreadPool
 *
 * Admission: compute requests (synth/yield/sweep) enter a bounded
 * FIFO queue; when it is full the request is answered immediately
 * with a "queue_full" error instead of being buffered without
 * limit. Introspection (metrics/health) and admin (shutdown) are
 * answered inline by the reader thread and never queue.
 *
 * Deadlines: a request's optional "deadline_ms" is relative to
 * admission. It is checked when an executor dequeues the request
 * and between sweep points, so a deadline shorter than the queue
 * wait or a sweep's remaining work yields a "deadline_exceeded"
 * error without burning further compute.
 *
 * Coalescing: identical in-flight compute requests (equal
 * coalesceKey) share one execution via a promise/shared_future map
 * — the same idiom as the SynthCache, and the same failure
 * semantics (exception stored before the entry is dropped). A
 * follower woken by a *leader's* deadline abort retries as leader
 * if its own deadline still has room.
 *
 * Drain: shutdown (the request type, Server::~Server, or a signal
 * via beginShutdown()) stops admission — new compute requests get
 * "shutting_down" — then lets the executors finish every admitted
 * request before the sockets close, so no accepted request is ever
 * silently dropped.
 *
 * Load shedding: under pressure the admission queue rejects by
 * request *class* before it is actually full — heavy sweeps are
 * shed first (above ~50% depth), yields next (~75%), synths only
 * when the queue is truly full. health/metrics never queue, so the
 * control plane stays answerable no matter the load. Every
 * queue_full rejection carries a "retry_after_ms" backoff hint
 * scaled to the current depth.
 *
 * Watchdog: a periodic thread watches the per-executor work slots
 * and flags workers that have run past their request's deadline
 * ("service.watchdog_overruns" counter, "service.workers_overrun"
 * gauge) — deadline overruns become observable instead of silent.
 *
 * Fault injection: an optional seeded FaultPlan (fault_plan.hh)
 * makes the server misbehave on purpose — drop/truncate/delay
 * compute replies, force queue_full, corrupt disk-cache entries at
 * start — for chaos tests of the client retry path.
 *
 * Persistence: with ServerOptions::diskCacheDir set, start()
 * installs a crash-safe on-disk tier (synth/disk_cache.hh) under
 * the process-wide SynthCache, so synthesis results survive
 * restarts (including kill -9).
 *
 * Determinism: compute replies are byte-identical functions of the
 * request line (protocol.hh); the executor/coalescing machinery
 * only decides *when* and *by whom* a reply is computed, never its
 * bytes. Everything else the server touches (metrics, traces) is
 * observational only.
 */

#ifndef PRINTED_SERVICE_SERVER_HH
#define PRINTED_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "service/fault_plan.hh"
#include "service/line_server.hh"
#include "service/protocol.hh"

namespace printed
{
class DiskCache;
}

namespace printed::service
{

/** Configuration of a Server. */
struct ServerOptions
{
    /** Listen address (loopback by default — printedd is local). */
    std::string host = "127.0.0.1";

    /** Listen port; 0 = ephemeral (read back via Server::port()). */
    std::uint16_t port = 0;

    /** Executor threads draining the request queue. */
    unsigned executors = 2;

    /**
     * Threads of the shared compute pool (yield trials, sweep
     * points); 0 = hardware concurrency.
     */
    unsigned poolThreads = 0;

    /** Admission-queue capacity; beyond it requests are rejected. */
    std::size_t maxQueue = 64;

    /** Largest accepted request line; longer closes the client. */
    std::size_t maxRequestBytes = 1 << 20;

    /**
     * SynthCache::global() entry cap installed at start(); 0 leaves
     * the cache unbounded (the bench/test default).
     */
    std::size_t cacheCapacity = 0;

    /**
     * Directory of the persistent synthesis cache; empty = no disk
     * tier. start() installs it under SynthCache::global(),
     * joinEverything() uninstalls it.
     */
    std::string diskCacheDir;

    /** Injected-fault schedule; disabled by default. */
    FaultPlan faultPlan;

    /** Watchdog scan period; 0 disables the watchdog thread. */
    double watchdogPeriodMs = 50;
};

/** The printedd TCP server. */
class Server
{
  public:
    explicit Server(ServerOptions opts = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and spawn the service threads. */
    void start();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return front_.port(); }

    /**
     * Request shutdown: stop admitting compute requests and wake
     * wait(). Safe from any thread, including reader threads (the
     * "shutdown" request type calls this); returns immediately.
     */
    void beginShutdown();

    /**
     * Block until shutdown is requested, then drain: finish every
     * admitted request, join all threads, close all sockets.
     */
    void wait();

  private:
    using ConnPtr = LineServer::ConnPtr;

    /** One admitted compute request. */
    struct Task
    {
        Request req;
        ConnPtr conn;
        std::chrono::steady_clock::time_point admitted;
        bool hasDeadline = false;
        std::chrono::steady_clock::time_point deadline;
    };

    void executorLoop(unsigned slot);
    void watchdogLoop();

    /** Handle one request line from a connection. */
    void handleLine(const ConnPtr &conn, const std::string &line);

    /**
     * Class-aware admission (see file comment): queue the task, or
     * return its rejection reply (queue_full with a depth-scaled
     * retry_after_ms hint, or shutting_down).
     */
    std::optional<std::string> admit(Task task);
    void execute(Task &task, unsigned slot);

    /**
     * Serve a "stream": true request (protocol v2): partial frames
     * in point order starting at resume_from, then a done frame.
     * Sends its own frames; every frame is faultable like a
     * monolithic compute reply. Returns false when the client went
     * away mid-stream; throws on a deadline or a bad resume_from.
     */
    bool streamTask(const Task &task);

    /**
     * Result body of a compute request, deduped against identical
     * in-flight requests. Throws DeadlineError (internal) when the
     * deadline expires mid-execution.
     */
    std::string coalesced(const Task &task);

    /** Compute the result body of a task (no coalescing). */
    std::string computeBody(const Task &task);

    /** The one per-point loop of a sweep (synth or ISS): points
     *  resume_from..N-1 in order, deadline-checked (and, for a
     *  stream, client-checked) before each, bodies to `sink`.
     *  Returns N, or nothing when a streaming client went away. */
    std::optional<std::uint64_t> sweepPoints(
        const Task &task,
        const std::function<void(std::uint64_t index,
                                 std::uint64_t total,
                                 const std::string &body)> &sink);

    std::string metricsBody() const;
    std::string healthBody();

    void joinEverything();

    ServerOptions opts_;
    LineServer front_{"service"};
    std::chrono::steady_clock::time_point started_;

    ThreadPool pool_;
    std::mutex poolMutex_; ///< the pool runs one job at a time

    std::vector<std::thread> executors_;

    /** What one executor is working on, for the watchdog. */
    struct ExecSlot
    {
        std::atomic<std::int64_t> startNs{0};    ///< 0 = idle
        std::atomic<std::int64_t> deadlineNs{0}; ///< 0 = none
        std::atomic<bool> reported{false};
    };
    std::unique_ptr<ExecSlot[]> execSlots_;
    unsigned executorCount_ = 0;
    std::thread watchdog_;
    std::mutex watchdogMutex_;
    std::condition_variable watchdogCv_;
    bool watchdogStop_ = false;

    std::shared_ptr<DiskCache> installedDisk_;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<Task> queue_;
    bool finishing_ = false; ///< shutdown requested; drain mode

    std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;
    bool joined_ = false;

    /** In-flight compute executions, by coalesceKey. */
    struct Inflight
    {
        std::shared_future<std::string> future;
        std::uint64_t id = 0;
    };
    std::mutex coalesceMutex_;
    std::map<std::string, Inflight> inflight_;
    std::uint64_t nextInflightId_ = 0;
};

} // namespace printed::service

#endif // PRINTED_SERVICE_SERVER_HH
