#include "server.hh"

#include "common/json_min.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "common/trace.hh"
#include "dse/sweep.hh"
#include "synth/cache.hh"
#include "synth/disk_cache.hh"

namespace printed::service
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Internal: a request's deadline expired mid-execution. */
struct DeadlineError : std::runtime_error
{
    DeadlineError() : std::runtime_error("deadline exceeded") {}
};

double
millisSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // anonymous namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.poolThreads)
{
}

Server::~Server()
{
    beginShutdown();
    wait();
}

void
Server::start()
{
    started_ = Clock::now();
    if (opts_.cacheCapacity)
        SynthCache::global().setCapacity(opts_.cacheCapacity);

    if (!opts_.diskCacheDir.empty()) {
        installedDisk_ = std::make_shared<DiskCache>(
            opts_.diskCacheDir, /*publishMetrics=*/true);
        for (unsigned i = 0; i < opts_.faultPlan.corruptDiskEntries;
             ++i)
            installedDisk_->corruptOneEntry(
                mixSeed(opts_.faultPlan.seed, i));
        SynthCache::global().setDiskTier(installedDisk_);
    }
    front_.start(opts_.host, opts_.port, opts_.maxRequestBytes,
                 opts_.faultPlan, [this] {
                     return LineServer::Session(
                         std::bind_front(&Server::handleLine, this));
                 });
    const unsigned executors = opts_.executors ? opts_.executors : 1;
    executorCount_ = executors;
    execSlots_ = std::make_unique<ExecSlot[]>(executors);
    for (unsigned i = 0; i < executors; ++i)
        executors_.emplace_back([this, i] {
            trace::setThreadName("service-exec-" +
                                 std::to_string(i));
            executorLoop(i);
        });
    if (opts_.watchdogPeriodMs > 0)
        watchdog_ = std::thread([this] {
            trace::setThreadName("service-watchdog");
            watchdogLoop();
        });
}

void
Server::beginShutdown()
{
    {
        std::lock_guard lk(queueMutex_);
        finishing_ = true;
    }
    queueCv_.notify_all();
    front_.refuseNew();
    {
        std::lock_guard lk(stopMutex_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
}

void
Server::wait()
{
    {
        std::unique_lock lk(stopMutex_);
        stopCv_.wait(lk, [&] { return stopRequested_; });
        if (joined_)
            return;
        joined_ = true;
    }
    joinEverything();
}

void
Server::joinEverything()
{
    // 1. Stop accepting connections.
    front_.stopAccepting();

    // 2. Drain: executors finish every admitted request (finishing_
    //    is already set, so they exit once the queue is empty).
    queueCv_.notify_all();
    for (std::thread &t : executors_)
        if (t.joinable())
            t.join();
    {
        std::lock_guard lk(watchdogMutex_);
        watchdogStop_ = true;
    }
    watchdogCv_.notify_all();
    if (watchdog_.joinable())
        watchdog_.join();

    // 3. Hang up: readers see EOF and exit.
    front_.hangUp();

    // 4. Detach the disk tier we installed (only ours: a test may
    //    have swapped in its own since).
    if (installedDisk_) {
        if (SynthCache::global().diskTier() == installedDisk_)
            SynthCache::global().setDiskTier(nullptr);
        installedDisk_.reset();
    }
}

void
Server::handleLine(const ConnPtr &conn, const std::string &line)
{
    metrics::counter("service.requests").add(1);

    Request req;
    try {
        req = parseRequest(line);
    } catch (const json::ParseError &e) {
        metrics::counter("service.parse_errors").add(1);
        front_.sendLine(conn,
                        errorReply("", errc::parseError, e.what()));
        return;
    } catch (const FatalError &e) {
        metrics::counter("service.parse_errors").add(1);
        front_.sendLine(conn,
                        errorReply("", errc::badRequest, e.what()));
        return;
    }

    const RequestTypeInfo &info = requestTypeInfo(req.type);
    metrics::counter(info.requestsCounter).add(1);
    if (info.admin) {
        const bool shutdown = req.type == RequestType::Shutdown;
        front_.sendLine(
            conn, okReply(req.id, req.type,
                          shutdown ? "{\"draining\": true}"
                          : req.type == RequestType::Metrics
                              ? metricsBody()
                              : healthBody()));
        if (shutdown)
            beginShutdown();
        return;
    }

    Task task;
    task.req = std::move(req);
    task.conn = conn;
    task.admitted = Clock::now();
    if (task.req.deadlineMs > 0) {
        task.hasDeadline = true;
        task.deadline =
            task.admitted +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    task.req.deadlineMs));
    }

    // Injected overload: reject an admissible compute request as if
    // the queue were full (chaos for the client's retry path).
    if (front_.fault() && front_.fault()->forceQueueFull()) {
        metrics::counter("service.rejected").add(1);
        front_.sendLine(conn, queueFullReply(task.req.id, 10));
        return;
    }

    if (const auto rejection = admit(std::move(task)))
        front_.sendLine(conn, *rejection);
}

std::optional<std::string>
Server::admit(Task task)
{
    // Shed by class before the queue is truly full: sweeps (the
    // heaviest requests, up to 24 synth points each) above 50%
    // depth, yields above 75%, synths only at capacity. Cheap
    // requests keep flowing while expensive ones are pushed back.
    const std::size_t cap = opts_.maxQueue;
    const RequestTypeInfo &info = requestTypeInfo(task.req.type);
    const char *shedCounter = info.shedCounter;
    const std::size_t limit =
        shedCounter ? std::max<std::size_t>(
                          1, cap * info.shedQuarters / 4)
                    : cap;
    std::size_t depth;
    {
        std::lock_guard lk(queueMutex_);
        if (finishing_)
            return errorReply(task.req.id, errc::shuttingDown,
                              "server is draining");
        depth = queue_.size();
        if (depth < limit)
            queue_.push_back(std::move(task));
    }
    if (depth < limit) {
        queueCv_.notify_one();
        return std::nullopt;
    }
    if (shedCounter && depth < cap)
        metrics::counter(shedCounter).add(1);
    metrics::counter("service.rejected").add(1);
    // Backoff hint grows with depth: 5 ms near the shed threshold up
    // to 50 ms at a saturated queue (a zero capacity is always
    // "saturated").
    return queueFullReply(
        task.req.id, cap ? 5 + 45.0 * double(depth) / double(cap) : 50);
}

void
Server::executorLoop(unsigned slot)
{
    for (;;) {
        Task task;
        {
            std::unique_lock lk(queueMutex_);
            queueCv_.wait(lk, [&] {
                return !queue_.empty() || finishing_;
            });
            if (queue_.empty())
                return; // finishing_ && drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        execute(task, slot);
    }
}

void
Server::watchdogLoop()
{
    const auto period = std::chrono::duration<double, std::milli>(
        opts_.watchdogPeriodMs);
    for (;;) {
        {
            std::unique_lock lk(watchdogMutex_);
            if (watchdogCv_.wait_for(
                    lk, period, [&] { return watchdogStop_; }))
                return;
        }
        std::size_t overrun = 0;
        const std::int64_t now = nowNs();
        for (unsigned i = 0; i < executorCount_; ++i) {
            ExecSlot &slot = execSlots_[i];
            if (slot.startNs.load(std::memory_order_acquire) == 0)
                continue;
            const std::int64_t deadline =
                slot.deadlineNs.load(std::memory_order_acquire);
            if (deadline == 0 || now <= deadline)
                continue;
            ++overrun;
            // Count each overrunning task once, not once per scan.
            if (!slot.reported.exchange(true))
                metrics::counter("service.watchdog_overruns")
                    .add(1);
        }
        metrics::gauge("service.workers_overrun")
            .set(double(overrun));
    }
}

void
Server::execute(Task &task, unsigned slot)
{
    trace::Span span("service.request",
                     requestTypeName(task.req.type));
    metrics::distribution("service.queue_wait_ms")
        .record(millisSince(task.admitted));

    ExecSlot &mySlot = execSlots_[slot];
    mySlot.reported.store(false);
    mySlot.deadlineNs.store(
        task.hasDeadline
            ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                  task.deadline.time_since_epoch())
                  .count()
            : 0,
        std::memory_order_release);
    mySlot.startNs.store(nowNs(), std::memory_order_release);

    const Clock::time_point execStart = Clock::now();
    std::string reply; // the monolithic reply, or a stream's error
    try {
        if (task.req.stream)
            metrics::counter("service.stream_requests").add(1);
        if (task.hasDeadline && Clock::now() > task.deadline)
            throw DeadlineError();
        bool answered = true;
        if (task.req.stream)
            answered = streamTask(task);
        else
            reply = okReply(task.req.id, task.req.type,
                            coalesced(task));
        if (answered)
            metrics::counter("service.replies_ok").add(1);
    } catch (const DeadlineError &) {
        metrics::counter("service.deadline_exceeded").add(1);
        metrics::counter("service.replies_error").add(1);
        reply = errorReply(task.req.id, errc::deadlineExceeded,
                           "deadline of " +
                               formatDouble(task.req.deadlineMs) +
                               " ms expired");
    } catch (const std::exception &e) {
        // A stream's resume_from past its end is the client's error.
        const bool badRequest =
            task.req.stream && dynamic_cast<const FatalError *>(&e);
        metrics::counter("service.replies_error").add(1);
        reply = errorReply(task.req.id,
                           badRequest ? errc::badRequest
                                      : errc::internalError,
                           e.what());
    }
    if (!reply.empty())
        front_.sendLine(task.conn, reply, /*faultable=*/true);
    metrics::distribution("service.exec_ms")
        .record(millisSince(execStart));
    mySlot.startNs.store(0, std::memory_order_release);
    mySlot.deadlineNs.store(0, std::memory_order_release);
}

bool
Server::streamTask(const Task &task)
{
    const Request &req = task.req;
    const auto partial = [&](std::uint64_t index, std::uint64_t total,
                             const std::string &body) {
        front_.sendLine(task.conn,
                        partialFrame(req.id, req.type, index, total,
                                     body),
                        /*faultable=*/true);
        metrics::counter("service.stream_partials").add(1);
    };
    const auto done = [&](std::uint64_t total) {
        front_.sendLine(task.conn, doneFrame(req.id, req.type, total),
                        /*faultable=*/true);
        return true;
    };

    if (req.type == RequestType::Sweep) {
        // Points are evaluated sequentially so the first frame
        // reaches the client while the rest still compute. Each body
        // is byte-identical to its entry in the monolithic reply
        // (evaluation is deterministic, and ISS results are engine-
        // and thread-count-invariant), which is what makes stream
        // reassembly byte-exact. Streams skip request-level
        // coalescing — each synth point still dedupes through the
        // SynthCache.
        const auto total = sweepPoints(task, partial);
        return total && done(*total);
    }

    if (req.type == RequestType::Classify) {
        // Points 0..G-1 are per-generation summaries, point G is the
        // Pareto front. Search results are thread-count- and
        // engine-invariant by construction, so a single-thread pool
        // here emits frames byte-identical to the pooled monolithic
        // classifyBody() while the shared pool stays free for queued
        // compute. Streams skip request-level coalescing — repeated
        // specs still dedupe through the classify result cache.
        const std::uint64_t total = req.classify.search.generations + 1;
        fatalIf(req.resumeFrom > total,
                "resume_from " + std::to_string(req.resumeFrom) +
                    " is past the classify's " + std::to_string(total) +
                    " points");
        struct ClientGone {};
        ThreadPool local(1);
        std::shared_ptr<const ml::ClassifyResult> result;
        try {
            result = ml::runClassifyCached(
                req.classify, local, [&](const ml::GenerationReport &g) {
                    if (task.hasDeadline && Clock::now() > task.deadline)
                        throw DeadlineError();
                    if (!task.conn->open.load())
                        throw ClientGone{};
                    if (g.generation >= req.resumeFrom)
                        partial(g.generation, total,
                                classifyGenerationBody(g));
                });
        } catch (const ClientGone &) {
            return false; // client is gone: stop computing
        }
        if (task.hasDeadline && Clock::now() > task.deadline)
            throw DeadlineError();
        if (!task.conn->open.load())
            return false;
        if (total - 1 >= req.resumeFrom)
            partial(total - 1, total, classifyFrontBody(*result));
        return done(total);
    }

    // Yield: a one-point stream carrying the full body, so the
    // client's resume rule is uniform across streamed types.
    // resume_from 1 means the client already holds the point —
    // answer done without recomputing.
    fatalIf(req.resumeFrom > 1,
            "resume_from is past the yield's single point");
    if (req.resumeFrom == 0)
        partial(0, 1, coalesced(task));
    return done(1);
}

std::string
Server::coalesced(const Task &task)
{
    const std::string key = coalesceKey(task.req);
    for (;;) {
        std::shared_future<std::string> future;
        std::uint64_t id = 0;
        bool leader = false;
        std::promise<std::string> promise;
        {
            std::lock_guard lk(coalesceMutex_);
            auto it = inflight_.find(key);
            if (it != inflight_.end()) {
                future = it->second.future;
                metrics::counter("service.coalesce_hits").add(1);
            } else {
                leader = true;
                future = promise.get_future().share();
                id = ++nextInflightId_;
                inflight_[key] = Inflight{future, id};
            }
        }

        if (leader) {
            // Drop the entry only if it is still ours.
            const auto release = [&] {
                std::lock_guard lk(coalesceMutex_);
                auto it = inflight_.find(key);
                if (it != inflight_.end() && it->second.id == id)
                    inflight_.erase(it);
            };
            std::string body;
            try {
                body = computeBody(task);
            } catch (...) {
                // Same semantics as the SynthCache: store the
                // exception first, then drop the entry, so every
                // coalesced waiter sees the original error and
                // later requests retry.
                promise.set_exception(std::current_exception());
                release();
                throw;
            }
            promise.set_value(body);
            release();
            return body;
        }

        try {
            return future.get();
        } catch (const DeadlineError &) {
            // The *leader's* deadline expired, not necessarily
            // ours. Retry as leader if we still have room.
            if (task.hasDeadline && Clock::now() > task.deadline)
                throw;
        }
    }
}

std::string
Server::computeBody(const Task &task)
{
    const Request &req = task.req;
    switch (req.type) {
      case RequestType::Synth:
        return synthBody(evaluateDesignPoint(req.config));

      case RequestType::Yield: {
        FunctionalYieldConfig mc;
        mc.fault.deviceYield = req.deviceYield;
        mc.fault.seed = req.seed;
        mc.trials = req.trials;
        mc.replicas = req.replicas;
        mc.pool = &pool_;
        auto core = SynthCache::global().core(req.config);
        std::lock_guard lk(poolMutex_);
        return yieldBody(
            req.config,
            measureFunctionalYield(*core, req.config, mc));
      }

      case RequestType::Sweep: {
        if (task.hasDeadline) {
            // Sequential, deadline-checked between points; the
            // points are joined exactly as sweepBody()/issSweepBody()
            // join them, so the reply bytes don't depend on which
            // path ran.
            std::string body = "{\"points\": [";
            sweepPoints(task, [&](std::uint64_t i, std::uint64_t,
                                  const std::string &point) {
                body += i ? ", " + point : point;
            });
            return body + "]}";
        }
        SweepOptions opts;
        opts.pool = &pool_;
        std::lock_guard lk(poolMutex_);
        return req.hasIss
                   ? issSweepBody(sweepLegacyIss(req.iss, opts))
                   : sweepBody(sweepConfigs(req.sweep.configs(), opts));
      }

      case RequestType::Classify: {
        // Deadline is checked between generations through the
        // progress callback; search results are thread-invariant,
        // so the reply bytes don't depend on pool width.
        ml::GenerationCallback cb;
        if (task.hasDeadline)
            cb = [&](const ml::GenerationReport &) {
                if (Clock::now() > task.deadline)
                    throw DeadlineError();
            };
        std::lock_guard lk(poolMutex_);
        return classifyBody(
            *ml::runClassifyCached(req.classify, pool_, cb));
      }

      default:
        panic("computeBody() on a non-compute request");
    }
}

std::optional<std::uint64_t>
Server::sweepPoints(
    const Task &task,
    const std::function<void(std::uint64_t, std::uint64_t,
                             const std::string &)> &sink)
{
    const Request &req = task.req;
    std::vector<std::pair<legacy::LegacyCore, Kernel>> grid;
    std::vector<CoreConfig> configs;
    if (req.hasIss)
        grid = req.iss.grid();
    else
        configs = req.sweep.configs();
    const std::uint64_t total = req.hasIss ? grid.size() : configs.size();
    fatalIf(req.resumeFrom > total,
            "resume_from " + std::to_string(req.resumeFrom) +
                " is past the sweep's " + std::to_string(total) +
                " points");
    for (std::uint64_t i = req.resumeFrom; i < total; ++i) {
        if (task.hasDeadline && Clock::now() > task.deadline)
            throw DeadlineError();
        if (req.stream && !task.conn->open.load())
            return std::nullopt;
        const std::size_t at = std::size_t(i);
        sink(i, total,
             req.hasIss ? issPointBody(evaluateIssPoint(
                              grid[at].first, grid[at].second, req.iss))
                        : synthBody(evaluateDesignPoint(configs[at])));
    }
    return total;
}

std::string
Server::metricsBody() const
{
    // {"name": value, ...} of one instrument kind, in name order.
    const auto object = [](const auto &entries, const auto &render) {
        std::string out = "{";
        for (const auto &[name, value] : entries)
            out += (out.size() > 1 ? ", " : "") +
                   json::jsonQuote(name) + ": " + render(value);
        return out + "}";
    };
    const metrics::Snapshot snap =
        metrics::Registry::global().snapshot();
    return "{\"counters\": " +
           object(snap.counters,
                  [](std::uint64_t v) { return std::to_string(v); }) +
           ", \"gauges\": " + object(snap.gauges, formatDouble) +
           ", \"distributions\": " +
           object(snap.distributions,
                  [](const metrics::Distribution::Summary &s) {
                      return "{\"count\": " + std::to_string(s.count) +
                             ", \"mean\": " + formatDouble(s.mean) +
                             ", \"p50\": " + formatDouble(s.p50) +
                             ", \"p95\": " + formatDouble(s.p95) +
                             ", \"max\": " + formatDouble(s.max) + "}";
                  }) +
           "}";
}

std::string
Server::healthBody()
{
    std::size_t depth;
    bool draining;
    {
        std::lock_guard lk(queueMutex_);
        depth = queue_.size();
        draining = finishing_;
    }
    std::string out = "{\"status\": \"ok\"";
    out += ", \"proto\": " + std::to_string(kProtocolVersion);
    out += ", \"types\": " + supportedTypesJson();
    out += ", \"uptime_ms\": " +
           formatDouble(millisSince(started_));
    out += ", \"queue_depth\": " + std::to_string(depth);
    out += ", \"queue_capacity\": " +
           std::to_string(opts_.maxQueue);
    out += ", \"pool_threads\": " +
           std::to_string(pool_.threadCount());
    out += ", \"draining\": ";
    out += draining ? "true" : "false";
    out += "}";
    return out;
}

} // namespace printed::service
