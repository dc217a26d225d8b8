#include "balancer.hh"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/json_min.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

namespace printed::service
{

namespace
{

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

Clock::duration
millis(double ms)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
}

/**
 * Extract the "result" body of an ok reply line byte-exactly.
 * okReply() renders "result" as the last member, so the body is
 * everything between the marker and the final closing brace. Falls
 * back to "{}" on anything unexpected (down shards render as such).
 */
std::string
resultBody(const std::string &replyLine)
{
    constexpr const char *kMarker = ", \"result\": ";
    const std::size_t at = replyLine.find(kMarker);
    if (at == std::string::npos || replyLine.empty() ||
        replyLine.back() != '}')
        return "{}";
    const std::size_t start = at + 12; // strlen(kMarker)
    return replyLine.substr(start, replyLine.size() - start - 1);
}

/** Read one '\n'-terminated line from a pipe (EINTR-safe). */
bool
readPipeLine(int fd, std::string &out)
{
    out.clear();
    char c;
    for (;;) {
        const ssize_t n = ::read(fd, &c, 1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return !out.empty();
        if (c == '\n')
            return true;
        out.push_back(c);
    }
}

} // anonymous namespace

Balancer::Balancer(BalancerOptions opts) : opts_(std::move(opts)) {}

Balancer::~Balancer()
{
    beginShutdown();
    wait();
}

void
Balancer::start()
{
    started_ = Clock::now();

    if (opts_.spawnWorkers > 0) {
        for (unsigned i = 0; i < opts_.spawnWorkers; ++i)
            spawnWorker(i);
    } else {
        fatalIf(opts_.workers.empty(),
                "balancer needs at least one worker");
        for (std::size_t i = 0; i < opts_.workers.size(); ++i) {
            auto shard = std::make_unique<Shard>();
            shard->id = unsigned(i);
            shard->addr = opts_.workers[i];
            shards_.push_back(std::move(shard));
        }
    }

    ring_ = std::make_unique<ShardMap>(ShardMap::forCount(
        unsigned(shards_.size()), opts_.vnodes, opts_.ringSeed));

    front_.start(
        opts_.host, opts_.port, opts_.maxRequestBytes, opts_.faultPlan,
        [this]() -> LineServer::Session {
            // Each connection gets its own worker-connection cache.
            auto cache = std::make_shared<std::map<unsigned, Client>>();
            return [this, cache](const ConnPtr &c, const std::string &l) {
                handleLine(c, l, *cache);
            };
        });
    probeThread_ = std::thread([this] {
        trace::setThreadName("balancer-probe");
        probeLoop();
    });
}

bool
Balancer::shardUp(unsigned shard) const
{
    fatalIf(shard >= shards_.size(), "no such shard");
    return shards_[shard]->up.load(std::memory_order_acquire);
}

WorkerAddress
Balancer::shardAddress(unsigned shard) const
{
    fatalIf(shard >= shards_.size(), "no such shard");
    return shards_[shard]->addr;
}

void
Balancer::beginShutdown()
{
    front_.refuseNew();
    {
        std::lock_guard lk(stopMutex_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
}

void
Balancer::wait()
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
Balancer::joinEverything()
{
    // 1. Stop accepting.
    front_.stopAccepting();
    if (probeThread_.joinable())
        probeThread_.join();

    // 2. Hang up client connections; readers see EOF and exit
    //    (closing their cached worker connections with them).
    front_.hangUp();

    // 3. The balancer owns its fleet's lifecycle: draining the
    //    front drains the workers behind it (the CI smoke job
    //    asserts all five processes exit cleanly).
    propagateShutdown();
    reapWorkers();
}

void
Balancer::propagateShutdown()
{
    for (const auto &shard : shards_) {
        if (!shard->up.load(std::memory_order_acquire))
            continue;
        try {
            Client c(shard->addr.host, shard->addr.port);
            c.send(adminRequest("balancer-drain",
                                RequestType::Shutdown));
            (void)c.readLine(opts_.shardCallTimeoutMs);
        } catch (const std::exception &) {
            // Best effort: a dead shard has nothing to drain.
        }
    }
}

void
Balancer::spawnWorker(unsigned index)
{
    int pipeFds[2];
    fatalIf(::pipe(pipeFds) != 0,
            std::string("pipe(): ") + std::strerror(errno));

    const pid_t pid = ::fork();
    fatalIf(pid < 0, std::string("fork(): ") + std::strerror(errno));

    if (pid == 0) {
        // Child: stdout -> pipe, then exec printedd on an
        // ephemeral port (the parent reads the banner for it).
        ::close(pipeFds[0]);
        ::dup2(pipeFds[1], STDOUT_FILENO);
        ::close(pipeFds[1]);
        std::vector<std::string> args;
        args.push_back(opts_.printeddPath);
        args.push_back("--port");
        args.push_back("0");
        for (const std::string &a : opts_.workerArgs)
            args.push_back(a);
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execvp(argv[0], argv.data());
        ::_exit(127); // exec failed
    }

    ::close(pipeFds[1]);

    // Parse "printedd listening on HOST:PORT" from the child.
    std::string banner;
    bool found = false;
    while (readPipeLine(pipeFds[0], banner)) {
        const std::size_t at = banner.find("listening on ");
        if (at == std::string::npos)
            continue;
        const std::string hostPort = banner.substr(at + 13);
        const std::size_t colon = hostPort.rfind(':');
        if (colon == std::string::npos)
            continue;
        auto shard = std::make_unique<Shard>();
        shard->id = index;
        shard->addr.host = hostPort.substr(0, colon);
        shard->addr.port = std::uint16_t(
            std::strtoul(hostPort.c_str() + colon + 1, nullptr, 10));
        shard->pid = pid;
        shard->stdoutFd = pipeFds[0];
        // Keep draining the child's stdout so it never blocks on a
        // full pipe.
        const int drainFd = pipeFds[0];
        shard->stdoutDrain = std::thread([drainFd] {
            char buf[4096];
            while (::read(drainFd, buf, sizeof(buf)) > 0 ||
                   errno == EINTR) {
            }
        });
        shards_.push_back(std::move(shard));
        found = true;
        break;
    }
    if (!found) {
        ::close(pipeFds[0]);
        int status = 0;
        ::waitpid(pid, &status, 0);
        fatalIf(true, "worker " + std::to_string(index) +
                          " (" + opts_.printeddPath +
                          ") exited before announcing its port");
    }
}

void
Balancer::reapWorkers()
{
    for (const auto &shard : shards_) {
        if (shard->pid <= 0)
            continue;
        // propagateShutdown() already asked nicely; SIGTERM covers
        // a worker that was marked down (idempotent on a draining
        // printedd).
        ::kill(shard->pid, SIGTERM);
        int status = 0;
        ::waitpid(shard->pid, &status, 0);
        if (shard->stdoutDrain.joinable())
            shard->stdoutDrain.join();
        if (shard->stdoutFd >= 0)
            ::close(shard->stdoutFd);
        shard->pid = -1;
    }
}

void
Balancer::handleLine(const ConnPtr &conn, const std::string &line,
                     std::map<unsigned, Client> &shardConns)
{
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("balancer.requests").add(1);

    Request req;
    try {
        req = parseRequest(line);
    } catch (const json::ParseError &e) {
        front_.sendLine(conn,
                        errorReply("", errc::parseError, e.what()));
        return;
    } catch (const FatalError &e) {
        front_.sendLine(conn,
                        errorReply("", errc::badRequest, e.what()));
        return;
    }

    if (!requestTypeInfo(req.type).admin) {
        // Injected overload, as on printedd: refuse an admissible
        // compute request before routing it (chaos for the client's
        // retry path through the balancer).
        if (front_.fault() && front_.fault()->forceQueueFull())
            front_.sendLine(conn, queueFullReply(req.id, 10));
        else
            routeCompute(conn, req, line, shardConns);
    } else if (req.type == RequestType::Shutdown) {
        front_.sendLine(conn, okReply(req.id, req.type,
                                      "{\"draining\": true}"));
        beginShutdown();
    } else {
        stats_.fanouts.fetch_add(1, std::memory_order_relaxed);
        front_.sendLine(
            conn, okReply(req.id, req.type,
                          req.type == RequestType::Metrics
                              ? mergedMetricsBody(shardConns)
                              : mergedHealthBody(shardConns)));
    }
}

void
Balancer::routeCompute(const ConnPtr &conn, const Request &req,
                       const std::string &line,
                       std::map<unsigned, Client> &shardConns)
{
    stats_.routed.fetch_add(1, std::memory_order_relaxed);

    const std::vector<unsigned> order =
        ring_->failoverOrder(routeKey(req));
    std::uint64_t forwarded = 0;
    for (unsigned shardId : order) {
        Shard &shard = *shards_[shardId];
        if (!shard.up.load(std::memory_order_acquire))
            continue;
        const bool degraded = shardId != order.front();

        // A failover after relayed partials must not replay them:
        // ask the fallback to resume past what the client already
        // holds, so it sees one gapless stream.
        std::string wire = line;
        if (req.stream && forwarded > 0) {
            Request resumed = req;
            resumed.resumeFrom = req.resumeFrom + forwarded;
            wire = requestLine(resumed);
        }

        Client &worker = shardConns[shardId];
        if (forwardAttempt(shard, worker, conn, wire, degraded,
                           forwarded))
            return;
        worker.close();
        markDown(shard);
    }

    stats_.unavailable.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("balancer.unavailable").add(1);
    front_.sendLine(conn,
                    errorReply(req.id, errc::unavailable,
                               "every shard for this key is down"));
}

bool
Balancer::forwardAttempt(Shard &shard, Client &worker,
                         const ConnPtr &conn,
                         const std::string &wireLine, bool degraded,
                         std::uint64_t &forwardedOut)
{
    // A cached connection may be stale (the worker restarted since
    // it was opened): one clean-slate resend is allowed, but only
    // while no frame of this attempt has been relayed — resending
    // after a relayed partial would duplicate it.
    unsigned attempts = worker.connected() ? 2 : 1;
    while (attempts--) {
        std::uint64_t relayed = 0;
        try {
            if (!worker.connected())
                worker.connect(shard.addr.host, shard.addr.port);
            worker.send(wireLine);
            for (;;) {
                const std::string raw =
                    worker.readLine(opts_.shardCallTimeoutMs);
                const StreamFrame frame = classifyFrame(raw);
                if (frame.kind == StreamFrame::Kind::Partial) {
                    front_.sendLine(conn, raw, /*faultable=*/true);
                    ++relayed;
                    ++forwardedOut;
                    stats_.partialsForwarded.fetch_add(
                        1, std::memory_order_relaxed);
                    continue;
                }
                // A draining worker's refusal is a failover, not an
                // answer: the caller marks it down and resumes past
                // any partials relayed from it on the next shard.
                if (frame.error == errc::shuttingDown) {
                    worker.close();
                    return false;
                }
                // Done or Final: the exchange is over. Annotating
                // only these frames keeps partial bodies byte-exact
                // for reassembly. A failover is counted before its
                // final frame leaves, so a client that reads the
                // stats after the reply always sees it.
                if (degraded) {
                    stats_.failovers.fetch_add(
                        1, std::memory_order_relaxed);
                    metrics::counter("balancer.failovers").add(1);
                }
                front_.sendLine(conn,
                                degraded ? markDegraded(raw) : raw,
                                /*faultable=*/true);
                return true;
            }
        } catch (const std::exception &) {
            worker.close();
            if (relayed > 0)
                return false; // mid-stream: fail over, don't resend
        }
    }
    return false;
}

void
Balancer::markDown(Shard &shard)
{
    if (!shard.up.exchange(false))
        return; // already down
    stats_.markedDown.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("balancer.marked_down").add(1);
    std::lock_guard lk(probeMutex_);
    shard.probeFailures.store(0);
    shard.nextProbe = Clock::now() + millis(opts_.probeBackoffBaseMs);
}

void
Balancer::probeLoop()
{
    for (;;) {
        {
            std::unique_lock lk(stopMutex_);
            if (stopCv_.wait_for(lk, millis(opts_.probePeriodMs),
                                 [&] { return stopRequested_; }))
                return;
        }
        for (const auto &shardPtr : shards_) {
            Shard &shard = *shardPtr;
            if (shard.up.load(std::memory_order_acquire))
                continue;
            {
                std::lock_guard lk(probeMutex_);
                if (Clock::now() < shard.nextProbe)
                    continue;
            }
            bool ok = false;
            try {
                Client probe(shard.addr.host, shard.addr.port);
                probe.send(adminRequest("balancer-probe",
                                        RequestType::Health));
                ok = parseReply(probe.readLine(1000)).ok;
            } catch (const std::exception &) {
                ok = false;
            }
            if (ok) {
                shard.up.store(true, std::memory_order_release);
                stats_.revived.fetch_add(1,
                                         std::memory_order_relaxed);
                metrics::counter("balancer.revived").add(1);
            } else {
                const unsigned failures =
                    shard.probeFailures.fetch_add(1) + 1;
                const double backoff = std::min(
                    opts_.probeBackoffMaxMs,
                    opts_.probeBackoffBaseMs *
                        double(1ULL << std::min(failures, 16u)));
                std::lock_guard lk(probeMutex_);
                shard.nextProbe = Clock::now() + millis(backoff);
            }
        }
    }
}

std::string
Balancer::balancerStatsBody() const
{
    unsigned up = 0;
    for (const auto &shard : shards_)
        if (shard->up.load(std::memory_order_acquire))
            ++up;
    std::string out = "{\"requests\": " +
                      std::to_string(stats_.requests.load());
    out += ", \"routed\": " + std::to_string(stats_.routed.load());
    out += ", \"fanouts\": " + std::to_string(stats_.fanouts.load());
    out += ", \"partials_forwarded\": " +
           std::to_string(stats_.partialsForwarded.load());
    out +=
        ", \"failovers\": " + std::to_string(stats_.failovers.load());
    out += ", \"marked_down\": " +
           std::to_string(stats_.markedDown.load());
    out += ", \"revived\": " + std::to_string(stats_.revived.load());
    out += ", \"unavailable\": " +
           std::to_string(stats_.unavailable.load());
    out += ", \"shards\": " + std::to_string(shards_.size());
    out += ", \"shards_up\": " + std::to_string(up);
    out += ", \"uptime_ms\": " + formatDouble(millisSince(started_));
    out += "}";
    return out;
}

std::string
Balancer::fanOut(std::map<unsigned, Client> &shardConns,
                 RequestType type, const std::string &downBody,
                 const std::function<void(const std::string &)> &use)
{
    std::string out = "[";
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard &shard = *shards_[i];
        std::string body = downBody;
        if (shard.up.load(std::memory_order_acquire)) {
            Client &worker = shardConns[shard.id];
            try {
                if (!worker.connected())
                    worker.connect(shard.addr.host, shard.addr.port);
                worker.send(adminRequest(
                    std::string("balancer-") + requestTypeName(type),
                    type));
                body = resultBody(
                    worker.readLine(opts_.shardCallTimeoutMs));
                use(body);
            } catch (const std::exception &) {
                worker.close();
                markDown(shard);
                body = downBody;
            }
        }
        out += (i ? ", " : "") + body;
    }
    return out + "]";
}

std::string
Balancer::mergedMetricsBody(std::map<unsigned, Client> &shardConns)
{
    // Sum every shard's counters (the fleet-wide view asserted by
    // bench/CI) and keep each shard's full metrics body in a
    // per-shard array so imbalance stays visible.
    std::map<std::string, long long> summed;
    const std::string shardsArr = fanOut(
        shardConns, RequestType::Metrics, "{\"down\": true}",
        [&](const std::string &body) {
            const json::Value parsed = json::parse(body);
            if (const json::Value *counters = parsed.find("counters");
                counters && counters->isObject())
                for (const auto &[name, value] : counters->object)
                    if (value.isNumber())
                        summed[name] += (long long)(value.number);
        });

    std::string out = "{\"counters\": {";
    bool first = true;
    for (const auto &[name, value] : summed) {
        out += first ? "" : ", ";
        out += json::jsonQuote(name) + ": " + std::to_string(value);
        first = false;
    }
    out += "}, \"balancer\": " + balancerStatsBody();
    out += ", \"shards\": " + shardsArr;
    out += "}";
    return out;
}

std::string
Balancer::mergedHealthBody(std::map<unsigned, Client> &shardConns)
{
    // The balancer advertises the intersection of its shards'
    // supported request types: a type is only usable through the
    // fleet if every live shard can serve it. Older (protocol-v1)
    // workers that predate the "types" field count as the v1
    // baseline set via advertisedTypes().
    unsigned up = 0;
    std::vector<std::string> types;
    const std::string shardsArr = fanOut(
        shardConns, RequestType::Health, "{\"status\": \"down\"}",
        [&](const std::string &body) {
            const std::vector<std::string> shardTypes =
                advertisedTypes(body);
            if (up++ == 0)
                types = shardTypes;
            else
                std::erase_if(types, [&](const std::string &t) {
                    return std::find(shardTypes.begin(),
                                     shardTypes.end(),
                                     t) == shardTypes.end();
                });
        });

    std::string typesArr = "[";
    for (std::size_t i = 0; i < types.size(); ++i)
        typesArr += (i ? ", " : "") + json::jsonQuote(types[i]);
    typesArr += "]";

    std::string out = "{\"status\": ";
    out += up == shards_.size() ? "\"ok\"" : "\"degraded\"";
    out += ", \"proto\": " + std::to_string(kProtocolVersion);
    out += ", \"role\": \"balancer\"";
    out += ", \"types\": " + typesArr;
    out += ", \"uptime_ms\": " + formatDouble(millisSince(started_));
    out += ", \"shards_up\": " + std::to_string(up);
    out += ", \"shards\": " + shardsArr;
    out += "}";
    return out;
}

} // namespace printed::service
