/**
 * @file
 * The closed-loop load generator and the reply checks of the service
 * workloads.
 *
 * A load run is: the measured phase(s) -> "phase-end" handshake
 * (run.py samples /proc of the serving processes) -> the golden set
 * -> (traced) the round-trip, daemon-counter and in-process layer
 * probes -> the in-process reference check of every reply -> result
 * JSON + per-request records.
 *
 * The probe command sends a part of the fixed compute probe (and runs
 * its hier probe flows) against a daemon of its own and checks it the
 * same way.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "common/json_min.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "dse/sweep.hh"
#include "ml/evolve.hh"
#include "perfbench.hh"
#include "probes.hh"
#include "service/client.hh"
#include "service/net_io.hh"
#include "service/protocol.hh"
#include "synth/cache.hh"

namespace perfbench
{

using namespace printed;
using namespace printed::service;

namespace
{

/** Reply deadline: a hung daemon fails the run instead of hanging it. */
constexpr double kReplyTimeoutMs = 60000;

/**
 * The compute probe: kProbePerKind (yield, classify, ISS sweep)
 * triples, sent in parts between the measured slices of a run; within
 * a part, its k-th triple starts k x kProbePace after the part's
 * start, and one hier probe flow runs every kTriplesPerHierFlow
 * triples of the whole probe. On shared machines the speed of one
 * core flips by tens of percent from one second to the next, so the
 * samples are spread over seconds rather than taken back to back.
 */
constexpr unsigned kProbePerKind = 180;
constexpr std::chrono::milliseconds kProbePace{50};
constexpr unsigned kTriplesPerHierFlow = 12;

/** Requests of the run the in-process layer probes take as input. */
constexpr std::uint64_t kLayerSample = 256;

/** Phase tags of a record. */
enum Phase : std::uint8_t
{
    Measured = 0, ///< untraced measured phase
    Traced = 1,   ///< traced measured phase
    Probe = 2,    ///< post-measurement compute probe
};

/** The outcome of one request. */
struct Record
{
    std::uint64_t index = 0;
    double latUs = 0;
    double firstUs = -1;   ///< first partial frame, streams only
    double endUs = 0;      ///< completion, from the phase start
    std::uint64_t hash = 0; ///< FNV-1a of the (assembled) reply
    ReqKind kind = ReqKind::Synth;
    Phase phase = Measured;
    bool ok = false;        ///< an "ok": true reply arrived
};

/** Client-side spans of one traced request (steady-clock us). */
struct SpanRec
{
    double sendUs = 0;    ///< writing the request
    double waitUs = 0;    ///< waiting for and reading reply frames
    double processUs = 0; ///< classifying/reassembling frames
};

struct Exchange
{
    std::string reply;
    double firstUs = -1;
    SpanRec span;
};

double
cpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

bool
replyOk(const std::string &reply)
{
    const std::size_t at = reply.find("\"ok\": ");
    return at != std::string::npos &&
           reply.compare(at + 6, 4, "true") == 0;
}

/** One request/reply exchange, streams reassembled. */
Exchange
exchange(Client &c, const GenRequest &r, Clock::time_point t0,
         bool traced)
{
    Exchange ex;
    c.send(r.line);
    const Clock::time_point sent = traced ? Clock::now() : t0;
    if (!isStream(r.kind)) {
        ex.reply = c.readLine(kReplyTimeoutMs);
        if (traced)
            ex.span = {micros(t0, sent), micros(sent, Clock::now()), 0};
        return ex;
    }
    std::vector<std::string> points;
    double readUs = 0;
    for (;;) {
        const Clock::time_point r0 = traced ? Clock::now() : t0;
        const std::string line = c.readLine(kReplyTimeoutMs);
        const Clock::time_point r1 = Clock::now();
        if (traced)
            readUs += micros(r0, r1);
        const StreamFrame frame = classifyFrame(line);
        if (frame.kind == StreamFrame::Kind::Partial) {
            if (ex.firstUs < 0)
                ex.firstUs = micros(t0, r1);
            points.push_back(frame.pointBody);
        } else if (frame.kind == StreamFrame::Kind::Done) {
            ex.reply = assembleStreamedReply(
                r.id,
                r.kind == ReqKind::YieldStream ? RequestType::Yield
                                               : RequestType::Classify,
                points);
            break;
        } else {
            ex.reply = line; // an error or a v1 monolithic reply
            break;
        }
    }
    if (traced) {
        const double total = micros(t0, Clock::now());
        const double sendUs = micros(t0, sent);
        ex.span = {sendUs, readUs, total - sendUs - readUs};
    }
    return ex;
}

/**
 * One non-streamed request on a connection of its own, closed with a
 * reset (SO_LINGER 0). printedd never closes a client's socket, so an
 * orderly close leaves this end waiting for the daemon's FIN and then
 * in TIME_WAIT for a minute after the daemon exits: at 8000 churned
 * connections a run, back-to-back runs would hold most of the
 * ephemeral port range and slow connect(2) down. The daemon's reader
 * sees the end of the stream either way and keeps the fd and thread.
 */
std::string
freshExchange(const LoadOptions &o, const GenRequest &r)
{
    struct Socket
    {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ~Socket()
        {
            if (fd < 0)
                return;
            const linger reset{1, 0};
            ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
            ::close(fd);
        }
    } s;
    fatalIf(s.fd < 0, std::string("socket(): ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(o.port);
    fatalIf(::inet_pton(AF_INET, o.host.c_str(), &addr.sin_addr) != 1,
            "bad server address '" + o.host + "'");
    while (::connect(s.fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)) != 0)
        fatalIf(errno != EINTR,
                std::string("connect(): ") + std::strerror(errno));
    int one = 1;
    ::setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::string framed = r.line + "\n";
    fatalIf(!netio::sendAll(s.fd, framed.data(), framed.size()),
            "send(): server closed the connection");
    std::string buf;
    char chunk[4096];
    for (;;) {
        const std::size_t nl = buf.find('\n');
        if (nl != std::string::npos)
            return buf.substr(0, nl);
        fatalIf(!netio::waitReadable(s.fd, kReplyTimeoutMs),
                "no reply within the deadline");
        const ssize_t n = netio::recvSome(s.fd, chunk, sizeof(chunk));
        fatalIf(n <= 0, "server closed the connection");
        buf.append(chunk, std::size_t(n));
    }
}

/** Timings of one measured phase. */
struct PhaseStats
{
    std::string name;
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    double wallS = 0;
    double cpuS = 0;
    std::vector<SpanRec> spans;
};

/** First error message seen, for the report. */
struct ErrorLog
{
    std::mutex mutex;
    std::string first;
    void
    note(const std::string &msg)
    {
        std::lock_guard lk(mutex);
        if (first.empty())
            first = msg;
    }
};

/**
 * Closed loop: `conns` clients, each sending request next() as soon
 * as its previous reply is complete, for `seconds` or until
 * `freshBudget` fresh connections (0 = no limit). Every index issued
 * completes, so the phase covers [first, first + count).
 */
PhaseStats
runPhase(const std::string &name, const Generator &gen,
         const LoadOptions &o, std::uint64_t first, double seconds,
         bool traced, std::uint64_t freshBudget,
         std::vector<Record> &out, ErrorLog &errors)
{
    PhaseStats ps;
    std::atomic<std::uint64_t> fresh{0};
    ps.name = name;
    ps.first = first;
    std::atomic<std::uint64_t> next{first};
    std::atomic<bool> stop{false};
    std::atomic<unsigned> finished{0};
    const std::uint64_t limit =
        o.count ? std::min(gen.limit(), o.first + o.count) : gen.limit();
    std::vector<std::vector<Record>> perThread(o.conns);
    std::vector<std::vector<SpanRec>> spans(o.conns);

    const double cpu0 = cpuSeconds();
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < o.conns; ++t)
        threads.emplace_back([&, t] {
            Client conn;
            for (;;) {
                if (stop.load(std::memory_order_relaxed)) {
                    ++finished;
                    return;
                }
                const std::uint64_t i = next.fetch_add(1);
                if (i >= limit) {
                    ++finished;
                    return;
                }
                Record rec;
                rec.index = i;
                rec.phase = traced ? Traced : Measured;
                const GenRequest req = gen.at(i);
                rec.kind = req.kind;
                const Clock::time_point t0 = Clock::now();
                try {
                    Exchange ex;
                    if (req.fresh) {
                        // printedd keeps every closed connection's fd;
                        // end the phase before they exhaust its limit.
                        if (freshBudget && ++fresh >= freshBudget)
                            stop.store(true);
                        ex.reply = freshExchange(o, req);
                    } else {
                        if (!conn.connected())
                            conn.connect(o.host, o.port);
                        ex = exchange(conn, req, t0, traced);
                    }
                    rec.latUs = micros(t0, Clock::now());
                    rec.firstUs = ex.firstUs;
                    rec.hash = fnv1a(ex.reply);
                    rec.ok = replyOk(ex.reply);
                    if (!rec.ok)
                        errors.note(ex.reply.substr(0, 300));
                    if (traced && !req.fresh)
                        spans[t].push_back(ex.span);
                } catch (const std::exception &e) {
                    rec.latUs = micros(t0, Clock::now());
                    errors.note(e.what());
                    conn.close();
                }
                rec.endUs = micros(start, Clock::now());
                perThread[t].push_back(std::move(rec));
            }
        });
    while (finished.load() < o.conns &&
           micros(start, Clock::now()) < seconds * 1e6)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stop.store(true);
    for (std::thread &th : threads)
        th.join();
    ps.wallS = micros(start, Clock::now()) * 1e-6;
    ps.cpuS = cpuSeconds() - cpu0;
    ps.count = std::min(next.load(), limit) - first;
    for (auto &v : perThread)
        for (Record &r : v)
            out.push_back(std::move(r));
    for (auto &v : spans)
        ps.spans.insert(ps.spans.end(), v.begin(), v.end());
    return ps;
}

/** Sequential requests on one connection (probes, golden set);
 *  `before(i)` runs ahead of request i. */
std::vector<Record>
runSequential(const LoadOptions &o, const std::vector<GenRequest> &reqs,
              ErrorLog &errors,
              const std::function<void(std::size_t)> &before = {})
{
    std::vector<Record> out;
    Client conn(o.host, o.port);
    for (const GenRequest &req : reqs) {
        if (before)
            before(out.size());
        Record rec;
        rec.kind = req.kind;
        rec.phase = Probe;
        const Clock::time_point t0 = Clock::now();
        try {
            const Exchange ex = exchange(conn, req, t0, false);
            rec.latUs = micros(t0, Clock::now());
            rec.firstUs = ex.firstUs;
            rec.hash = fnv1a(ex.reply);
            rec.ok = replyOk(ex.reply);
            if (!rec.ok)
                errors.note(ex.reply.substr(0, 300));
        } catch (const std::exception &e) {
            rec.latUs = micros(t0, Clock::now());
            errors.note(e.what());
            conn.close();
            conn.connect(o.host, o.port);
        }
        out.push_back(std::move(rec));
    }
    return out;
}

/**
 * The reference reply bodies, computed in this process through the
 * same public functions printedd's executors call — one per distinct
 * request (the id is not part of the body).
 */
class Reference
{
  public:
    Reference() : pool_(0)
    {
        // Bound this process's cache like the daemon's.
        SynthCache::global().setCapacity(512);
    }

    /** Register a request; returns its body slot. */
    std::size_t
    add(const GenRequest &r)
    {
        const std::size_t cut = r.line.find(", \"type\"");
        const std::string key =
            cut == std::string::npos ? r.line : r.line.substr(cut);
        const auto [it, fresh] = slots_.try_emplace(key, jobs_.size());
        if (fresh)
            jobs_.push_back({parseRequest(r.line), {}});
        return it->second;
    }

    /** Compute every registered body (synth keys in parallel). */
    void
    compute()
    {
        std::vector<std::size_t> synth;
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            if (!jobs_[j].body.empty())
                continue;
            if (jobs_[j].req.type == RequestType::Synth)
                synth.push_back(j);
            else
                jobs_[j].body = body(jobs_[j].req);
        }
        pool_.parallelFor(synth.size(), [&](std::size_t k) {
            Job &job = jobs_[synth[k]];
            job.body = synthBody(evaluateDesignPoint(job.req.config));
        });
    }

    /** The exact reply a correct server sends for request `r`. */
    std::string
    expected(const GenRequest &r, std::size_t slot) const
    {
        const Job &job = jobs_[slot];
        return okReply(r.id, job.req.type, job.body);
    }

  private:
    struct Job
    {
        Request req;
        std::string body;
    };

    /** Mirrors the printedd executor for the non-synth types. */
    std::string
    body(const Request &req)
    {
        switch (req.type) {
          case RequestType::Yield: {
            FunctionalYieldConfig mc;
            mc.fault.deviceYield = req.deviceYield;
            mc.fault.seed = req.seed;
            mc.trials = req.trials;
            mc.replicas = req.replicas;
            mc.pool = &pool_;
            auto core = SynthCache::global().core(req.config);
            return yieldBody(
                req.config,
                measureFunctionalYield(*core, req.config, mc));
          }
          case RequestType::Sweep: {
            fatalIf(!req.hasIss, "reference: only ISS sweeps");
            SweepOptions opts;
            opts.pool = &pool_;
            return issSweepBody(sweepLegacyIss(req.iss, opts));
          }
          case RequestType::Classify:
            return classifyBody(
                *ml::runClassifyCached(req.classify, pool_));
          default:
            fatal("reference: unexpected request type");
        }
    }

    ThreadPool pool_;
    std::map<std::string, std::size_t> slots_;
    std::vector<Job> jobs_;
};

/** One daemon distribution summary. */
struct Dist
{
    double count = 0, mean = 0, p50 = 0;
};

/** A parsed printedd "metrics" reply. */
struct DaemonMetrics
{
    std::map<std::string, double> counters;
    std::map<std::string, Dist> dists;
    bool ok = false;
};

void
readCounters(const json::Value *obj, std::map<std::string, double> &out)
{
    if (obj && obj->isObject())
        for (const auto &[name, v] : obj->object)
            if (v.isNumber())
                out[name] += v.number;
}

void
readDists(const json::Value *obj, std::map<std::string, Dist> &out)
{
    if (!obj || !obj->isObject())
        return;
    for (const auto &[name, v] : obj->object) {
        const json::Value *c = v.find("count");
        const json::Value *m = v.find("mean");
        const json::Value *p = v.find("p50");
        if (!c || !c->isNumber() || !m || !m->isNumber())
            continue;
        out[name] = {c->number, m->number,
                     p && p->isNumber() ? p->number : 0};
    }
}

DaemonMetrics
fetchMetrics(const LoadOptions &o)
{
    DaemonMetrics dm;
    try {
        Client c(o.host, o.port);
        const Reply r = parseReply(
            c.call(adminRequest("perfbench-metrics",
                                RequestType::Metrics)));
        if (!r.ok)
            return dm;
        const json::Value root = json::parse(r.raw);
        const json::Value *res = root.find("result");
        if (!res)
            return dm;
        readCounters(res->find("counters"), dm.counters);
        readDists(res->find("distributions"), dm.dists);
        dm.ok = true;
    } catch (const std::exception &) {
    }
    return dm;
}

double
delta(const DaemonMetrics &a, const DaemonMetrics &b,
      const std::string &counter)
{
    const auto ia = a.counters.find(counter);
    const auto ib = b.counters.find(counter);
    return (ib == b.counters.end() ? 0 : ib->second) -
           (ia == a.counters.end() ? 0 : ia->second);
}

/** Sum of a distribution's samples between two snapshots. */
double
distSumDelta(const DaemonMetrics &a, const DaemonMetrics &b,
             const std::string &name)
{
    const auto sum = [&](const DaemonMetrics &m) {
        const auto it = m.dists.find(name);
        return it == m.dists.end() ? 0.0
                                   : it->second.count * it->second.mean;
    };
    return sum(b) - sum(a);
}

/** Median round trip of `line` over `n` sequential calls. */
double
roundTripUs(const std::string &host, std::uint16_t port,
            const std::string &line, unsigned n)
{
    Client c(host, port);
    c.call(line); // warm: the key is cached from here on
    std::vector<double> us;
    for (unsigned i = 0; i < n; ++i) {
        const Clock::time_point t0 = Clock::now();
        c.call(line);
        us.push_back(micros(t0, Clock::now()));
    }
    return median(us);
}

/** Round-trip probes of a reachable daemon: transport, connect and
 *  balancer relay cost of one hot request. */
LayerMap
roundTripProbes(const LoadOptions &o, const GenRequest &hot)
{
    LayerMap m;
    // The workload's printedd directly, and through a one-worker
    // printed-balancer in front of it.
    const double directRtt = roundTripUs(o.host, o.port, hot.line, 200);
    m["balancer.overhead_us"] =
        roundTripUs(o.host, o.relayPort, hot.line, 200) - directRtt;

    // In-process execution of the same request: parse, the warm
    // cache lookups, render.
    const Request req = parseRequest(hot.line);
    evaluateDesignPoint(req.config);
    std::vector<double> inproc;
    for (unsigned i = 0; i < 200; ++i) {
        const Clock::time_point t0 = Clock::now();
        const Request r = parseRequest(hot.line);
        const std::string reply =
            okReply(r.id, r.type, synthBody(evaluateDesignPoint(r.config)));
        inproc.push_back(micros(t0, Clock::now()));
    }
    m["service.transport_us"] = directRtt - median(inproc);

    std::vector<double> connectUs;
    for (unsigned i = 0; i < 50; ++i) {
        const Clock::time_point t0 = Clock::now();
        Client c(o.host, o.port);
        c.close();
        connectUs.push_back(micros(t0, Clock::now()));
    }
    m["service.connect_us"] = median(connectUs);
    return m;
}

/** Daemon-side layer values: counter deltas between two snapshots
 *  taken `wallS` apart, and the daemon's own distributions. */
LayerMap
daemonLayers(const DaemonMetrics &before, const DaemonMetrics &after,
             double wallS, unsigned poolThreads)
{
    LayerMap m;
    const auto q = after.dists.find("service.queue_wait_ms");
    m["service.queue_wait_ms"] = q == after.dists.end() ? 0 : q->second.p50;
    const double requests =
        std::max(1.0, delta(before, after, "service.requests"));
    m["daemon.requests"] = requests;
    m["service.coalesce_hits"] =
        delta(before, after, "service.coalesce_hits");
    const double ch = delta(before, after, "synth.cache.char_hits");
    const double cm = delta(before, after, "synth.cache.char_misses");
    m["synth.cache.hits"] = ch;
    m["synth.cache.lookups"] = ch + cm;
    m["synth.cache.hit_ratio"] = ch + cm > 0 ? ch / (ch + cm) : 0;
    m["synth.cache.evictions"] =
        delta(before, after, "synth.cache.char_evictions") +
        delta(before, after, "synth.cache.netlist_evictions");
    m["sim.batch.cycles"] =
        delta(before, after, "sim.batch.cycles") / requests;
    m["sim.batch.settles"] =
        delta(before, after, "sim.batch.settles") / requests;
    const double busyMs =
        distSumDelta(before, after, "parallel.worker_busy_ms");
    m["parallel.worker_busy_share"] =
        busyMs / (wallS * 1e3 * poolThreads);
    return m;
}

std::string
layerJson(const LayerMap &m)
{
    JsonOut j;
    for (const auto &[k, v] : m)
        j.num(k, v);
    return j.text();
}

void
writeRecords(const std::string &path, const std::vector<Record> &recs)
{
    std::ofstream f(path, std::ios::binary);
    fatalIf(!f, "cannot write " + path);
    for (const Record &r : recs) {
        const double row[6] = {r.latUs, r.firstUs, double(r.kind),
                               double(r.phase), r.endUs, double(r.ok)};
        f.write(reinterpret_cast<const char *>(row), sizeof(row));
    }
}

/** Replies checked against the reference, folded in check order. */
struct Verdict
{
    std::uint64_t wrong = 0, errors = 0;
    std::vector<std::uint64_t> got, want;
    std::string firstWrong;

    void
    check(const Record &r, const GenRequest &req,
          const std::string &expected)
    {
        const std::uint64_t h = fnv1a(expected);
        if (!r.ok) {
            ++errors;
        } else if (r.hash != h) {
            ++wrong;
            if (firstWrong.empty())
                firstWrong = req.line.substr(0, 200);
        }
        got.push_back(r.hash);
        want.push_back(h);
    }
};

/** Golden digest of the fixed request set, computed in process. */
std::uint64_t
goldenReference(Reference &ref)
{
    const std::vector<GenRequest> golden = goldenRequests();
    std::vector<std::size_t> slots;
    for (const GenRequest &g : golden)
        slots.push_back(ref.add(g));
    ref.compute();
    std::vector<std::uint64_t> hashes;
    for (std::size_t i = 0; i < golden.size(); ++i)
        hashes.push_back(fnv1a(ref.expected(golden[i], slots[i])));
    return foldDigest(hashes);
}

} // anonymous namespace

LayerMap
serviceProbeStandalone(const LoadOptions &o)
{
    const GenRequest hot = goldenRequests().front();
    const DaemonMetrics before = fetchMetrics(o);
    const Clock::time_point t0 = Clock::now();
    LayerMap m = roundTripProbes(o, hot);
    const double wallS = micros(t0, Clock::now()) * 1e-6;
    for (const auto &[k, v] :
         daemonLayers(before, fetchMetrics(o), wallS,
                      ThreadPool::defaultThreadCount()))
        m[k] = v;
    return m;
}

int
runProbeCommand(const LoadOptions &o)
{
    ErrorLog errors;
    // This part's triples of the whole probe.
    const std::vector<GenRequest> all = computeProbe(o.seed, kProbePerKind);
    const std::size_t from = kProbePerKind * o.part / o.parts;
    const std::size_t to = kProbePerKind * (o.part + 1) / o.parts;
    const std::vector<GenRequest> reqs(
        all.begin() + std::ptrdiff_t(3 * from),
        all.begin() + std::ptrdiff_t(3 * to));
    // Pacing, and (o.hier) the in-process hier flows that give a
    // service workload its tiled_gates_per_s.
    ThreadPool pool(0);
    std::vector<double> hierMs;
    std::uint64_t hierGates = 0;
    const Clock::time_point start = Clock::now();
    const auto pace = [&](std::size_t i) {
        if (i % 3)
            return; // within a (yield, classify, ISS) triple
        const std::size_t k = i / 3;
        if (o.hier && (from + k) % kTriplesPerHierFlow == 0) {
            const HierTimes t = runTiledFlow(hierProbeConfig(), pool);
            hierMs.push_back(t.totalMs);
            hierGates = t.gatesPre;
        }
        std::this_thread::sleep_until(start + k * kProbePace);
    };
    const std::vector<Record> recs =
        runSequential(o, reqs, errors, pace);
    Reference ref;
    std::vector<std::size_t> slots;
    for (const GenRequest &r : reqs)
        slots.push_back(ref.add(r));
    ref.compute();
    Verdict v;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        v.check(recs[i], reqs[i], ref.expected(reqs[i], slots[i]));
    writeRecords(o.recordsPath, recs);
    JsonOut out;
    out.num("attempted", double(recs.size()))
        .num("errors", double(v.errors))
        .num("wrong", double(v.wrong))
        .str("first_error", errors.first)
        .str("first_wrong", v.firstWrong)
        .num("hier_gates", double(hierGates))
        .raw("hier_ms", jsonArray(hierMs));
    std::ofstream f(o.outPath);
    fatalIf(!f, "cannot write " + o.outPath);
    f << out.text() << "\n";
    return 0;
}

std::string
goldenDigestInProcess()
{
    Reference ref;
    return hex64(goldenReference(ref));
}

int
runLoadCommand(const LoadOptions &o)
{
    const Generator gen(o.workload, o.seed);
    ErrorLog errors;
    std::vector<Record> records;
    std::vector<PhaseStats> phases;
    const unsigned poolThreads = ThreadPool::defaultThreadCount();

    // Measured phase(s). A traced run splits its time: an untraced
    // half (the baseline of trace_overhead) and a traced half.
    const double firstSeconds = o.traced ? o.seconds / 2 : o.seconds;
    const std::uint64_t freshBudget = o.traced ? o.maxFresh / 2
                                               : o.maxFresh;
    phases.push_back(runPhase("measured", gen, o, o.first, firstSeconds,
                              false, freshBudget, records, errors));
    DaemonMetrics before, after;
    if (o.traced) {
        before = fetchMetrics(o);
        phases.push_back(runPhase("traced", gen, o,
                                  o.first + phases[0].count,
                                  o.seconds / 2, true, freshBudget,
                                  records, errors));
        after = fetchMetrics(o);
    }

    // Handshake: run.py samples the serving processes' /proc here.
    std::cout << "phase-end" << std::endl;
    std::string line;
    std::getline(std::cin, line);

    const std::vector<Record> golden =
        runSequential(o, goldenRequests(), errors);

    LayerMap layers;
    if (o.traced) {
        GenRequest hot = gen.at(o.first);
        if (hot.kind != ReqKind::Synth || o.workload == "cold_synth")
            hot = goldenRequests().front();
        layers = daemonLayers(before, after, phases[1].wallS,
                              poolThreads);
        for (const auto &[k, v] : roundTripProbes(o, hot))
            layers[k] = v;
        std::vector<GenRequest> sample;
        for (std::uint64_t i = 0; i < std::min<std::uint64_t>(
                                          phases[0].count, kLayerSample);
             ++i)
            sample.push_back(gen.at(o.first + i));
        for (const auto &[k, v] :
             probeLayers(o.workload, sample, o.scratchDir))
            layers[k] = v;
    }

    // Reference check of every reply.
    std::sort(records.begin(), records.end(),
              [](const Record &a, const Record &b) {
                  return a.index < b.index;
              });
    Reference ref;
    const std::uint64_t goldenRef = goldenReference(ref);
    std::vector<std::size_t> slots(records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        slots[i] = ref.add(gen.at(records[i].index));
    ref.compute();

    Verdict v;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::uint64_t index = o.first + i;
        fatalIf(records[i].index != index, "record indices have a gap");
        v.check(records[i], gen.at(index),
                ref.expected(gen.at(index), slots[i]));
    }
    std::vector<std::uint64_t> goldenHashes;
    for (const Record &r : golden) {
        goldenHashes.push_back(r.hash);
        if (!r.ok)
            ++v.errors;
    }
    writeRecords(o.recordsPath, records);

    std::string phasesJson = "[";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const PhaseStats &p = phases[i];
        std::vector<double> send, wait, proc;
        for (const SpanRec &s : p.spans) {
            send.push_back(s.sendUs);
            wait.push_back(s.waitUs);
            proc.push_back(s.processUs);
        }
        JsonOut j;
        j.str("name", p.name)
            .num("first", double(p.first))
            .num("count", double(p.count))
            .num("wall_s", p.wallS)
            .num("cpu_s", p.cpuS);
        if (!p.spans.empty())
            j.num("client_send_us", median(send))
                .num("client_wait_us", median(wait))
                .num("client_process_us", median(proc));
        phasesJson += (i ? ", " : "") + j.text();
    }
    phasesJson += "]";

    JsonOut out;
    out.str("workload", o.workload)
        .num("seed", double(o.seed))
        .num("conns", o.conns)
        .num("pool_threads", poolThreads)
        .num("attempted", double(records.size() + golden.size()))
        .num("errors", double(v.errors))
        .num("wrong", double(v.wrong))
        .str("digest", hex64(foldDigest(v.got)))
        .str("expected_digest", hex64(foldDigest(v.want)))
        .str("golden_digest", hex64(foldDigest(goldenHashes)))
        .str("golden_reference", hex64(goldenRef))
        .str("first_error", errors.first)
        .str("first_wrong", v.firstWrong)
        .raw("phases", phasesJson)
        .raw("layers", layerJson(layers));
    std::ofstream f(o.outPath);
    fatalIf(!f, "cannot write " + o.outPath);
    f << out.text() << "\n";
    return 0;
}

} // namespace perfbench
