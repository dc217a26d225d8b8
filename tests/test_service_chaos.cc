/**
 * @file
 * Fault-injection (chaos) tests of the printedd service: a server
 * deliberately misbehaving per a seeded FaultPlan must not cost a
 * retrying client a single reply — zero lost, zero duplicated,
 * every reply byte-identical to a clean server's. Plus the
 * persistence half: warm restarts served from the disk cache,
 * corrupt-entry recovery, and an EINTR signal-storm regression test
 * for the socket I/O loops.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "service/balancer.hh"
#include "service/client.hh"
#include "service/fault_plan.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "service/shard_map.hh"
#include "synth/cache.hh"
#include "synth/disk_cache.hh"

namespace fs = std::filesystem;

namespace
{

using namespace printed;
using namespace printed::service;

/** A fresh unique cache directory, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/printed-chaos-XXXXXX";
        const char *p = ::mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path = p ? p : "";
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

CoreConfig
smallConfig()
{
    return CoreConfig::standard(1, 4, 2);
}

/** The compute workload both halves of a comparison test issue. */
std::vector<std::string>
chaosRequests()
{
    std::vector<std::string> reqs;
    reqs.push_back(synthRequest("s4", smallConfig()));
    reqs.push_back(
        synthRequest("s8", CoreConfig::standard(1, 8, 2)));
    reqs.push_back(yieldRequest("y", smallConfig(), 24, 7));
    SweepSpec spec;
    spec.stages = {1};
    spec.widths = {4, 8};
    spec.bars = {2};
    reqs.push_back(sweepRequest("w", spec));
    return reqs;
}

/** Reference reply lines from a clean (fault-free) server. */
std::map<std::string, std::string>
referenceReplies(const std::vector<std::string> &requests)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());
    std::map<std::string, std::string> ref;
    for (const std::string &req : requests) {
        const std::string raw = client.call(req);
        ref[parseReply(raw).id] = raw;
    }
    return ref;
}

std::uint64_t
faultTotal()
{
    return metrics::counter("service.fault.drops").value() +
           metrics::counter("service.fault.truncates").value() +
           metrics::counter("service.fault.delays").value() +
           metrics::counter("service.fault.queue_fulls").value();
}

TEST(ServiceChaos, RetryingClientSurvivesSeededFaults)
{
    const std::vector<std::string> requests = chaosRequests();
    const std::map<std::string, std::string> ref =
        referenceReplies(requests);

    ServerOptions opts;
    opts.faultPlan = FaultPlan::parse(
        "seed=42,drop=0.2,truncate=0.2,delay=0.1:5,queue_full=0.2");
    Server server(opts);
    server.start();

    RetryPolicy policy;
    policy.maxLossRetries = 12;
    policy.maxOverloadRetries = 100;
    policy.callTimeoutMs = 20000;
    policy.baseBackoffMs = 1;
    policy.maxBackoffMs = 20;
    policy.jitterSeed = 7;
    RetryingClient client("127.0.0.1", server.port(), policy);

    const std::uint64_t faultsBefore = faultTotal();

    // Several rounds of the full workload: every call must return
    // exactly one reply (zero lost — call() never swallows one;
    // zero duplicated — a replayed request replaces, never appends)
    // and the bytes must equal the clean server's.
    constexpr unsigned kRounds = 6;
    std::size_t replies = 0;
    for (unsigned round = 0; round < kRounds; ++round) {
        for (const std::string &req : requests) {
            const std::string raw = client.call(req);
            const Reply parsed = parseReply(raw);
            ASSERT_TRUE(parsed.ok) << raw;
            ASSERT_EQ(raw, ref.at(parsed.id));
            ++replies;
        }
    }
    EXPECT_EQ(replies, kRounds * requests.size());

    // The chaos has to have actually happened, and the client must
    // have actually healed (not merely never been hurt).
    EXPECT_GT(faultTotal(), faultsBefore);
    const RetryStats &rs = client.stats();
    EXPECT_GT(rs.lossReplays + rs.overloadReplays +
                  rs.timeoutReplays,
              0u);
}

TEST(ServiceChaos, WarmRestartServesSynthFromDisk)
{
    TempDir dir;
    const std::vector<std::string> requests = chaosRequests();

    // Earlier tests may have warmed the process-wide cache; start
    // cold so the first server actually builds (and so persists).
    SynthCache::global().clear();

    // First server lifetime: fill memory + disk.
    std::map<std::string, std::string> first;
    {
        ServerOptions opts;
        opts.diskCacheDir = dir.path;
        Server server(opts);
        server.start();
        Client client("127.0.0.1", server.port());
        for (const std::string &req : requests) {
            const std::string raw = client.call(req);
            ASSERT_TRUE(parseReply(raw).ok) << raw;
            first[parseReply(raw).id] = raw;
        }
    }
    {
        DiskCache inspect(dir.path);
        EXPECT_GT(inspect.entryCount(), 0u);
    }

    // Simulate the process restart the disk tier exists for: the
    // in-memory cache is gone, the directory survives.
    SynthCache::global().clear();
    const auto diskHits = [] {
        return metrics::counter("synth.disk_cache.netlist_hits")
                   .value() +
               metrics::counter("synth.disk_cache.char_hits")
                   .value();
    };
    const std::uint64_t hitsBefore = diskHits();

    ServerOptions opts;
    opts.diskCacheDir = dir.path;
    Server server(opts);
    server.start();
    Client client("127.0.0.1", server.port());
    for (const std::string &req : requests) {
        const std::string raw = client.call(req);
        const Reply parsed = parseReply(raw);
        ASSERT_TRUE(parsed.ok) << raw;
        // Byte-identical across the restart: the disk round trip
        // is exact, so the determinism rule spans processes.
        EXPECT_EQ(raw, first.at(parsed.id));
    }

    // The restarted server rebuilt nothing the disk had. A disk
    // characterization hit skips netlist elaboration entirely, so
    // synth requests show up as char_hits and only the yield
    // request (which needs the gates) as a netlist_hit — count
    // both. The workload touches widths 4 and 8 across two techs
    // plus the yield netlist, so at least 4 disk hits.
    EXPECT_GE(diskHits(), hitsBefore + 4);
}

TEST(ServiceChaos, CorruptedDiskEntryIsRebuiltNotTrusted)
{
    TempDir dir;
    const std::string req = synthRequest("s", smallConfig());
    SynthCache::global().clear(); // build, don't hit memory

    std::string expected;
    {
        ServerOptions opts;
        opts.diskCacheDir = dir.path;
        Server server(opts);
        server.start();
        Client client("127.0.0.1", server.port());
        expected = client.call(req);
        ASSERT_TRUE(parseReply(expected).ok) << expected;
    }

    SynthCache::global().clear();
    const std::uint64_t corruptBefore =
        metrics::counter("synth.disk_cache.corrupt").value();

    // Second boot corrupts one entry before serving (the disk half
    // of the fault plan). The checksum catches it: quarantined,
    // re-synthesized, and the reply is still byte-correct.
    ServerOptions opts;
    opts.diskCacheDir = dir.path;
    opts.faultPlan = FaultPlan::parse("seed=5,corrupt=2");
    Server server(opts);
    server.start();
    Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.call(req), expected);
    EXPECT_GT(metrics::counter("synth.disk_cache.corrupt").value(),
              corruptBefore);
}

TEST(ServiceChaos, BalancerAppliesQueueFullFromItsFaultPlan)
{
    Server worker;
    worker.start();
    BalancerOptions bo;
    bo.workers.push_back({"127.0.0.1", worker.port()});
    bo.faultPlan = FaultPlan::parse("seed=3,queue_full=1");
    Balancer balancer(bo);
    balancer.start();
    Client client("127.0.0.1", balancer.port());

    // Every compute request is refused before it is routed, with the
    // same reply printedd gives for an injected overload.
    const std::uint64_t before =
        metrics::counter("service.fault.queue_fulls").value();
    const std::vector<std::string> requests = chaosRequests();
    for (const std::string &req : requests) {
        const Reply r = parseReply(client.call(req));
        EXPECT_FALSE(r.ok) << r.raw;
        EXPECT_EQ(r.error, errc::queueFull) << r.raw;
        EXPECT_EQ(r.raw, queueFullReply(r.id, 10));
    }
    EXPECT_EQ(metrics::counter("service.fault.queue_fulls").value() -
                  before,
              requests.size());
    EXPECT_EQ(balancer.stats().routed.load(), 0u);

    // Admin requests are not compute work: health is still answered.
    const Reply health =
        parseReply(client.call(adminRequest("h", RequestType::Health)));
    EXPECT_TRUE(health.ok) << health.raw;
}

/** Remove the balancer's failover annotation from a reply line. */
std::string
stripDegraded(std::string raw)
{
    const std::string tag = ", \"degraded\": true";
    const std::size_t at = raw.rfind(tag);
    if (at != std::string::npos)
        raw.erase(at, tag.size());
    return raw;
}

TEST(ServiceChaos, KillOneShardMidBurstFailsOverAndHeals)
{
    TempDir dir;
    SynthCache::global().clear();

    // Twelve distinct cheap synth keys, spread over three shards by
    // the same ring every other party uses (the determinism
    // property test_shard_map pins).
    std::vector<std::string> requests;
    std::vector<unsigned> homes;
    const ShardMap ring = ShardMap::forCount(3);
    for (unsigned i = 0; i < 12; ++i) {
        CoreConfig c = smallConfig();
        c.opcodeMask = 0x3FF - i;
        requests.push_back(
            synthRequest("k" + std::to_string(i), c));
        homes.push_back(
            ring.shardFor(routeKey(parseRequest(requests.back()))));
    }

    // Three workers sharing one disk-cache directory, a balancer
    // with a fast probe cadence in front.
    auto makeWorker = [&](std::uint16_t port) {
        ServerOptions o;
        o.port = port;
        o.diskCacheDir = dir.path;
        auto s = std::make_unique<Server>(o);
        s->start();
        return s;
    };
    std::vector<std::unique_ptr<Server>> workers;
    for (int i = 0; i < 3; ++i)
        workers.push_back(makeWorker(0));
    std::vector<std::uint16_t> ports;
    for (const auto &w : workers)
        ports.push_back(w->port());

    BalancerOptions bo;
    for (std::uint16_t p : ports)
        bo.workers.push_back({"127.0.0.1", p});
    bo.probePeriodMs = 20;
    bo.probeBackoffBaseMs = 10;
    bo.probeBackoffMaxMs = 100;
    Balancer balancer(bo);
    balancer.start();

    // Reference bytes, straight from a worker (every shard answers
    // identically — the determinism rule).
    std::map<std::string, std::string> ref;
    {
        Client direct("127.0.0.1", ports[0]);
        for (const std::string &req : requests) {
            const std::string raw = direct.call(req);
            ASSERT_TRUE(parseReply(raw).ok) << raw;
            ref[parseReply(raw).id] = raw;
        }
    }

    const unsigned victim = homes[0];
    ASSERT_TRUE(balancer.shardUp(victim));

    // Burst through the balancer from several threads; mid-burst,
    // the victim shard dies. Every reply must still arrive ok and
    // byte-identical — directly for surviving shards, modulo the
    // "degraded" annotation for keys served by failover.
    std::atomic<bool> failed{false};
    std::string failure;
    std::mutex failureMutex;
    std::vector<std::thread> burst;
    for (unsigned t = 0; t < 3; ++t)
        burst.emplace_back([&, t] {
            try {
                RetryPolicy policy;
                policy.baseBackoffMs = 1;
                policy.maxBackoffMs = 20;
                policy.jitterSeed = 100 + t;
                RetryingClient client("127.0.0.1",
                                      balancer.port(), policy);
                for (unsigned round = 0; round < 4; ++round)
                    for (const std::string &req : requests) {
                        const std::string raw = client.call(req);
                        const Reply parsed = parseReply(raw);
                        if (!parsed.ok ||
                            stripDegraded(raw) !=
                                ref.at(parsed.id)) {
                            std::lock_guard lk(failureMutex);
                            failure = "bad reply: " + raw;
                            failed.store(true);
                            return;
                        }
                    }
            } catch (const std::exception &e) {
                std::lock_guard lk(failureMutex);
                failure = e.what();
                failed.store(true);
            }
        });

    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    workers[victim].reset(); // the shard dies mid-burst
    for (std::thread &t : burst)
        t.join();
    ASSERT_FALSE(failed.load()) << failure;

    // The balancer noticed: victim marked down, and a serial pass
    // confirms surviving-shard keys still answer byte-identical
    // with no annotation while the victim's keys are degraded.
    {
        RetryingClient client("127.0.0.1", balancer.port());
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const std::string raw = client.call(requests[i]);
            const Reply parsed = parseReply(raw);
            ASSERT_TRUE(parsed.ok) << raw;
            if (homes[i] == victim) {
                EXPECT_TRUE(parsed.degraded) << raw;
                EXPECT_EQ(stripDegraded(raw), ref.at(parsed.id));
            } else {
                EXPECT_FALSE(parsed.degraded) << raw;
                EXPECT_EQ(raw, ref.at(parsed.id));
            }
        }
    }
    EXPECT_FALSE(balancer.shardUp(victim));

    // Restart the dead shard on its old port with a cold memory
    // cache: its keys must heal from the shared disk cache, and
    // the probe must mark it up again.
    SynthCache::global().clear();
    const auto diskHits = [] {
        return metrics::counter("synth.disk_cache.netlist_hits")
                   .value() +
               metrics::counter("synth.disk_cache.char_hits")
                   .value();
    };
    const std::uint64_t hitsBefore = diskHits();
    workers[victim] = makeWorker(ports[victim]);

    const auto reviveDeadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!balancer.shardUp(victim) &&
           std::chrono::steady_clock::now() < reviveDeadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(balancer.shardUp(victim)) << "probe never revived";

    {
        RetryingClient client("127.0.0.1", balancer.port());
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const std::string raw = client.call(requests[i]);
            const Reply parsed = parseReply(raw);
            ASSERT_TRUE(parsed.ok) << raw;
            EXPECT_FALSE(parsed.degraded) << raw;
            EXPECT_EQ(raw, ref.at(parsed.id));
        }
    }
    EXPECT_GT(diskHits(), hitsBefore); // healed from disk, not luck
}

// ---------------------------------------------------------------
// EINTR / partial-I/O regression (the signal-storm test)
// ---------------------------------------------------------------

void
noopHandler(int)
{
}

TEST(ServiceChaos, SocketLoopsSurviveSignalStorm)
{
    // Install a SIGUSR1 handler *without* SA_RESTART, so every
    // blocking send/recv/poll in the storm thread is interrupted
    // with EINTR instead of transparently restarted — the exact
    // condition the netio helpers must absorb.
    struct sigaction sa{};
    struct sigaction old{};
    sa.sa_handler = noopHandler;
    ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

    Server server;
    server.start();

    const std::vector<std::string> requests = chaosRequests();
    const std::map<std::string, std::string> ref =
        referenceReplies(requests);

    std::atomic<bool> done{false};
    std::string failure;
    std::thread storm([&] {
        try {
            Client client("127.0.0.1", server.port());
            for (unsigned round = 0; round < 8; ++round) {
                for (const std::string &req : requests) {
                    const std::string raw = client.call(req);
                    const Reply parsed = parseReply(raw);
                    if (raw != ref.at(parsed.id)) {
                        failure = "mismatched reply: " + raw;
                        break;
                    }
                }
            }
        } catch (const std::exception &e) {
            failure = e.what();
        }
        done.store(true);
    });

    // Pepper the client thread with signals while it works.
    while (!done.load()) {
        pthread_kill(storm.native_handle(), SIGUSR1);
        std::this_thread::sleep_for(
            std::chrono::microseconds(200));
    }
    storm.join();
    sigaction(SIGUSR1, &old, nullptr);
    EXPECT_TRUE(failure.empty()) << failure;
}

} // namespace
