/**
 * @file
 * Protocol-level tests of streaming partial replies (protocol v2):
 * partial frames arrive in strict point order and concatenate
 * byte-identically to the monolithic reply, v1 negotiation falls
 * back cleanly, and a mid-stream disconnect + RetryingClient resume
 * never duplicates or drops a point (reusing the fault_plan
 * drop/truncate machinery).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json_min.hh"
#include "service/balancer.hh"
#include "service/client.hh"
#include "service/fault_plan.hh"
#include "service/net_io.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "service/shard_map.hh"

namespace
{

using namespace printed;
using namespace printed::service;

SweepSpec
fourPointSpec()
{
    SweepSpec spec;
    spec.stages = {1, 2};
    spec.widths = {4, 8};
    spec.bars = {2};
    return spec;
}

/** A classify search small enough to stream in a few hundred ms:
 *  3 generations -> a 4-point stream (3 summaries + the front). */
ml::ClassifySpec
streamClassifySpec()
{
    ml::ClassifySpec spec;
    spec.dataset.features = 2;
    spec.dataset.classes = 2;
    spec.dataset.bits = 4;
    spec.dataset.train = 48;
    spec.dataset.holdout = 32;
    spec.depth = 2;
    spec.search.generations = 3;
    spec.search.population = 4;
    return spec;
}

TEST(Streaming, PartialsArriveInOrderAndReassembleByteExactly)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const SweepSpec spec = fourPointSpec();
    const std::string monolithic =
        client.call(sweepRequest("w", spec));
    ASSERT_TRUE(parseReply(monolithic).ok) << monolithic;

    client.send(sweepStreamRequest("w", spec));
    std::vector<std::string> points;
    for (;;) {
        const StreamFrame frame = classifyFrame(client.readLine());
        if (frame.kind == StreamFrame::Kind::Partial) {
            EXPECT_EQ(frame.id, "w");
            EXPECT_EQ(frame.index, points.size());
            EXPECT_EQ(frame.total, 4u);
            points.push_back(frame.pointBody);
            continue;
        }
        ASSERT_EQ(frame.kind, StreamFrame::Kind::Done);
        EXPECT_EQ(frame.points, 4u);
        break;
    }
    ASSERT_EQ(points.size(), 4u);

    // Concatenating the streamed point bodies reproduces the PR 5
    // monolithic reply byte-for-byte.
    EXPECT_EQ(assembleStreamedReply("w", RequestType::Sweep, points),
              monolithic);
}

TEST(Streaming, YieldStreamsAsAOnePointStream)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const CoreConfig cfg = CoreConfig::standard(1, 4, 2);
    const std::string monolithic =
        client.call(yieldRequest("y", cfg, 24, 7));
    ASSERT_TRUE(parseReply(monolithic).ok) << monolithic;

    client.send(yieldStreamRequest("y", cfg, 24, 7));
    const StreamFrame partial = classifyFrame(client.readLine());
    ASSERT_EQ(partial.kind, StreamFrame::Kind::Partial);
    EXPECT_EQ(partial.index, 0u);
    EXPECT_EQ(partial.total, 1u);
    const StreamFrame done = classifyFrame(client.readLine());
    ASSERT_EQ(done.kind, StreamFrame::Kind::Done);
    EXPECT_EQ(done.points, 1u);

    EXPECT_EQ(assembleStreamedReply("y", RequestType::Yield,
                                    {partial.pointBody}),
              monolithic);
}

TEST(Streaming, ClassifyStreamReassemblesByteExactly)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const ml::ClassifySpec spec = streamClassifySpec();
    const std::string monolithic =
        client.call(classifyRequest("c", spec));
    ASSERT_TRUE(parseReply(monolithic).ok) << monolithic;

    client.send(classifyStreamRequest("c", spec));
    std::vector<std::string> points;
    for (;;) {
        const StreamFrame frame = classifyFrame(client.readLine());
        if (frame.kind == StreamFrame::Kind::Partial) {
            EXPECT_EQ(frame.id, "c");
            EXPECT_EQ(frame.index, points.size());
            EXPECT_EQ(frame.total, 4u);
            points.push_back(frame.pointBody);
            continue;
        }
        ASSERT_EQ(frame.kind, StreamFrame::Kind::Done);
        EXPECT_EQ(frame.points, 4u);
        break;
    }
    ASSERT_EQ(points.size(), 4u);

    // Generation summaries stream first, the Pareto front last, and
    // reassembly reproduces the monolithic reply byte-for-byte.
    EXPECT_NE(points[0].find("\"generation\": 0"),
              std::string::npos);
    EXPECT_NE(points[3].find("\"front\""), std::string::npos);
    EXPECT_EQ(
        assembleStreamedReply("c", RequestType::Classify, points),
        monolithic);
}

TEST(Streaming, ClassifyResumeFromStartsMidSearch)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const ml::ClassifySpec spec = streamClassifySpec();
    client.send(classifyStreamRequest("r", spec, /*resumeFrom=*/2));
    const StreamFrame first = classifyFrame(client.readLine());
    ASSERT_EQ(first.kind, StreamFrame::Kind::Partial);
    EXPECT_EQ(first.index, 2u); // earlier generations not re-sent
    const StreamFrame second = classifyFrame(client.readLine());
    ASSERT_EQ(second.kind, StreamFrame::Kind::Partial);
    EXPECT_EQ(second.index, 3u); // the front
    const StreamFrame done = classifyFrame(client.readLine());
    ASSERT_EQ(done.kind, StreamFrame::Kind::Done);
    EXPECT_EQ(done.points, 4u);

    // Resuming past everything answers done without recomputing.
    client.send(classifyStreamRequest("r2", spec, /*resumeFrom=*/4));
    const StreamFrame only = classifyFrame(client.readLine());
    ASSERT_EQ(only.kind, StreamFrame::Kind::Done);
    EXPECT_EQ(only.points, 4u);
}

TEST(Streaming, ResumeFromStartsMidSweep)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    client.send(sweepStreamRequest("r", fourPointSpec(),
                                   /*resumeFrom=*/2));
    const StreamFrame first = classifyFrame(client.readLine());
    ASSERT_EQ(first.kind, StreamFrame::Kind::Partial);
    EXPECT_EQ(first.index, 2u); // earlier points are not re-sent
    const StreamFrame second = classifyFrame(client.readLine());
    ASSERT_EQ(second.kind, StreamFrame::Kind::Partial);
    EXPECT_EQ(second.index, 3u);
    const StreamFrame done = classifyFrame(client.readLine());
    ASSERT_EQ(done.kind, StreamFrame::Kind::Done);
    EXPECT_EQ(done.points, 4u); // the stream's total length
}

TEST(Streaming, FrameRenderersAndClassifierRoundTrip)
{
    const std::string partial = partialFrame(
        "id-1", RequestType::Sweep, 3, 24, "{\"gates\": 9}");
    const StreamFrame pf = classifyFrame(partial);
    EXPECT_EQ(pf.kind, StreamFrame::Kind::Partial);
    EXPECT_EQ(pf.id, "id-1");
    EXPECT_EQ(pf.index, 3u);
    EXPECT_EQ(pf.total, 24u);
    EXPECT_EQ(pf.pointBody, "{\"gates\": 9}");

    const StreamFrame df =
        classifyFrame(doneFrame("id-1", RequestType::Sweep, 24));
    EXPECT_EQ(df.kind, StreamFrame::Kind::Done);
    EXPECT_EQ(df.points, 24u);

    // Monolithic and error replies classify as Final.
    EXPECT_EQ(classifyFrame(
                  okReply("x", RequestType::Synth, "{\"g\": 1}"))
                  .kind,
              StreamFrame::Kind::Final);
    EXPECT_EQ(classifyFrame(errorReply("x", errc::queueFull, "no"))
                  .kind,
              StreamFrame::Kind::Final);

    // A degraded-annotated done frame still classifies as Done
    // (the balancer's failover annotation must not break clients).
    const StreamFrame dg = classifyFrame(
        markDegraded(doneFrame("id-1", RequestType::Sweep, 24)));
    EXPECT_EQ(dg.kind, StreamFrame::Kind::Done);
    EXPECT_EQ(dg.points, 24u);
}

TEST(Streaming, RequestLineRoundTripsThroughTheParser)
{
    const std::string line =
        sweepStreamRequest("s", fourPointSpec(), 2, 5000);
    const Request req = parseRequest(line);
    EXPECT_TRUE(req.stream);
    EXPECT_EQ(req.resumeFrom, 2u);
    EXPECT_EQ(requestLine(req), line);

    const Request mono = parseRequest(sweepRequest("s", fourPointSpec()));
    EXPECT_FALSE(mono.stream);
}

TEST(Streaming, V1MonolithicFallbackIsAccepted)
{
    // A v1 server ignores the unknown "stream" field and answers
    // monolithically; the streaming client must accept that as a
    // complete exchange. Fake the v1 server with a canned reply.
    const std::string canned = okReply(
        "w", RequestType::Sweep, "{\"points\": [{\"gates\": 1}]}");

    const int listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listenFd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(listenFd,
                     reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listenFd, 1), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    const std::uint16_t port = ntohs(addr.sin_port);

    std::thread v1([&] {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            return;
        std::string buf;
        char c;
        while (netio::recvSome(fd, &c, 1) == 1 && c != '\n')
            buf.push_back(c);
        const std::string framed = canned + "\n";
        netio::sendAll(fd, framed.data(), framed.size());
        char drain[64];
        while (netio::recvSome(fd, drain, sizeof(drain)) > 0) {
        }
        ::close(fd);
    });

    RetryingClient client("127.0.0.1", port);
    const StreamResult result =
        client.streamSweep("w", fourPointSpec());
    EXPECT_FALSE(result.streamed);
    EXPECT_TRUE(result.points.empty());
    EXPECT_EQ(result.reply.raw, canned);
    EXPECT_TRUE(result.reply.ok);

    client.close();
    v1.join();
    ::close(listenFd);
}

TEST(Streaming, MidStreamDisconnectResumesWithoutDupOrDrop)
{
    Server clean;
    clean.start();
    Client ref("127.0.0.1", clean.port());
    const SweepSpec spec = fourPointSpec();
    const std::string expected = ref.call(sweepRequest("w", spec));

    // A server that drops or truncates ~40% of compute frames:
    // partial frames die mid-stream, forcing resumes.
    ServerOptions opts;
    opts.faultPlan =
        FaultPlan::parse("seed=9,drop=0.25,truncate=0.15");
    Server faulty(opts);
    faulty.start();

    RetryPolicy policy;
    policy.maxLossRetries = 40;
    policy.baseBackoffMs = 1;
    policy.maxBackoffMs = 10;
    policy.jitterSeed = 3;
    RetryingClient client("127.0.0.1", faulty.port(), policy);

    constexpr unsigned kRounds = 8;
    for (unsigned round = 0; round < kRounds; ++round) {
        std::vector<std::uint64_t> seen;
        const StreamResult result = client.streamSweep(
            "w", spec,
            [&](std::uint64_t index, std::uint64_t total,
                const std::string &) {
                EXPECT_EQ(total, 4u);
                seen.push_back(index);
            });
        ASSERT_TRUE(result.reply.ok) << result.reply.raw;
        ASSERT_TRUE(result.streamed);

        // The callback fired exactly once per point, in order —
        // no matter how many resumes the faults forced.
        ASSERT_EQ(seen.size(), 4u);
        for (std::uint64_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i], i);

        // And the assembled reply is byte-identical to the clean
        // monolithic one.
        EXPECT_EQ(result.reply.raw, expected);
    }

    // The chaos must have actually bitten: at least one resume
    // replay picked up mid-stream (not just full-reply retries).
    EXPECT_GT(client.stats().streamResumes, 0u);
}

TEST(Streaming, ClassifyMidSearchDisconnectResumesWithoutDupOrDrop)
{
    Server clean;
    clean.start();
    Client ref("127.0.0.1", clean.port());
    const ml::ClassifySpec spec = streamClassifySpec();
    const std::string expected = ref.call(classifyRequest("c", spec));
    ASSERT_TRUE(parseReply(expected).ok) << expected;

    // A server that drops or truncates ~40% of compute frames:
    // partial frames die mid-search, forcing resumes.
    ServerOptions opts;
    opts.faultPlan =
        FaultPlan::parse("seed=11,drop=0.25,truncate=0.15");
    Server faulty(opts);
    faulty.start();

    RetryPolicy policy;
    policy.maxLossRetries = 40;
    policy.baseBackoffMs = 1;
    policy.maxBackoffMs = 10;
    policy.jitterSeed = 5;
    RetryingClient client("127.0.0.1", faulty.port(), policy);

    constexpr unsigned kRounds = 8;
    for (unsigned round = 0; round < kRounds; ++round) {
        std::vector<std::uint64_t> seen;
        const StreamResult result = client.streamClassify(
            "c", spec,
            [&](std::uint64_t index, std::uint64_t total,
                const std::string &) {
                EXPECT_EQ(total, 4u);
                seen.push_back(index);
            });
        ASSERT_TRUE(result.reply.ok) << result.reply.raw;
        ASSERT_TRUE(result.streamed);

        // The callback fired exactly once per point, in order —
        // no matter how many resumes the faults forced.
        ASSERT_EQ(seen.size(), 4u);
        for (std::uint64_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i], i);

        // And the assembled reply is byte-identical to the clean
        // server's monolithic one: the resumed search re-derives
        // the generations it already streamed bit-identically.
        EXPECT_EQ(result.reply.raw, expected);
    }

    // The chaos must have actually bitten: at least one resume
    // replay picked up mid-stream (not just full-reply retries).
    EXPECT_GT(client.stats().streamResumes, 0u);
}

TEST(Streaming, ClassifyThroughBalancerMatchesDirect)
{
    // One worker behind a balancer that drops ~30% of relayed
    // frames: the streamed classify must failover-resume through
    // the balancer and still assemble byte-identically to a direct
    // single-shard monolithic reply.
    Server worker;
    worker.start();
    Client direct("127.0.0.1", worker.port());
    const ml::ClassifySpec spec = streamClassifySpec();
    const std::string expected =
        direct.call(classifyRequest("c", spec));
    ASSERT_TRUE(parseReply(expected).ok) << expected;

    BalancerOptions bo;
    bo.workers.push_back({"127.0.0.1", worker.port()});
    bo.faultPlan = FaultPlan::parse("seed=17,drop=0.2,truncate=0.1");
    Balancer balancer(bo);
    balancer.start();

    RetryPolicy policy;
    policy.maxLossRetries = 40;
    policy.baseBackoffMs = 1;
    policy.maxBackoffMs = 10;
    policy.jitterSeed = 7;
    RetryingClient client("127.0.0.1", balancer.port(), policy);

    for (unsigned round = 0; round < 4; ++round) {
        const StreamResult result = client.streamClassify("c", spec);
        ASSERT_TRUE(result.reply.ok) << result.reply.raw;
        ASSERT_TRUE(result.streamed);
        ASSERT_EQ(result.points.size(), 4u);
        EXPECT_EQ(result.reply.raw, expected);
    }

    // The balancer also advertises classify in its merged health
    // (the intersection across its one live shard).
    Client admin("127.0.0.1", balancer.port());
    const std::string health =
        admin.call(adminRequest("h", RequestType::Health));
    const json::Value root = json::parse(health);
    const json::Value *types = root.find("result")->find("types");
    ASSERT_NE(types, nullptr) << health;
    bool hasClassify = false;
    for (const json::Value &t : types->array)
        hasClassify = hasClassify || t.string == "classify";
    EXPECT_TRUE(hasClassify) << health;
}

/**
 * A raw-socket printedd stand-in that is draining: it answers admin
 * requests ok, and every compute request with a shutting_down error,
 * after `partials` (real partial frames) when the request streams.
 */
class DrainingWorker
{
  public:
    explicit DrainingWorker(std::vector<std::string> partials)
        : partials_(std::move(partials))
    {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof(addr);
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   len) != 0 ||
            ::listen(listenFd_, 16) != 0)
            throw std::runtime_error("fake worker cannot listen");
        ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        port = ntohs(addr.sin_port);
        acceptor_ = std::thread([this] {
            for (;;) {
                const int fd = ::accept(listenFd_, nullptr, nullptr);
                if (fd < 0)
                    return;
                std::lock_guard lk(mutex_);
                conns_.emplace_back([this, fd] { serve(fd); });
            }
        });
    }

    ~DrainingWorker()
    {
        ::shutdown(listenFd_, SHUT_RDWR);
        acceptor_.join();
        for (std::thread &t : conns_)
            t.join(); // each ends when its peer hangs up
        ::close(listenFd_);
    }

    std::uint16_t port = 0;

  private:
    void serve(int fd)
    {
        std::string line;
        char c;
        while (netio::recvSome(fd, &c, 1) == 1) {
            if (c != '\n') {
                line.push_back(c);
                continue;
            }
            const Request req = parseRequest(line);
            line.clear();
            std::string out;
            if (req.type == RequestType::Health ||
                req.type == RequestType::Metrics ||
                req.type == RequestType::Shutdown) {
                out = okReply(req.id, req.type, "{}") + "\n";
            } else {
                for (const std::string &p : partials_)
                    out += req.stream ? p + "\n" : "";
                out += errorReply(req.id, errc::shuttingDown,
                                  "server is draining") +
                       "\n";
            }
            netio::sendAll(fd, out.data(), out.size());
        }
        ::close(fd);
    }

    std::vector<std::string> partials_;
    int listenFd_ = -1;
    std::thread acceptor_;
    std::mutex mutex_;
    std::vector<std::thread> conns_;
};

/**
 * A worker draining mid-exchange is a failover, not an answer: the
 * balancer must serve the real bytes from the next shard, resuming
 * past any partials it already relayed, and annotate only the final
 * frame as degraded.
 */
void
expectFailoverPastDrainingWorker(std::size_t partialsBeforeDrain)
{
    Server real;
    real.start();
    const SweepSpec spec = fourPointSpec();
    const std::string streamLine = sweepStreamRequest("w", spec);

    // Reference frames and monolithic reply, straight from printedd.
    std::vector<std::string> ref;
    Client direct("127.0.0.1", real.port());
    const std::string monolithic = direct.call(sweepRequest("w", spec));
    direct.send(streamLine);
    do
        ref.push_back(direct.readLine(10000));
    while (classifyFrame(ref.back()).kind == StreamFrame::Kind::Partial);
    ASSERT_EQ(ref.size(), 5u);

    // The draining worker owns the key; the real one is its
    // ring successor.
    DrainingWorker draining(std::vector<std::string>(
        ref.begin(), ref.begin() + long(partialsBeforeDrain)));
    const unsigned primary =
        ShardMap::forCount(2).shardFor(routeKey(parseRequest(streamLine)));
    BalancerOptions bo;
    bo.workers.resize(2);
    bo.workers[primary] = {"127.0.0.1", draining.port};
    bo.workers[1 - primary] = {"127.0.0.1", real.port()};
    Balancer balancer(bo);
    balancer.start();
    Client client("127.0.0.1", balancer.port());

    // Streamed: every partial once, in order, byte-identical; the
    // done frame alone carries the annotation.
    client.send(streamLine);
    std::vector<std::string> points;
    for (std::size_t i = 0; i < 4; ++i) {
        const std::string frame = client.readLine(10000);
        EXPECT_EQ(frame, ref[i]) << "partial " << i;
        points.push_back(classifyFrame(frame).pointBody);
    }
    EXPECT_EQ(client.readLine(10000), markDegraded(ref[4]));
    EXPECT_EQ(assembleStreamedReply("w", RequestType::Sweep, points),
              monolithic);
    // Counted before the degraded final frame was sent.
    EXPECT_EQ(balancer.stats().failovers.load(), 1u);

    // Monolithic, from a fresh balancer (the first one has marked
    // the draining worker down): the real reply, annotated.
    Balancer fresh(bo);
    fresh.start();
    Client mono("127.0.0.1", fresh.port());
    EXPECT_EQ(mono.call(sweepRequest("w", spec)),
              markDegraded(monolithic));
    EXPECT_EQ(fresh.stats().failovers.load(), 1u);
}

TEST(Streaming, BalancerFailsOverWhenAWorkerDrainsBeforeAnyPartial)
{
    expectFailoverPastDrainingWorker(0);
}

TEST(Streaming, BalancerResumesPastPartialsOfADrainingWorker)
{
    expectFailoverPastDrainingWorker(2);
}

} // namespace
