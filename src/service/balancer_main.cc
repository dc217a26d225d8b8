/**
 * @file
 * printed-balancer: the sharded front of a printedd fleet. Routes
 * by consistent-hashed request key over N workers — either spawned
 * here (--shards N) or externally managed (--worker H:P, repeated).
 * Prints its listen address on stdout like printedd, serves until a
 * "shutdown" request or SIGINT/SIGTERM, then drains (propagating
 * the drain to its workers) and exits 0.
 */

#include <cstdio>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "common/trace.hh"
#include "service/balancer.hh"
#include "service/daemon_main.hh"

namespace
{

/** "HOST:PORT" -> WorkerAddress (throws on a missing colon). */
printed::service::WorkerAddress
parseWorker(const std::string &spec)
{
    const std::size_t colon = spec.rfind(':');
    printed::fatalIf(colon == std::string::npos || colon == 0,
                     "--worker needs HOST:PORT, got '" + spec + "'");
    printed::service::WorkerAddress addr;
    addr.host = spec.substr(0, colon);
    addr.port = std::uint16_t(printed::service::parseFlagNumber(
        "--worker port", spec.substr(colon + 1), 65535));
    return addr;
}

/** Sibling printedd binary of this executable (spawn default). */
std::string
siblingPrintedd(const char *argv0)
{
    std::string path = argv0;
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos)
        return "printedd"; // rely on PATH
    return path.substr(0, slash + 1) + "printedd";
}

void
usage()
{
    std::fputs(
        "usage: printed-balancer [options]\n"
        "  --host ADDR       listen address (default 127.0.0.1)\n"
        "  --port N          listen port (default 0 = ephemeral)\n"
        "  --worker H:P      an externally managed printedd worker\n"
        "                    (repeat once per shard)\n"
        "  --shards N        spawn N printedd workers instead\n"
        "  --printedd PATH   printedd binary for --shards (default:\n"
        "                    next to this executable)\n"
        "  --worker-arg ARG  extra argv passed to spawned workers\n"
        "                    (repeatable, e.g. --worker-arg\n"
        "                    --disk-cache --worker-arg DIR)\n"
        "  --cache-cap N     shorthand: per-worker SynthCache cap\n"
        "  --disk-cache DIR  shorthand: shared persistent cache\n"
        "                    directory for every spawned worker\n"
        "  --vnodes N        ring vnodes per shard (default 128)\n"
        "  --fault-plan SPEC seeded faults on relayed compute\n"
        "                    frames (same spec as printedd)\n"
        "  --trace-out PATH  write a Chrome trace on exit\n",
        stderr);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using printed::service::Balancer;
    using printed::service::BalancerOptions;
    using printed::service::flagNumber;
    using printed::service::flagValue;
    constexpr auto kUint = std::numeric_limits<unsigned>::max();
    constexpr auto kSize = std::numeric_limits<std::size_t>::max();

    BalancerOptions opts;
    opts.printeddPath = siblingPrintedd(argv[0]);
    std::string traceOut;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        try {
            if (arg == "--host") {
                opts.host = flagValue(argc, argv, i);
            } else if (arg == "--port") {
                opts.port = std::uint16_t(flagNumber(argc, argv, i, 65535));
            } else if (arg == "--worker") {
                opts.workers.push_back(parseWorker(flagValue(argc, argv, i)));
            } else if (arg == "--shards") {
                opts.spawnWorkers =
                    unsigned(flagNumber(argc, argv, i, kUint));
            } else if (arg == "--printedd") {
                opts.printeddPath = flagValue(argc, argv, i);
            } else if (arg == "--worker-arg") {
                opts.workerArgs.push_back(flagValue(argc, argv, i));
            } else if (arg == "--cache-cap") {
                opts.workerArgs.push_back("--cache-cap");
                opts.workerArgs.push_back(std::to_string(
                    flagNumber(argc, argv, i, kSize)));
            } else if (arg == "--disk-cache") {
                opts.workerArgs.push_back("--disk-cache");
                opts.workerArgs.push_back(flagValue(argc, argv, i));
            } else if (arg == "--vnodes") {
                opts.vnodes = unsigned(flagNumber(argc, argv, i, kUint));
            } else if (arg == "--fault-plan") {
                opts.faultPlan = printed::service::FaultPlan::parse(
                    flagValue(argc, argv, i));
            } else if (arg == "--trace-out") {
                traceOut = flagValue(argc, argv, i);
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else {
                std::fprintf(stderr, "unknown option '%s'\n",
                             arg.c_str());
                usage();
                return 2;
            }
        } catch (const printed::FatalError &e) {
            std::fprintf(stderr, "printed-balancer: %s\n", e.what());
            return 2;
        }
    }

    if (opts.spawnWorkers == 0 && opts.workers.empty()) {
        std::fprintf(stderr, "printed-balancer: give --shards N or "
                             "at least one --worker H:P\n");
        usage();
        return 2;
    }
    if (opts.spawnWorkers > 0 && !opts.workers.empty()) {
        std::fprintf(stderr, "printed-balancer: --shards and "
                             "--worker are mutually exclusive\n");
        return 2;
    }

    if (!traceOut.empty())
        printed::trace::enable(traceOut);
    printed::trace::setThreadName("main");

    if (opts.faultPlan.enabled())
        std::fprintf(stderr, "printed-balancer: fault plan %s\n",
                     opts.faultPlan.describe().c_str());

    try {
        const std::string host = opts.host;
        Balancer balancer(std::move(opts));
        balancer.start();
        printed::service::serveUntilShutdown(
            balancer, "printed-balancer listening on " + host + ":" +
                          std::to_string(balancer.port()) + " (" +
                          std::to_string(balancer.shardCount()) +
                          " shards)");
    } catch (const printed::FatalError &e) {
        std::fprintf(stderr, "printed-balancer: %s\n", e.what());
        return 1;
    }

    if (!traceOut.empty())
        printed::trace::flush();
    return 0;
}
