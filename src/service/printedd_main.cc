/**
 * @file
 * printedd: the evaluation daemon. Binds, prints the listen
 * address on stdout (scripts parse that line to find the ephemeral
 * port), and serves until a "shutdown" request or SIGINT/SIGTERM,
 * then drains admitted requests and exits 0.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "common/trace.hh"
#include "service/daemon_main.hh"
#include "service/server.hh"

namespace
{

void
usage()
{
    std::fputs(
        "usage: printedd [options]\n"
        "  --host ADDR       listen address (default 127.0.0.1)\n"
        "  --port N          listen port (default 0 = ephemeral)\n"
        "  --executors N     request executor threads (default 2)\n"
        "  --pool-threads N  shared compute pool size (default\n"
        "                    0 = hardware concurrency)\n"
        "  --max-queue N     admission queue capacity (default 64)\n"
        "  --cache-cap N     SynthCache entry cap, 0 = unbounded\n"
        "                    (default 256)\n"
        "  --disk-cache DIR  persistent synthesis cache directory\n"
        "                    (crash-safe; survives restarts)\n"
        "  --fault-plan SPEC seeded fault injection, e.g.\n"
        "                    seed=42,drop=0.05,truncate=0.05,\n"
        "                    delay=0.1:20,queue_full=0.1,corrupt=1\n"
        "                    (env PRINTEDD_FAULT_PLAN as fallback)\n"
        "  --watchdog-ms N   deadline-overrun watchdog period\n"
        "                    (default 50, 0 = off)\n"
        "  --trace-out PATH  write a Chrome trace on exit\n",
        stderr);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using printed::service::flagNumber;
    using printed::service::flagValue;
    using printed::service::Server;
    using printed::service::ServerOptions;
    constexpr auto kUint = std::numeric_limits<unsigned>::max();
    constexpr auto kSize = std::numeric_limits<std::size_t>::max();

    ServerOptions opts;
    opts.cacheCapacity = 256;
    std::string traceOut;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        try {
            if (arg == "--host") {
                opts.host = flagValue(argc, argv, i);
            } else if (arg == "--port") {
                opts.port = std::uint16_t(flagNumber(argc, argv, i, 65535));
            } else if (arg == "--executors") {
                opts.executors = unsigned(flagNumber(argc, argv, i, kUint));
            } else if (arg == "--pool-threads") {
                opts.poolThreads =
                    unsigned(flagNumber(argc, argv, i, kUint));
            } else if (arg == "--max-queue") {
                opts.maxQueue = flagNumber(argc, argv, i, kSize);
            } else if (arg == "--cache-cap") {
                opts.cacheCapacity = flagNumber(argc, argv, i, kSize);
            } else if (arg == "--disk-cache") {
                opts.diskCacheDir = flagValue(argc, argv, i);
            } else if (arg == "--fault-plan") {
                opts.faultPlan = printed::service::FaultPlan::parse(
                    flagValue(argc, argv, i));
            } else if (arg == "--watchdog-ms") {
                opts.watchdogPeriodMs =
                    double(flagNumber(argc, argv, i, kUint));
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
            std::fprintf(stderr, "printedd: %s\n", e.what());
            return 2;
        }
    }

    if (!traceOut.empty())
        printed::trace::enable(traceOut);
    printed::trace::setThreadName("main");

    const char *env = std::getenv("PRINTEDD_FAULT_PLAN");
    try {
        if (!opts.faultPlan.enabled() && env && *env)
            opts.faultPlan = printed::service::FaultPlan::parse(env);
    } catch (const printed::FatalError &e) {
        std::fprintf(stderr, "printedd: %s\n", e.what());
        return 2;
    }
    if (opts.faultPlan.enabled())
        std::fprintf(stderr, "printedd: fault plan %s\n",
                     opts.faultPlan.describe().c_str());

    try {
        Server server(opts);
        server.start();
        printed::service::serveUntilShutdown(
            server, "printedd listening on " + opts.host + ":" +
                        std::to_string(server.port()));
    } catch (const printed::FatalError &e) {
        std::fprintf(stderr, "printedd: %s\n", e.what());
        return 1;
    }

    if (!traceOut.empty())
        printed::trace::flush();
    return 0;
}
