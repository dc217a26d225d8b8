/**
 * @file
 * What the printedd and printed-balancer mains share: checked flag
 * values and the serve-until-shutdown lifecycle.
 */

#ifndef PRINTED_SERVICE_DAEMON_MAIN_HH
#define PRINTED_SERVICE_DAEMON_MAIN_HH

#include <unistd.h>

#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "common/logging.hh"

namespace printed::service
{

/**
 * The decimal value `text` given for `flag`, at most `max`. Throws
 * FatalError on an empty value, a non-digit (signs and spaces
 * included), trailing characters, or a value above `max` — never a
 * silent truncation (--port 70000) or zero (--port abc).
 */
inline std::uint64_t
parseFlagNumber(const std::string &flag, const std::string &text,
                std::uint64_t max)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    fatalIf(text.empty() || ec == std::errc::invalid_argument ||
                ptr != end,
            flag + " needs a non-negative integer, got '" + text + "'");
    fatalIf(ec == std::errc::result_out_of_range || value > max,
            flag + " value " + text + " is out of range (max " +
                std::to_string(max) + ")");
    return value;
}

/** The value after flag argv[i]; advances i. */
inline std::string
flagValue(int argc, char **argv, int &i)
{
    fatalIf(i + 1 >= argc, std::string(argv[i]) + " needs a value");
    return argv[++i];
}

/** parseFlagNumber() of the value after flag argv[i]; advances i. */
inline std::uint64_t
flagNumber(int argc, char **argv, int &i, std::uint64_t max)
{
    const std::string flag = argv[i];
    return parseFlagNumber(flag, flagValue(argc, argv, i), max);
}

inline int gSignalPipe[2] = {-1, -1};

inline void
onShutdownSignal(int)
{
    const char byte = 1;
    (void)!::write(gSignalPipe[1], &byte, 1);
}

/**
 * Print `banner` on stdout (scripts parse it for the port), serve
 * until a "shutdown" request or SIGINT/SIGTERM, then drain. Signals
 * reach beginShutdown() through a self-pipe and a watcher thread:
 * beginShutdown takes locks, so it can't run in the handler.
 */
template <class Daemon>
void
serveUntilShutdown(Daemon &daemon, const std::string &banner)
{
    fatalIf(::pipe(gSignalPipe) != 0, "pipe() failed");
    std::signal(SIGINT, onShutdownSignal);
    std::signal(SIGTERM, onShutdownSignal);
    std::thread watcher([&daemon] {
        char byte;
        if (::read(gSignalPipe[0], &byte, 1) > 0)
            daemon.beginShutdown();
    });

    std::printf("%s\n", banner.c_str());
    std::fflush(stdout);

    daemon.wait();

    onShutdownSignal(0); // unblock the watcher after a wire shutdown
    watcher.join();
    ::close(gSignalPipe[0]);
    ::close(gSignalPipe[1]);
}

} // namespace printed::service

#endif // PRINTED_SERVICE_DAEMON_MAIN_HH
