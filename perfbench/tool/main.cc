/**
 * @file
 * perfbench-tool command line (see perfbench.hh for the commands).
 *
 *   perfbench-tool requests --workload W --seed S --count N
 *   perfbench-tool warm     --workload W --seed S --port P
 *   perfbench-tool golden
 *   perfbench-tool load     --workload W --seed S --seconds T
 *                           --port P [--relay-port P] --conns C
 *                           [--first I] [--count N] [--max-fresh N]
 *                           [--trace]
 *                           --out F
 *                           --records F --scratch DIR
 *   perfbench-tool probe    --seed S --port P [--hier]
 *                           [--part K --parts N] --out F --records F
 *   perfbench-tool tiled    --seed S --seconds T [--trace] [--serial]
 *                           [--port P --relay-port P]
 *                           --out F --records F
 *                           --scratch DIR
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "perfbench.hh"
#include "probes.hh"
#include "service/client.hh"

namespace
{

using namespace perfbench;

/** --flag value pairs and bare --flags. */
struct Args
{
    std::map<std::string, std::string> values;

    std::string
    get(const std::string &flag, const std::string &fallback = "") const
    {
        const auto it = values.find(flag);
        return it == values.end() ? fallback : it->second;
    }

    std::uint64_t
    num(const std::string &flag, std::uint64_t fallback) const
    {
        const std::string v = get(flag);
        return v.empty() ? fallback : std::strtoull(v.c_str(), nullptr, 10);
    }

    bool has(const std::string &flag) const { return values.count(flag); }
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        printed::fatalIf(flag.rfind("--", 0) != 0,
                         "unexpected argument '" + flag + "'");
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
            a.values[flag] = argv[++i];
        else
            a.values[flag] = "";
    }
    return a;
}

/**
 * Set-up warm-up: the workload's warm-up list over `--conns`
 * connections (the builds), then replayed in order on one (cache
 * hits that leave the list's last keys most recently used).
 */
int
warm(const Args &a)
{
    const Generator gen(a.get("--workload"), a.num("--seed", 1));
    const std::uint16_t port = std::uint16_t(a.num("--port", 0));
    const std::vector<GenRequest> reqs = gen.warmup();
    const unsigned conns = unsigned(std::max<std::uint64_t>(
        1, a.num("--conns", 1)));
    std::vector<std::string> failures(conns);
    const auto sendAll = [&](unsigned t, std::size_t stride) {
        try {
            printed::service::Client c("127.0.0.1", port);
            for (std::size_t i = t; i < reqs.size(); i += stride) {
                const std::string reply = c.call(reqs[i].line);
                if (reply.find("\"ok\": true") == std::string::npos)
                    throw std::runtime_error(reply);
            }
        } catch (const std::exception &e) {
            failures[t] = e.what();
        }
    };
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < conns; ++t)
        threads.emplace_back(sendAll, t, conns);
    for (std::thread &t : threads)
        t.join();
    sendAll(0, 1);
    for (const std::string &f : failures)
        printed::fatalIf(!f.empty(), "warm-up request failed: " + f);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench-tool "
                             "requests|warm|golden|load|probe|tiled ...\n");
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const Args a = parseArgs(argc, argv);
        if (cmd == "requests") {
            const Generator gen(a.get("--workload"), a.num("--seed", 1));
            const std::uint64_t n = a.num("--count", 10);
            for (std::uint64_t i = 0; i < n; ++i)
                std::cout << gen.at(i).line << "\n";
            return 0;
        }
        if (cmd == "warm")
            return warm(a);
        if (cmd == "golden") {
            std::cout << goldenDigestInProcess() << "\n";
            return 0;
        }
        if (cmd == "load") {
            LoadOptions o;
            o.workload = a.get("--workload");
            o.seed = a.num("--seed", 1);
            o.seconds = std::strtod(a.get("--seconds", "10").c_str(),
                                    nullptr);
            o.traced = a.has("--trace");
            o.port = std::uint16_t(a.num("--port", 0));
            o.relayPort = std::uint16_t(a.num("--relay-port", 0));
            o.conns = unsigned(a.num("--conns", 1));
            o.first = a.num("--first", 0);
            o.count = a.num("--count", 0);
            o.maxFresh = a.num("--max-fresh", 0);
            o.outPath = a.get("--out");
            o.recordsPath = a.get("--records");
            o.scratchDir = a.get("--scratch", ".");
            printed::fatalIf(!isServiceWorkload(o.workload),
                             "load: not a service workload");
            printed::fatalIf(o.conns == 0, "load: --conns must be > 0");
            return runLoadCommand(o);
        }
        if (cmd == "probe") {
            LoadOptions o;
            o.seed = a.num("--seed", 1);
            o.port = std::uint16_t(a.num("--port", 0));
            o.outPath = a.get("--out");
            o.recordsPath = a.get("--records");
            o.hier = a.has("--hier");
            o.part = unsigned(a.num("--part", 0));
            o.parts = unsigned(a.num("--parts", 1));
            printed::fatalIf(o.parts == 0 || o.part >= o.parts,
                             "probe: need --part < --parts");
            return runProbeCommand(o);
        }
        if (cmd == "tiled") {
            TiledOptions o;
            o.seed = a.num("--seed", 1);
            o.seconds = std::strtod(a.get("--seconds", "10").c_str(),
                                    nullptr);
            o.traced = a.has("--trace");
            o.serialCheck = a.has("--serial");
            o.port = std::uint16_t(a.num("--port", 0));
            o.relayPort = std::uint16_t(a.num("--relay-port", 0));
            o.outPath = a.get("--out");
            o.recordsPath = a.get("--records");
            o.scratchDir = a.get("--scratch", ".");
            return runTiledCommand(o);
        }
        std::fprintf(stderr, "perfbench-tool: unknown command '%s'\n",
                     cmd.c_str());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench-tool %s: %s\n", cmd.c_str(),
                     e.what());
        return 1;
    }
}
