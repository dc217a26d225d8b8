/**
 * @file
 * tiled_synth: the in-process million-gate hierarchical flow
 * (elaborate -> optimizeBlocks -> flatten -> characterize) repeated
 * for the measured time on a pool of nproc threads. Every flow must
 * produce the same design as the first, and (--serial) as a
 * one-thread flow.
 */

#include <sys/resource.h>

#include <fstream>
#include <iostream>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "perfbench.hh"
#include "probes.hh"

namespace perfbench
{

using namespace printed;

namespace
{

double
cpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/** One row of the records file (same layout as the load command). */
struct Row
{
    double latUs, firstUs, kind, phase, endUs, ok;
};

struct FlowPhase
{
    std::string name;
    std::size_t first = 0, count = 0;
    double wallS = 0, cpuS = 0;
};

} // anonymous namespace

int
runTiledCommand(const TiledOptions &o)
{
    // Set-up: size the grid (synthesizes one tile), start the pool,
    // run one small flow.
    const Clock::time_point s0 = Clock::now();
    const TiledConfig cfg = tiledConfigForGates(o.targetGates);
    ThreadPool pool(0);
    runTiledFlow(hierProbeConfig(), pool); // warm the allocator
    const double setupS = micros(s0, Clock::now()) * 1e-6;

    std::vector<HierTimes> flows;
    std::vector<FlowPhase> phases;
    const auto runFor = [&](const std::string &name, double seconds) {
        FlowPhase p;
        p.name = name;
        p.first = flows.size();
        const double cpu0 = cpuSeconds();
        const Clock::time_point t0 = Clock::now();
        do {
            flows.push_back(runTiledFlow(cfg, pool));
        } while (micros(t0, Clock::now()) * 1e-6 < seconds);
        p.wallS = micros(t0, Clock::now()) * 1e-6;
        p.cpuS = cpuSeconds() - cpu0;
        p.count = flows.size() - p.first;
        phases.push_back(p);
    };
    if (o.traced) {
        runFor("measured", o.seconds / 2);
        runFor("traced", o.seconds / 2);
    } else {
        runFor("measured", o.seconds);
    }

    // Handshake: run.py samples this process's /proc here.
    std::cout << "phase-end" << std::endl;
    std::string line;
    std::getline(std::cin, line);

    HierTimes ref = flows.front();
    if (o.serialCheck || o.traced) {
        ThreadPool one(1);
        ref = runTiledFlow(cfg, one);
    }
    std::uint64_t wrong = 0;
    for (const HierTimes &t : flows)
        if (t.gatesPre != ref.gatesPre || t.gatesPost != ref.gatesPost ||
            t.fingerprint != ref.fingerprint)
            ++wrong;

    std::vector<Row> rows;
    for (std::size_t p = 0; p < phases.size(); ++p)
        for (std::size_t i = phases[p].first;
             i < phases[p].first + phases[p].count; ++i)
            rows.push_back({flows[i].totalMs * 1e3, -1,
                            double(ReqKind::Synth), double(p), 0, 1});
    LayerMap layers;
    if (o.traced) {
        layers = probeLayers("tiled_synth", {}, o.scratchDir);
        LoadOptions svc;
        svc.port = o.port;
        svc.relayPort = o.relayPort;
        for (const auto &[k, v] : serviceProbeStandalone(svc))
            layers[k] = v;
        const std::vector<HierTimes> traced(
            flows.begin() + std::ptrdiff_t(phases[1].first),
            flows.end());
        recordHier(traced, ref, pool.threadCount(), layers);
    }

    std::ofstream rf(o.recordsPath, std::ios::binary);
    fatalIf(!rf, "cannot write " + o.recordsPath);
    rf.write(reinterpret_cast<const char *>(rows.data()),
             std::streamsize(rows.size() * sizeof(Row)));

    std::string phasesJson = "[";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        JsonOut j;
        j.str("name", phases[i].name)
            .num("first", double(phases[i].first))
            .num("count", double(phases[i].count))
            .num("wall_s", phases[i].wallS)
            .num("cpu_s", phases[i].cpuS);
        phasesJson += (i ? ", " : "") + j.text();
    }
    phasesJson += "]";
    JsonOut lj;
    for (const auto &[k, v] : layers)
        lj.num(k, v);

    JsonOut out;
    out.str("workload", "tiled_synth")
        .num("seed", double(o.seed))
        .num("pool_threads", pool.threadCount())
        .num("attempted", double(flows.size()))
        .num("errors", 0)
        .num("wrong", double(wrong))
        .str("design", cfg.label())
        .num("gates_pre_opt", double(ref.gatesPre))
        .num("gates_post_opt", double(ref.gatesPost))
        .num("flat_gates", double(ref.flatGates))
        .str("flatten_fingerprint", hex64(ref.fingerprint))
        .num("setup_s", setupS)
        .raw("phases", phasesJson)
        .raw("layers", lj.text());
    std::ofstream f(o.outPath);
    fatalIf(!f, "cannot write " + o.outPath);
    f << out.text() << "\n";
    return 0;
}

} // namespace perfbench
