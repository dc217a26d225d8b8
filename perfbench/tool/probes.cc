/**
 * @file
 * In-process per-layer probes: each one times calls into one module's
 * public functions, on inputs taken from the workload where the
 * workload exercises that module and on a fixed small input where it
 * does not, so every traced run reports every layer.
 */

#include <algorithm>
#include <filesystem>

#include "analysis/characterize.hh"
#include "analysis/fault.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "core/cosim.hh"
#include "core/generator.hh"
#include "core/tiled.hh"
#include "dse/sweep.hh"
#include "legacy/batch_iss.hh"
#include "legacy/ir.hh"
#include "ml/evolve.hh"
#include "perfbench.hh"
#include "probes.hh"
#include "service/protocol.hh"
#include "service/shard_map.hh"
#include "synth/cache.hh"
#include "synth/disk_cache.hh"
#include "synth/opt.hh"
#include "tech/library.hh"
#include "workloads/kernels.hh"

namespace perfbench
{

using namespace printed;
using namespace printed::service;

namespace
{

/** Counter adds and distribution records on a synth request's path
 *  through printedd (requests, requests_synth, dse.points, two cache
 *  hits, replies_ok; queue_wait_ms, exec_ms). */
constexpr double kCounterAddsPerRequest = 6;
constexpr double kDistRecordsPerRequest = 2;

template <typename Fn>
double
timeUs(Fn &&fn)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    return micros(t0, Clock::now());
}

std::vector<CoreConfig>
sampleConfigs(const std::vector<GenRequest> &sample, std::size_t most)
{
    std::vector<CoreConfig> out;
    for (const GenRequest &r : sample)
        if (r.kind == ReqKind::Synth && out.size() < most)
            out.push_back(parseRequest(r.line).config);
    if (out.empty())
        out.push_back(yieldConfig());
    return out;
}

/** The synthesis layers: elaborate, optimize, characterize, cache. */
void
probeSynth(const std::vector<CoreConfig> &configs,
           const std::string &scratchDir, LayerMap &m)
{
    std::vector<double> elab, opt, charz, store, load;
    std::filesystem::path dir =
        std::filesystem::path(scratchDir) / "disk-probe";
    std::filesystem::remove_all(dir);
    DiskCache disk(dir.string());
    for (const CoreConfig &c : configs) {
        Netlist nl;
        elab.push_back(timeUs([&] { nl = elaborateCore(c); }));
        opt.push_back(timeUs([&] { synth::optimize(nl); }));
        for (TechKind tech : {TechKind::EGFET, TechKind::CNT_TFT}) {
            Characterization ch;
            charz.push_back(timeUs([&] {
                ch = characterize(nl, libraryFor(tech));
            }));
            const CoreConfigKey key = coreConfigKey(c);
            store.push_back(timeUs([&] {
                disk.storeCharacterization(key, tech,
                                           paperActivityFactor, ch);
            }));
            load.push_back(timeUs([&] {
                fatalIf(!disk.loadCharacterization(
                            key, tech, paperActivityFactor),
                        "disk probe: stored entry did not load");
            }));
        }
    }
    std::filesystem::remove_all(dir);
    m["core.elaborate_us"] = median(elab);
    m["synth.optimize_us"] = median(opt);
    m["analysis.characterize_us"] = median(charz);
    m["synth.disk.store_us"] = median(store);
    m["synth.disk.load_us"] = median(load);

    SynthCache &cache = SynthCache::global();
    const CoreConfig &warm = configs.front();
    cache.characterization(warm, TechKind::EGFET);
    std::vector<double> hit;
    for (unsigned i = 0; i < 2000; ++i)
        hit.push_back(timeUs(
            [&] { cache.characterization(warm, TechKind::EGFET); }));
    m["synth.cache.hit_us"] = median(hit);
}

/** Protocol layer: parse, render, routing. */
void
probeProtocol(const std::vector<GenRequest> &sample, LayerMap &m)
{
    std::vector<double> parse;
    for (unsigned rep = 0; rep < 20; ++rep)
        for (const GenRequest &r : sample)
            parse.push_back(timeUs([&] { parseRequest(r.line); }));
    m["service.parse_us"] = median(parse);

    const ShardMap ring = ShardMap::forCount(2);
    std::vector<std::string> keys;
    for (const GenRequest &r : sample)
        keys.push_back(routeKey(parseRequest(r.line)));
    constexpr unsigned reps = 2000;
    unsigned shards = 0;
    const double us = timeUs([&] {
        for (unsigned rep = 0; rep < reps; ++rep)
            for (const std::string &k : keys)
                shards += ring.shardFor(k);
    });
    fatalIf(shards > reps * keys.size(), "shard id out of a 2-shard ring");
    m["shard_map.shard_for_ns"] = 1e3 * us / double(reps * keys.size());

    // How a 2-shard printed-balancer would split the sampled requests:
    // the busiest shard's count over an even share.
    double perShard[2] = {0, 0};
    for (const std::string &k : keys)
        perShard[ring.shardFor(k)] += 1;
    m["balancer.shard_spread"] = std::max(perShard[0], perShard[1]) /
                                 (double(keys.size()) / 2);
}

/**
 * The disk tier on the workload's sampled synth lookups, in order: a
 * fresh DiskCache answers each one or, on a miss, stores the entry,
 * as printedd --disk-cache does. The hit ratio is the share answered.
 */
void
probeDiskTier(const std::vector<CoreConfig> &stream,
              const std::string &scratchDir, LayerMap &m)
{
    const std::filesystem::path dir =
        std::filesystem::path(scratchDir) / "disk-tier";
    std::filesystem::remove_all(dir);
    double hits = 0;
    {
        DiskCache disk(dir.string());
        for (const CoreConfig &c : stream) {
            const CoreConfigKey key = coreConfigKey(c);
            if (disk.loadCharacterization(key, TechKind::EGFET,
                                          paperActivityFactor))
                ++hits;
            else
                disk.storeCharacterization(
                    key, TechKind::EGFET, paperActivityFactor,
                    *SynthCache::global().characterization(
                        c, TechKind::EGFET));
        }
    }
    std::filesystem::remove_all(dir);
    m["synth.disk.lookups"] = double(stream.size());
    m["synth.disk.hit_ratio"] = hits / double(stream.size());
}

/**
 * Render cost per request: every kind in the sample rendered from
 * one real result of that kind, weighted by its share of the sample.
 */
void
probeRender(const std::vector<GenRequest> &sample, ThreadPool &pool,
            LayerMap &m)
{
    std::map<ReqKind, unsigned> kinds;
    for (const GenRequest &r : sample)
        ++kinds[r.kind];
    double total = 0;
    for (const auto &[kind, count] : kinds) {
        const GenRequest &r = *std::find_if(
            sample.begin(), sample.end(),
            [&](const GenRequest &g) { return g.kind == kind; });
        const Request req = parseRequest(r.line);
        std::function<void()> render;
        if (kind == ReqKind::Synth) {
            const DesignPoint p = evaluateDesignPoint(req.config);
            render = [p, id = r.id] {
                okReply(id, RequestType::Synth, synthBody(p));
            };
        } else if (kind == ReqKind::Yield ||
                   kind == ReqKind::YieldStream) {
            FunctionalYieldConfig mc;
            mc.trials = req.trials;
            mc.fault.seed = req.seed;
            mc.pool = &pool;
            const FunctionalYieldReport rep = measureFunctionalYield(
                *SynthCache::global().core(req.config), req.config,
                mc);
            const bool stream = kind == ReqKind::YieldStream;
            render = [rep, c = req.config, id = r.id, stream] {
                const std::string body = yieldBody(c, rep);
                if (stream) {
                    partialFrame(id, RequestType::Yield, 0, 1, body);
                    doneFrame(id, RequestType::Yield, 1);
                } else {
                    okReply(id, RequestType::Yield, body);
                }
            };
        } else if (kind == ReqKind::Iss) {
            SweepOptions opts;
            opts.pool = &pool;
            const auto points = sweepLegacyIss(req.iss, opts);
            render = [points, id = r.id] {
                okReply(id, RequestType::Sweep, issSweepBody(points));
            };
        } else {
            const ml::ClassifyResult res =
                ml::runClassify(req.classify, pool);
            render = [res, id = r.id] {
                const std::uint64_t total = res.generations.size() + 1;
                for (const ml::GenerationReport &g : res.generations)
                    partialFrame(id, RequestType::Classify,
                                 g.generation, total,
                                 classifyGenerationBody(g));
                partialFrame(id, RequestType::Classify, total - 1,
                             total, classifyFrontBody(res));
                doneFrame(id, RequestType::Classify, total);
            };
        }
        std::vector<double> us;
        for (unsigned i = 0; i < 200; ++i)
            us.push_back(timeUs(render));
        total += median(us) * count;
    }
    m["service.render_us"] = total / double(sample.size());
}

/** Yield path: golden-verify cosim and the Monte Carlo. */
void
probeYield(ThreadPool &pool, std::uint64_t seed, LayerMap &m)
{
    const CoreConfig cfg = yieldConfig();
    const auto core = SynthCache::global().core(cfg);
    const unsigned w = cfg.isa.datawidth;
    const Workload wl =
        makeWorkload(Kernel::Mult, w, w, cfg.isa.barCount);
    const auto inputs = defaultInputs(Kernel::Mult, w);
    std::vector<double> cosim;
    for (unsigned i = 0; i < 5; ++i) {
        CoreCosim cs(*core, cfg, wl.program, wl.dmemWords);
        cs.reset();
        wl.load([&](std::size_t a, std::uint64_t v) { cs.setMem(a, v); },
                inputs);
        cosim.push_back(timeUs([&] { cs.run(); }) * 1e-3);
    }
    m["core.golden_cosim_ms"] = median(cosim);

    std::vector<double> ms;
    for (unsigned i = 0; i < 3; ++i) {
        FunctionalYieldConfig mc;
        mc.trials = 256;
        mc.fault.seed = seed + i;
        mc.pool = &pool;
        ms.push_back(timeUs([&] {
                         measureFunctionalYield(*core, cfg, mc);
                     }) *
                     1e-3);
    }
    m["analysis.yield_ms"] = median(ms);
    m["fault.trials_per_s"] = 256 / (median(ms) * 1e-3);
}

/** ISS path: the batch engine alone and the whole sweep. */
void
probeIss(ThreadPool &pool, std::uint64_t seed, LayerMap &m)
{
    IssSweepSpec spec;
    spec.machines = 64;
    spec.seed = seed;
    spec.cores.assign(legacy::allLegacyCores.begin(),
                      legacy::allLegacyCores.end());
    spec.kernels = {Kernel::Mult, Kernel::Div};
    double insns = 0, us = 0;
    for (const auto &[core, kernel] : spec.grid()) {
        const legacy::IrProgram prog =
            legacy::irKernel(kernel, spec.width);
        std::vector<std::vector<std::uint64_t>> inputs;
        for (std::size_t i = 0; i < spec.machines; ++i)
            inputs.push_back(
                defaultInputs(kernel, spec.width, spec.seed + i));
        legacy::IssBatchOptions opts;
        opts.pool = &pool;
        legacy::IssBatchResult res;
        us += timeUs([&] {
            res = legacy::runLegacyBatch(core, prog, inputs, opts);
        });
        insns += double(res.totalInstructions);
    }
    m["legacy.iss_insns_per_s"] = insns / (us * 1e-6);

    std::vector<double> ms;
    SweepOptions opts;
    opts.pool = &pool;
    for (unsigned i = 0; i < 5; ++i)
        ms.push_back(timeUs([&] { sweepLegacyIss(spec, opts); }) * 1e-3);
    m["dse.iss_sweep_ms"] = median(ms);
}

/** Classifier search (uncached), candidates per second. */
void
probeClassify(ThreadPool &pool, std::uint64_t seed, LayerMap &m)
{
    std::vector<double> rates, ms;
    metrics::Counter &scored =
        metrics::counter("ml.candidates_scored");
    for (unsigned i = 0; i < 3; ++i) {
        ml::ClassifySpec spec;
        spec.search.seed = seed + i;
        const std::uint64_t before = scored.value();
        const double us = timeUs([&] { ml::runClassify(spec, pool); });
        rates.push_back(double(scored.value() - before) / (us * 1e-6));
        ms.push_back(us * 1e-3);
    }
    m["ml.candidates_per_s"] = median(rates);
    m["ml.classify_ms"] = median(ms);
}

/** Cost of the public metric record calls. */
void
probeMetrics(LayerMap &m)
{
    metrics::Counter counter;
    metrics::Distribution dist;
    constexpr unsigned n = 200000;
    const double cUs = timeUs([&] {
        for (unsigned i = 0; i < n; ++i)
            counter.add(1);
    });
    const double dUs = timeUs([&] {
        for (unsigned i = 0; i < n; ++i)
            dist.record(double(i & 1023));
    });
    const double counterNs = 1e3 * cUs / n;
    const double distNs = 1e3 * dUs / n;
    m["metrics.counter_ns"] = counterNs;
    m["metrics.distribution_ns"] = distNs;
    m["metrics.record_ns"] = kCounterAddsPerRequest * counterNs +
                             kDistRecordsPerRequest * distNs;
}

} // anonymous namespace

HierTimes
runTiledFlow(const TiledConfig &cfg, ThreadPool &pool)
{
    HierTimes t;
    double checkUs = 0;
    const Clock::time_point t0 = Clock::now();
    {
        hier::Design d = buildTiledDesign(cfg);
        const Clock::time_point t1 = Clock::now();
        t.gatesPre = d.gateCount();
        d.optimizeBlocks(pool);
        const Clock::time_point t2 = Clock::now();
        t.gatesPost = d.gateCount();
        const Netlist flat = d.flatten();
        const Clock::time_point t3 = Clock::now();
        d.characterizeDesign(pool, egfetLibrary());
        const Clock::time_point t4 = Clock::now();
        t.elaborateMs = micros(t0, t1) * 1e-3;
        t.optimizeMs = micros(t1, t2) * 1e-3;
        t.flattenMs = micros(t2, t3) * 1e-3;
        t.characterizeMs = micros(t3, t4) * 1e-3;

        // The benchmark's own identity check, kept out of the flow time.
        std::uint64_t h = fnv1a(nullptr, 0);
        for (GateId g = 0; g < flat.gateCount(); ++g) {
            const Gate gate = flat.gate(g);
            const std::uint32_t row[4] = {std::uint32_t(gate.kind),
                                          gate.in0, gate.in1, gate.out};
            h = fnv1a(row, sizeof(row), h);
        }
        t.flatGates = flat.gateCount();
        t.fingerprint = fnv1a(&t.flatGates, sizeof(t.flatGates), h);
        checkUs = micros(t4, Clock::now());
    }
    // The flow ends when the design and its flat netlist are freed.
    t.totalMs = (micros(t0, Clock::now()) - checkUs) * 1e-3;
    return t;
}

TiledConfig
hierProbeConfig()
{
    TiledConfig cfg; // ~210k elaborated gates: flows of a few 100 ms
    cfg.rows = 16;
    cfg.cols = 16;
    return cfg;
}

void
probeHier(ThreadPool &pool, LayerMap &m)
{
    const TiledConfig cfg = hierProbeConfig();
    std::vector<HierTimes> runs;
    for (unsigned i = 0; i < 3; ++i)
        runs.push_back(runTiledFlow(cfg, pool));
    ThreadPool one(1);
    const HierTimes serial = runTiledFlow(cfg, one);
    recordHier(runs, serial, pool.threadCount(), m);
}

void
recordHier(const std::vector<HierTimes> &runs, const HierTimes &serial,
           unsigned threads, LayerMap &m)
{
    std::vector<double> e, o, f, c;
    for (const HierTimes &t : runs) {
        e.push_back(t.elaborateMs);
        o.push_back(t.optimizeMs);
        f.push_back(t.flattenMs);
        c.push_back(t.characterizeMs);
    }
    m["hier.elaborate_ms"] = median(e);
    m["hier.optimize_ms"] = median(o);
    m["hier.flatten_ms"] = median(f);
    m["hier.characterize_ms"] = median(c);
    m["hier.optimize_efficiency"] =
        serial.optimizeMs / (double(threads) * median(o));
}

LayerMap
probeLayers(const std::string &workload,
            const std::vector<GenRequest> &sample,
            const std::string &scratchDir)
{
    LayerMap m;
    ThreadPool pool(0);
    const std::uint64_t seed = fnv1a(workload);
    std::vector<GenRequest> reqs = sample;
    if (reqs.empty())
        reqs = goldenRequests();
    probeProtocol(reqs, m);
    probeRender(reqs, pool, m);
    probeSynth(sampleConfigs(reqs, 16), scratchDir, m);
    probeDiskTier(sampleConfigs(reqs, reqs.size()), scratchDir, m);
    probeYield(pool, seed, m);
    probeIss(pool, seed, m);
    probeClassify(pool, seed, m);
    probeMetrics(m);
    if (workload != "tiled_synth")
        probeHier(pool, m);
    return m;
}

} // namespace perfbench
