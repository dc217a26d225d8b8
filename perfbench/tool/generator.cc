/**
 * @file
 * Seeded request streams of the benchmark workloads, reply digests,
 * and small output helpers.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json_min.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "ml/evolve.hh"
#include "perfbench.hh"
#include "service/protocol.hh"

namespace perfbench
{

using namespace printed;
using namespace printed::service;

namespace
{

/** hot_synth: Zipf working set, well under printedd's 256-entry
 *  default cache cap (two characterizations per key). The key count
 *  and exponent are assumptions: no record of real traffic exists. */
constexpr std::size_t kHotKeys = 64;
constexpr double kHotZipf = 1.1;
/** hot_synth: every 20th request connects, calls, and closes. */
constexpr std::uint64_t kChurnEvery = 20;

/** compute_mix: 256-trial yields of the paper's smallest core. */
constexpr unsigned kYieldTrials = 256;
constexpr unsigned kIssMachines = 64;

/** A seed value distinct per (stream seed, index), exact in JSON. */
std::uint64_t
requestSeed(std::uint64_t seed, std::uint64_t index)
{
    return mixSeed(seed, index) >> 12;
}

std::string
requestId(std::uint64_t index)
{
    return "q" + std::to_string(index);
}

GenRequest
synthReq(const std::string &id, const CoreConfig &c, bool fresh)
{
    return {ReqKind::Synth, fresh, id, synthRequest(id, c)};
}

GenRequest
yieldReq(const std::string &id, std::uint64_t seed, bool stream)
{
    if (stream)
        return {ReqKind::YieldStream, false, id,
                yieldStreamRequest(id, yieldConfig(), kYieldTrials,
                                   seed)};
    return {ReqKind::Yield, false, id,
            yieldRequest(id, yieldConfig(), kYieldTrials, seed)};
}

GenRequest
issReq(const std::string &id, std::uint64_t seed)
{
    IssSweepSpec spec;
    spec.machines = kIssMachines;
    spec.seed = seed;
    return {ReqKind::Iss, false, id, issSweepRequest(id, spec)};
}

GenRequest
classifyReq(const std::string &id, std::uint64_t seed)
{
    ml::ClassifySpec spec; // the default 6 x 12 tree search
    spec.search.seed = seed;
    return {ReqKind::ClassifyStream, false, id,
            classifyStreamRequest(id, spec)};
}

} // anonymous namespace

CoreConfig
yieldConfig()
{
    return CoreConfig::standard(1, 8, 2);
}

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
foldDigest(const std::vector<std::uint64_t> &hashes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t v : hashes) {
        unsigned char bytes[8];
        for (unsigned b = 0; b < 8; ++b)
            bytes[b] = static_cast<unsigned char>(v >> (8 * b));
        h = fnv1a(bytes, 8, h);
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::vector<CoreConfig>
keyUniverse()
{
    std::vector<CoreConfig> keys;
    for (const CoreConfig &base : [] {
             std::vector<CoreConfig> grid;
             for (unsigned stages : {1u, 2u, 3u})
                 for (unsigned width : {4u, 8u, 16u, 32u})
                     for (unsigned bars : {2u, 4u})
                         grid.push_back(
                             CoreConfig::standard(stages, width, bars));
             return grid;
         }())
        for (unsigned mask = 1; mask <= 0x3FF; ++mask) {
            // Opcodes 0..7 produce ALU results; a core with none of
            // them cannot be elaborated.
            if ((mask & 0xFF) == 0)
                continue;
            for (bool tristate : {true, false}) {
                CoreConfig c = base;
                c.opcodeMask = mask;
                c.tristateResultMux = tristate;
                keys.push_back(c);
            }
        }
    return keys;
}

Zipf::Zipf(std::size_t n, double s)
{
    cdf_.reserve(n);
    double sum = 0;
    for (std::size_t k = 1; k <= n; ++k) {
        sum += 1.0 / std::pow(double(k), s);
        cdf_.push_back(sum);
    }
    for (double &c : cdf_)
        c /= sum;
}

std::size_t
Zipf::draw(std::uint64_t u) const
{
    const double x = double(u >> 11) * 0x1.0p-53;
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), x);
    return std::min<std::size_t>(std::size_t(it - cdf_.begin()),
                                 cdf_.size() - 1);
}

bool
isServiceWorkload(const std::string &workload)
{
    return workload == "hot_synth" || workload == "cold_synth" ||
           workload == "compute_mix";
}

Generator::Generator(std::string workload, std::uint64_t seed)
    : workload_(std::move(workload)),
      seed_(seed),
      keys_(keyUniverse()),
      zipf_(kHotKeys, kHotZipf)
{
    fatalIf(!isServiceWorkload(workload_) && workload_ != "tiled_synth",
            "unknown workload '" + workload_ + "'");
    // Seeded Fisher-Yates: which keys are hot, and the order cold
    // keys are drawn in, both follow the seed.
    Rng rng(mixSeed(seed_, 0x6b657973));
    for (std::size_t i = keys_.size(); i > 1; --i)
        std::swap(keys_[i - 1], keys_[rng.below(i)]);
}

std::uint64_t
Generator::limit() const
{
    if (workload_ == "cold_synth")
        return keys_.size();
    return std::uint64_t(1) << 40;
}

GenRequest
Generator::at(std::uint64_t index) const
{
    const std::string id = requestId(index);
    Rng rng(mixSeed(seed_, index));
    if (workload_ == "hot_synth")
        return synthReq(id, keys_[zipf_.draw(rng.next())],
                        index % kChurnEvery == kChurnEvery - 1);
    if (workload_ == "cold_synth") {
        fatalIf(index >= keys_.size(),
                "cold_synth ran out of distinct keys");
        return synthReq(id, keys_[index], false);
    }
    if (workload_ == "compute_mix") {
        // Equal thirds of yield (half of them streamed), ISS sweep and
        // streamed classify: no traffic record gives real shares. Every
        // request has its own seed, so nothing coalesces and no result
        // cache hits.
        const std::uint64_t pick = rng.below(6);
        const std::uint64_t s = requestSeed(seed_, index);
        if (pick < 2)
            return yieldReq(id, s, pick == 0);
        if (pick < 4)
            return issReq(id, s);
        return classifyReq(id, s);
    }
    fatal("workload '" + workload_ + "' sends no requests");
}

std::vector<GenRequest>
Generator::warmup() const
{
    std::vector<GenRequest> out;
    if (workload_ == "hot_synth")
        for (std::size_t k = 0; k < kHotKeys; ++k)
            out.push_back(synthReq("w" + std::to_string(k), keys_[k],
                                   false));
    if (workload_ == "compute_mix")
        out.push_back(synthReq("w0", yieldConfig(), false));
    return out;
}

std::vector<GenRequest>
goldenRequests()
{
    std::vector<GenRequest> out;
    CoreConfig a = CoreConfig::standard(1, 8, 2);
    CoreConfig b = CoreConfig::standard(3, 32, 4);
    b.opcodeMask = 0x2F7;
    b.tristateResultMux = false;
    CoreConfig c = CoreConfig::standard(2, 16, 2);
    c.opcodeMask = 0x0FF;
    for (const CoreConfig &cfg : {a, b, c})
        out.push_back(synthReq("g" + std::to_string(out.size()), cfg,
                               false));
    out.push_back({ReqKind::Yield, false, "g3",
                   yieldRequest("g3", a, 64, 7)});
    out.push_back({ReqKind::YieldStream, false, "g4",
                   yieldStreamRequest("g4", a, 64, 8)});
    IssSweepSpec iss;
    iss.machines = 8;
    iss.seed = 3;
    out.push_back({ReqKind::Iss, false, "g5",
                   issSweepRequest("g5", iss)});
    ml::ClassifySpec spec;
    spec.search.generations = 2;
    spec.search.population = 4;
    out.push_back({ReqKind::ClassifyStream, false, "g6",
                   classifyStreamRequest("g6", spec)});
    return out;
}

std::vector<GenRequest>
computeProbe(std::uint64_t seed, unsigned perKind)
{
    std::vector<GenRequest> out;
    const std::uint64_t base = mixSeed(seed, 0x70726f6265);
    for (unsigned k = 0; k < perKind; ++k) {
        const std::uint64_t s = requestSeed(base, k);
        out.push_back(yieldReq("py" + std::to_string(k), s, false));
        out.push_back(classifyReq("pc" + std::to_string(k), s));
        out.push_back(issReq("pi" + std::to_string(k), s));
    }
    return out;
}

void
JsonOut::key(const std::string &k)
{
    if (!body_.empty())
        body_ += ", ";
    body_ += json::jsonQuote(k) + ": ";
}

JsonOut &
JsonOut::num(const std::string &k, double v)
{
    key(k);
    body_ += std::isfinite(v) ? formatDouble(v) : "null";
    return *this;
}

JsonOut &
JsonOut::str(const std::string &k, const std::string &v)
{
    key(k);
    body_ += json::jsonQuote(v);
    return *this;
}

JsonOut &
JsonOut::boolean(const std::string &k, bool v)
{
    key(k);
    body_ += v ? "true" : "false";
    return *this;
}

JsonOut &
JsonOut::raw(const std::string &k, const std::string &text)
{
    key(k);
    body_ += text;
    return *this;
}

std::string
jsonArray(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ", ";
        out += formatDouble(v[i]);
    }
    return out + "]";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench
