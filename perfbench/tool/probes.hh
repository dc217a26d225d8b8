/**
 * @file
 * The hierarchical-synthesis flow shared by the tiled_synth workload
 * and the hier layer probe of the other workloads.
 */

#ifndef PERFBENCH_TOOL_PROBES_HH
#define PERFBENCH_TOOL_PROBES_HH

#include <cstdint>
#include <vector>

#include "common/parallel.hh"
#include "core/tiled.hh"
#include "perfbench.hh"

namespace perfbench
{

/** Phase times and identity of one elaborate/optimize/flatten/
 *  characterize pass over a tiled design. */
struct HierTimes
{
    double elaborateMs = 0, optimizeMs = 0, flattenMs = 0,
           characterizeMs = 0, totalMs = 0;
    std::uint64_t gatesPre = 0, gatesPost = 0, flatGates = 0;
    std::uint64_t fingerprint = 0; ///< FNV-1a of the flat gate list
};

/** One full hierarchical flow on `pool`. */
HierTimes runTiledFlow(const printed::TiledConfig &cfg,
                       printed::ThreadPool &pool);

/** The small grid the non-tiled workloads probe netlist/hier with. */
printed::TiledConfig hierProbeConfig();

/** hier.* layer values from flows at `threads` and one serial flow. */
void recordHier(const std::vector<HierTimes> &runs,
                const HierTimes &serial, unsigned threads,
                LayerMap &m);

/** Three flows of hierProbeConfig() plus a serial one. */
void probeHier(printed::ThreadPool &pool, LayerMap &m);

/**
 * The service layer probes against an idle daemon (`o.port`, relay
 * `o.relayPort`): for workloads whose own traffic reaches no daemon.
 */
LayerMap serviceProbeStandalone(const LoadOptions &o);

/** Digest of the golden request set computed in this process. */
std::string goldenDigestInProcess();

} // namespace perfbench

#endif // PERFBENCH_TOOL_PROBES_HH
