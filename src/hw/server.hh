/**
 * @file
 * Prebuilt server configurations matching the paper's evaluation (§4).
 *
 * Commodity server: 3090-Ti GPUs on PCIe 3.0, no P2P, DRAM 1.5 TB.
 * GPU topologies are described as root-complex groups: Topo 4 = {4},
 * Topo 2+2 = {2, 2}, Topo 1+3 = {1, 3}, the 8-GPU box = {4, 4}.
 *
 * Data-center server: EC2 p3.8xlarge lookalike, 4x V100 with NVLink
 * full mesh and GPUDirect P2P.
 */

#ifndef MOBIUS_HW_SERVER_HH
#define MOBIUS_HW_SERVER_HH

#include <string>
#include <vector>

#include "hw/topology.hh"

namespace mobius
{

/** A complete server: interconnect + DRAM + hourly price. */
struct Server
{
    std::string name;            //!< printable configuration name
    Topology topo;               //!< interconnect + GPUs
    Bytes dramBytes = 0;         //!< host DRAM capacity
    double dollarsPerHour = 0.0; //!< rental price (Table 2)
};

/**
 * Measured effective PCIe 3.0 x16 bandwidth. The paper measures a
 * 13.1 GB/s maximum on its 3090-Ti box (§4.2), below the 16 GB/s
 * theoretical rate.
 */
constexpr double kPcie3x16Bw = 13.1 * GB;

/** Effective per-pair NVLink bandwidth on the 4x V100 hybrid mesh. */
constexpr double kNvlinkPairBw = 75.0 * GB;

/**
 * Build a commodity GPU server.
 *
 * @param groups GPUs per CPU root complex, e.g. {2, 2} for Topo 2+2.
 * @param spec   GPU device type (default 3090-Ti).
 */
Server makeCommodityServer(const std::vector<int> &groups,
                           const GpuSpec &spec = rtx3090Ti());

/**
 * Parse "4", "2+2", "1+3", "4+4" into root-complex groups; fatal()
 * unless every '+'-separated group is a whole positive integer.
 */
std::vector<int> parseTopoGroups(const std::string &topo);

/** Build the data-center server of §4.8 (4x V100, NVLink, P2P). */
Server makeDataCenterServer(int num_gpus = 4);

} // namespace mobius

#endif // MOBIUS_HW_SERVER_HH
