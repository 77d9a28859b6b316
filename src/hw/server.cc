#include "hw/server.hh"

#include <charconv>

#include "base/logging.hh"

namespace mobius
{

Server
makeCommodityServer(const std::vector<int> &groups, const GpuSpec &spec)
{
    Server s;
    s.topo = Topology("dram");
    s.dramBytes = 1536 * GiB; // §4 setup: 1.5 TB DRAM

    std::string topo_name;
    int gpu = 0;
    int rc_index = 0;
    for (int count : groups) {
        if (count <= 0)
            fatal("commodity server: group with %d GPUs", count);
        if (!topo_name.empty())
            topo_name += "+";
        topo_name += std::to_string(count);

        int rc = s.topo.addRootComplex(strfmt("rc%d", rc_index),
                                       kPcie3x16Bw);
        int sw = s.topo.addSwitch(rc, strfmt("sw%d", rc_index),
                                  kPcie3x16Bw);
        for (int i = 0; i < count; ++i) {
            s.topo.addGpu(sw, strfmt("gpu%d", gpu), kPcie3x16Bw, spec);
            ++gpu;
        }
        ++rc_index;
    }
    s.topo.setGpudirectP2p(spec.gpudirectP2p);
    // Cloud rental pricing for commodity GPUs (the paper's Fig. 15b
    // uses GPU-cloud rates, its reference [8]): ~$1.55 per 3090-Ti
    // per hour.
    s.dollarsPerHour = 1.55 * gpu;
    s.name = strfmt("%dx %s (Topo %s)", gpu, spec.name.c_str(),
                    topo_name.c_str());
    return s;
}

std::vector<int>
parseTopoGroups(const std::string &topo)
{
    std::vector<int> groups;
    std::size_t pos = 0;
    for (;;) {
        std::size_t end = topo.find('+', pos);
        if (end == std::string::npos)
            end = topo.size();
        const char *last = topo.data() + end;
        int count = 0;
        auto [ptr, ec] =
            std::from_chars(topo.data() + pos, last, count);
        if (ec != std::errc() || ptr != last || count <= 0)
            fatal("cannot parse GPU topology '%s'", topo.c_str());
        groups.push_back(count);
        if (end == topo.size())
            return groups;
        pos = end + 1;
    }
}

Server
makeDataCenterServer(int num_gpus)
{
    Server s;
    s.topo = Topology("dram");
    s.dramBytes = 244 * GiB;      // p3.8xlarge DRAM
    s.dollarsPerHour = 12.24;     // EC2 p3.8xlarge on-demand

    // Host attachment: two root complexes, half the GPUs each, PCIe
    // 3.0 x16 per GPU (used for DRAM offload traffic).
    int made = 0;
    for (int rc_i = 0; rc_i < 2 && made < num_gpus; ++rc_i) {
        int rc = s.topo.addRootComplex(strfmt("rc%d", rc_i),
                                       kPcie3x16Bw);
        int sw = s.topo.addSwitch(rc, strfmt("sw%d", rc_i),
                                  kPcie3x16Bw);
        int in_group = (num_gpus + 1) / 2;
        for (int i = 0; i < in_group && made < num_gpus; ++i) {
            s.topo.addGpu(sw, strfmt("gpu%d", made), kPcie3x16Bw,
                          v100());
            ++made;
        }
    }

    // NVLink full mesh between all GPUs.
    for (int a = 0; a < num_gpus; ++a) {
        for (int b = a + 1; b < num_gpus; ++b)
            s.topo.addPeerLink(a, b, kNvlinkPairBw);
    }
    s.topo.setGpudirectP2p(true);
    s.name = strfmt("%dx V100 (NVLink)", num_gpus);
    return s;
}

} // namespace mobius
