/**
 * @file
 * PCIe/NVLink interconnect topology of a GPU server.
 *
 * The topology is a tree rooted at host DRAM: DRAM -> CPU root
 * complexes -> PCIe switches -> GPUs, optionally augmented with
 * GPU-to-GPU peer links (NVLink) on data-center servers. Every link is
 * full duplex; each direction of each link is an independent capacity
 * pool that concurrent flows share (this is where root-complex
 * contention, §2.2 of the paper, comes from).
 *
 * Transfers between two GPUs without GPUDirect P2P cannot use a single
 * path; the transfer engine stages them through DRAM (two flows), which
 * matches how commodity servers behave.
 */

#ifndef MOBIUS_HW_TOPOLOGY_HH
#define MOBIUS_HW_TOPOLOGY_HH

#include <string>
#include <vector>

#include "base/units.hh"
#include "hw/gpu_spec.hh"

namespace mobius
{

/** Kinds of node in the interconnect tree. */
enum class NodeKind { Dram, RootComplex, Switch, Gpu };

/** One vertex of the interconnect tree. */
struct Node
{
    int id = -1;         //!< node id within the topology
    NodeKind kind = NodeKind::Dram; //!< node role
    std::string name;    //!< printable name ("gpu0", "rc1", ...)
    int parent = -1;     //!< parent node id (-1 for DRAM)
    int upLink = -1;     //!< link id towards the parent (-1 for DRAM)
    int gpuIndex = -1;   //!< dense GPU index for Gpu nodes, else -1
};

/** One full-duplex link; each direction has capacity @a capacity B/s. */
struct Link
{
    int id = -1;         //!< link id within the topology
    int nodeA = -1;      //!< parent side (or first peer for NVLink)
    int nodeB = -1;      //!< child side (or second peer)
    double capacity = 0; //!< bytes/second per direction
    bool peer = false;   //!< true for GPU-GPU (NVLink) links
    std::string name;    //!< printable name ("rc0<->sw0", ...)
};

/**
 * One hop of a route: a link plus the direction it is traversed in.
 * poolId() names the capacity pool (a link direction) used for
 * max-min fair bandwidth sharing.
 */
struct Hop
{
    int link = -1;       //!< the link traversed
    bool forward = true; //!< true: nodeA -> nodeB direction

    /** Capacity-pool id of this (link, direction) pair. */
    int poolId() const { return link * 2 + (forward ? 0 : 1); }
};

/** A flow endpoint: host DRAM or a GPU (by dense index). */
struct Endpoint
{
    bool isDram = true;  //!< true when the endpoint is host DRAM
    int gpu = -1;        //!< dense GPU index when !isDram, else -1

    /** @return the host-DRAM endpoint. */
    static Endpoint dram() { return Endpoint{true, -1}; }

    /** @return the endpoint for GPU @p g. */
    static Endpoint gpuAt(int g) { return Endpoint{false, g}; }

    /** Structural equality. */
    bool
    operator==(const Endpoint &o) const
    {
        return isDram == o.isDram && gpu == o.gpu;
    }
};

/** The interconnect tree plus peer links. */
class Topology
{
  public:
    /** Create a topology with a single DRAM root named @p name. */
    explicit Topology(const std::string &name = "dram");

    /** Add a root complex attached to DRAM. */
    int addRootComplex(const std::string &name, double link_capacity);

    /** Add a PCIe switch below @p parent. */
    int addSwitch(int parent, const std::string &name,
                  double link_capacity);

    /**
     * Add a GPU below @p parent.
     * @return the dense GPU index of the new device.
     */
    int addGpu(int parent, const std::string &name,
               double link_capacity, const GpuSpec &spec);

    /** Add an NVLink-style GPU-GPU peer link. */
    int addPeerLink(int gpu_a, int gpu_b, double capacity);

    /** Enable direct GPU-to-GPU routing (GPUDirect P2P). */
    void setGpudirectP2p(bool enabled) { gpudirectP2p_ = enabled; }

    /** @return true when GPU-GPU flows bypass DRAM staging. */
    bool gpudirectP2p() const { return gpudirectP2p_; }

    int numGpus() const { return static_cast<int>(gpuNodes_.size()); }
    int numLinks() const { return static_cast<int>(links_.size()); }
    int numNodes() const { return static_cast<int>(nodes_.size()); }

    const Node &node(int id) const { return nodes_[id]; }
    const Link &link(int id) const { return links_[id]; }

    /**
     * Overwrite a link's per-direction capacity. This is the what-if
     * perturbation hook: counterfactual re-simulation builds a copy
     * of the server and rescales the links a virtual speedup names
     * (obs/whatif.hh). fatal() on an unknown link or capacity <= 0.
     */
    void setLinkCapacity(int link, double capacity);

    /** @return id of the link named @p name, or -1 when absent. */
    int findLinkByName(const std::string &name) const;

    /** @return the device spec of GPU @p gpu. */
    const GpuSpec &gpuSpec(int gpu) const { return *gpuSpecs_[gpu]; }

    /** @return node id of the root complex above GPU @p gpu. */
    int rootComplexOf(int gpu) const;

    /** @return dense indices of all GPUs under root complex @p rc. */
    std::vector<int> gpusUnderRootComplex(int rc) const;

    /** @return ids of all root-complex nodes. */
    std::vector<int> rootComplexes() const;

    /**
     * Number of GPUs sharing the root complex of @p gpu_a when
     * @p gpu_a and @p gpu_b live under the same root complex; zero
     * otherwise. This is shared(i, j) of Eq. 12.
     */
    int sharedRootComplexDegree(int gpu_a, int gpu_b) const;

    /**
     * Compute the hop list for a transfer from @p src to @p dst.
     *
     * Valid routes: DRAM<->GPU (tree walk), and GPU<->GPU when P2P is
     * enabled (peer link when present, else through the tree fabric).
     * GPU<->GPU without P2P must be staged by the caller; requesting
     * such a path is fatal().
     */
    std::vector<Hop> route(Endpoint src, Endpoint dst) const;

    /** @return true if a single-path route exists for src -> dst. */
    bool routable(Endpoint src, Endpoint dst) const;

  private:
    int addNode(NodeKind kind, const std::string &name, int parent,
                double link_capacity);

    /** Hops walking from node @p from up to the DRAM root. */
    std::vector<Hop> hopsToRoot(int from) const;

    std::vector<Node> nodes_;
    std::vector<Link> links_;
    std::vector<int> gpuNodes_;
    std::vector<const GpuSpec *> gpuSpecs_;
    /** peerLink_[a][b] = link id of the NVLink between a and b, or -1 */
    std::vector<std::vector<int>> peerLink_;
    bool gpudirectP2p_ = false;
};

} // namespace mobius

#endif // MOBIUS_HW_TOPOLOGY_HH
