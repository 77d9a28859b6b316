/**
 * @file
 * Communication statistics: traffic accounting by kind, per-transfer
 * bandwidth samples (for the CDF figures 2/7/11/16), and a per-GPU
 * usage tracker that measures communication time not overlapped by
 * computation (figure 8).
 */

#ifndef MOBIUS_XFER_STATS_HH
#define MOBIUS_XFER_STATS_HH

#include <array>
#include <string>
#include <vector>

#include "base/units.hh"
#include "simcore/event_queue.hh"

namespace mobius
{

/** What a transfer carries; used for traffic breakdowns. */
enum class TrafficKind
{
    Parameter,        //!< FP16 weights (stage upload / all-gather)
    Activation,       //!< activations between stages / offloaded
    ActivationGrad,   //!< activation gradients between stages
    Gradient,         //!< parameter gradients (flush / all-reduce)
    OptimizerState,   //!< optimizer state movement
    Other,
    NumKinds
};

/** @return short printable name of a traffic kind. */
const char *trafficKindName(TrafficKind kind);

/** One completed transfer, as observed by the stats collector. */
struct BandwidthSample
{
    Bytes bytes = 0;         //!< payload size
    double bandwidth = 0.0;  //!< achieved bytes/second (excl. setup)
    SimTime start = 0.0;     //!< submit time
    SimTime finish = 0.0;    //!< completion time
    int gpu = -1;            //!< GPU the transfer is attributed to
    TrafficKind kind = TrafficKind::Other; //!< traffic accounting
    /** True when the route used only GPU-GPU peer (NVLink) links. */
    bool peerOnly = false;
};

/** An empirical byte-weighted CDF over achieved bandwidths. */
class BandwidthCdf
{
  public:
    /** Build from samples; weight of a sample is its byte count. */
    explicit BandwidthCdf(const std::vector<BandwidthSample> &samples);

    /** @return fraction of bytes moved at bandwidth <= @p bw. */
    double fractionAtOrBelow(double bw) const;

    /** @return bandwidth at byte-weighted quantile @p q in [0,1]. */
    double quantile(double q) const;

    /** @return the maximum observed bandwidth. */
    double maxBandwidth() const;

    /** @return true when built from zero samples. */
    bool empty() const { return points_.empty(); }

    /** Sorted (bandwidth, cumulative fraction) points. */
    const std::vector<std::pair<double, double>> &
    points() const
    {
        return points_;
    }

  private:
    std::vector<std::pair<double, double>> points_;
};

/** Accumulates traffic volume and bandwidth samples during a run. */
class TrafficStats
{
  public:
    /** Account one completed transfer. */
    void record(const BandwidthSample &sample);

    /** Logical bytes moved, all kinds. */
    Bytes totalBytes() const;

    /** Logical bytes moved for one kind. */
    Bytes bytesOf(TrafficKind kind) const;

    /** All recorded samples, in completion order. */
    const std::vector<BandwidthSample> &
    samples() const
    {
        return samples_;
    }

    /** Reset all accumulated traffic. */
    void clear();

  private:
    std::array<Bytes, static_cast<std::size_t>(TrafficKind::NumKinds)>
        bytes_{};
    std::vector<BandwidthSample> samples_;
};

/**
 * Tracks, per GPU, the simulated time during which communication is in
 * flight while the compute engine is idle — the paper's
 * "non-overlapped communication time" (Fig. 8).
 *
 * The compute engine and the transfer engine notify this tracker on
 * every state change; it integrates the indicator
 * [comm active && !compute busy] over time.
 */
class UsageTracker
{
  public:
    /** Track @p num_gpus GPUs on @p queue's clock. */
    UsageTracker(EventQueue &queue, int num_gpus);

    void computeBegin(int gpu); //!< a kernel started on @p gpu
    void computeEnd(int gpu);   //!< a kernel finished on @p gpu
    void commBegin(int gpu);    //!< a transfer started on @p gpu
    void commEnd(int gpu);      //!< a transfer finished on @p gpu

    /** Seconds GPU @p gpu spent computing. */
    double computeTime(int gpu) const;

    /** Seconds of comm on GPU @p gpu not overlapped by compute. */
    double exposedCommTime(int gpu) const;

    /** Seconds of comm on GPU @p gpu overlapped by compute. */
    double overlappedCommTime(int gpu) const;

    /** @return number of tracked GPUs. */
    int numGpus() const { return static_cast<int>(state_.size()); }

    /** Reset all accumulated times. */
    void clear();

  private:
    struct GpuState
    {
        int computeDepth = 0;
        int commDepth = 0;
        SimTime lastChange = 0.0;
        double computeTime = 0.0;
        double exposedComm = 0.0;
        double overlappedComm = 0.0;
    };

    void advance(int gpu);

    EventQueue &queue_;
    std::vector<GpuState> state_;
};

} // namespace mobius

#endif // MOBIUS_XFER_STATS_HH
