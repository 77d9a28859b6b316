#include "xfer/stats.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mobius
{

const char *
trafficKindName(TrafficKind kind)
{
    switch (kind) {
      case TrafficKind::Parameter:      return "parameter";
      case TrafficKind::Activation:     return "activation";
      case TrafficKind::ActivationGrad: return "activation-grad";
      case TrafficKind::Gradient:       return "gradient";
      case TrafficKind::OptimizerState: return "optimizer-state";
      case TrafficKind::Other:          return "other";
      default:                          return "?";
    }
}

BandwidthCdf::BandwidthCdf(const std::vector<BandwidthSample> &samples)
{
    std::vector<std::pair<double, double>> weighted;
    double total = 0.0;
    for (const auto &s : samples) {
        weighted.emplace_back(s.bandwidth,
                              static_cast<double>(s.bytes));
        total += static_cast<double>(s.bytes);
    }
    if (total <= 0.0)
        return;
    std::sort(weighted.begin(), weighted.end());
    double cum = 0.0;
    for (const auto &[bw, w] : weighted) {
        cum += w;
        if (!points_.empty() && points_.back().first == bw)
            points_.back().second = cum / total;
        else
            points_.emplace_back(bw, cum / total);
    }
}

double
BandwidthCdf::fractionAtOrBelow(double bw) const
{
    double frac = 0.0;
    for (const auto &[b, f] : points_) {
        if (b <= bw)
            frac = f;
        else
            break;
    }
    return frac;
}

double
BandwidthCdf::quantile(double q) const
{
    if (points_.empty())
        return 0.0;
    for (const auto &[b, f] : points_) {
        if (f >= q)
            return b;
    }
    return points_.back().first;
}

double
BandwidthCdf::maxBandwidth() const
{
    return points_.empty() ? 0.0 : points_.back().first;
}

void
TrafficStats::record(const BandwidthSample &sample)
{
    bytes_[static_cast<std::size_t>(sample.kind)] += sample.bytes;
    samples_.push_back(sample);
}

Bytes
TrafficStats::totalBytes() const
{
    Bytes total = 0;
    for (Bytes b : bytes_)
        total += b;
    return total;
}

Bytes
TrafficStats::bytesOf(TrafficKind kind) const
{
    return bytes_[static_cast<std::size_t>(kind)];
}

void
TrafficStats::clear()
{
    bytes_.fill(0);
    samples_.clear();
}

UsageTracker::UsageTracker(EventQueue &queue, int num_gpus)
    : queue_(queue), state_(static_cast<std::size_t>(num_gpus))
{
}

void
UsageTracker::advance(int gpu)
{
    auto &s = state_[gpu];
    double dt = queue_.now() - s.lastChange;
    if (dt > 0) {
        if (s.computeDepth > 0)
            s.computeTime += dt;
        if (s.commDepth > 0) {
            if (s.computeDepth > 0)
                s.overlappedComm += dt;
            else
                s.exposedComm += dt;
        }
    }
    s.lastChange = queue_.now();
}

void
UsageTracker::computeBegin(int gpu)
{
    advance(gpu);
    ++state_[gpu].computeDepth;
}

void
UsageTracker::computeEnd(int gpu)
{
    advance(gpu);
    if (--state_[gpu].computeDepth < 0)
        panic("computeEnd without computeBegin on GPU %d", gpu);
}

void
UsageTracker::commBegin(int gpu)
{
    if (gpu < 0)
        return; // transfers not attributed to any GPU
    advance(gpu);
    ++state_[gpu].commDepth;
}

void
UsageTracker::commEnd(int gpu)
{
    if (gpu < 0)
        return;
    advance(gpu);
    if (--state_[gpu].commDepth < 0)
        panic("commEnd without commBegin on GPU %d", gpu);
}

double
UsageTracker::computeTime(int gpu) const
{
    return state_[gpu].computeTime;
}

double
UsageTracker::exposedCommTime(int gpu) const
{
    return state_[gpu].exposedComm;
}

double
UsageTracker::overlappedCommTime(int gpu) const
{
    return state_[gpu].overlappedComm;
}

void
UsageTracker::clear()
{
    for (auto &s : state_) {
        s.computeDepth = 0;
        s.commDepth = 0;
        s.lastChange = queue_.now();
        s.computeTime = 0.0;
        s.exposedComm = 0.0;
        s.overlappedComm = 0.0;
    }
}

} // namespace mobius
