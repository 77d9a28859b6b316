/**
 * @file
 * Fault plans: the declarative description of everything that goes
 * wrong during a simulated step on a *commodity* server (DESIGN.md
 * §7). A FaultPlan is pure data — timed degradation windows,
 * stochastic flaps, transient-transfer-failure probability, GPU
 * crashes — plus the recovery-policy knobs (retry budget/backoff,
 * checkpoint interval/cost, restart cost). The FaultInjector
 * (fault_injector.hh) turns a plan plus a seed into deterministic
 * mid-run events.
 *
 * Plans come from `mobius_sim --faults SPEC`. The SPEC grammar is
 * ';'-separated events:
 *
 *   degrade:RES=F@START+DUR   capacity/speed factor F on resource
 *                             RES for [START, START+DUR) seconds
 *   flaky:RES=F~GAP+DUR       recurring degradation: windows of DUR
 *                             seconds at factor F, exponentially
 *                             spaced with mean gap GAP
 *   xfail=P                   each transfer attempt fails with
 *                             probability P (detected at completion)
 *   crash:gpuN@T              GPU N crashes at T seconds
 *   ckpt=INTERVAL+COST        lightweight checkpoint every INTERVAL
 *                             seconds, costing COST GPU-seconds each
 *   restart=SEC               fixed crash-restart cost
 *   retry=BUDGET+BACKOFF      at most BUDGET retries per transfer,
 *                             exponential backoff from BACKOFF secs
 *
 * RES uses the shared resource grammar (hw/resource.hh): rcN, gpuN,
 * cpu, transfer, link:NAME — validated against the server before the
 * simulation starts.
 */

#ifndef MOBIUS_FAULT_FAULT_PLAN_HH
#define MOBIUS_FAULT_FAULT_PLAN_HH

#include <string>
#include <vector>

#include "hw/resource.hh"
#include "hw/server.hh"

namespace mobius
{

/** One timed degradation: factor applies over [start, start+dur). */
struct FaultWindow
{
    ResourceRef target;
    double factor = 1.0;   //!< capacity/speed multiplier (> 0)
    double start = 0.0;    //!< window begin, simulated seconds
    double duration = 0.0; //!< window length, simulated seconds
};

/** Recurring stochastic degradation (PCIe jitter, thermal flaps). */
struct FaultFlap
{
    ResourceRef target;
    double factor = 1.0;   //!< multiplier while a flap is active
    double meanGap = 0.0;  //!< mean seconds between flap starts
    double duration = 0.0; //!< fixed seconds each flap lasts
};

/** A whole-GPU crash at a fixed time. */
struct GpuCrash
{
    int gpu = -1;
    double time = 0.0;
};

/** Everything that goes wrong, and how the runtime recovers. */
struct FaultPlan
{
    std::vector<FaultWindow> windows;
    std::vector<FaultFlap> flaps;
    std::vector<GpuCrash> crashes;

    /** Per-attempt transient transfer failure probability [0, 1). */
    double xfailProb = 0.0;

    /** Retry policy for transient transfer failures. */
    int retryBudget = 4;         //!< max retries per transfer
    double retryBackoff = 2e-4;  //!< base backoff seconds (doubles)

    /** Periodic lightweight checkpoint (0 interval = off). */
    double checkpointInterval = 0.0; //!< simulated seconds
    double checkpointCost = 0.0;     //!< GPU-seconds per checkpoint

    /** Fixed cost of restarting after a GPU crash. */
    double restartCost = 0.0;

    /** @return true when the plan injects nothing. */
    bool
    empty() const
    {
        return windows.empty() && flaps.empty() && crashes.empty() &&
            xfailProb <= 0.0 && checkpointInterval <= 0.0;
    }
};

/** Parse the ';'-separated event grammar (see file header); fatal()
 *  on malformed events or unknown resources. */
FaultPlan parseFaultSpec(const std::string &text,
                         const Server &server);

/** One-line human-readable summary for run banners. */
std::string faultPlanSummary(const FaultPlan &plan);

} // namespace mobius

#endif // MOBIUS_FAULT_FAULT_PLAN_HH
