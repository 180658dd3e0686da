/**
 * @file
 * The integrated modulo scheduler (paper Section 3.3; Codina et
 * al.'s URACAM framework).
 *
 * One engine serves every evaluated scheme; they differ only in the
 * cluster policy used when a node is placed:
 *
 *  - FreeChoice      every cluster is a candidate and the figure of
 *                    merit picks the winner. This is the URACAM
 *                    baseline (and the unified machine, trivially).
 *  - PreferAssigned  the GP scheme: the cluster chosen by the graph
 *                    partition is tried first and kept whenever
 *                    feasible; other clusters are considered only
 *                    when the assigned one fails (Figure 1, (b)).
 *  - AssignedOnly    the Fixed Partition variant: a node may only go
 *                    to its assigned cluster (Figure 1, (a)).
 *
 * Nodes are visited in SMS order. When a node fits in no allowed
 * cluster the Section-3.3.2 transformations are run to shift
 * pressure between resources and the node is retried once. Under
 * PreferAssigned a node that still fails then deviates to the other
 * clusters; deviating only after the transform-and-retry step means
 * the GP scheme follows the Fixed Partition trajectory exactly for
 * as long as that trajectory is viable, so at an equal II on the
 * same partition GP can never produce a worse schedule than Fixed.
 * If every allowed cluster fails the attempt is abandoned and the
 * driver increases the initiation interval.
 */

#ifndef GPSCHED_SCHED_URACAM_HH
#define GPSCHED_SCHED_URACAM_HH

#include <optional>

#include "graph/ddg.hh"
#include "graph/ddg_analysis.hh"
#include "graph/scc.hh"
#include "machine/machine.hh"
#include "partition/partition.hh"
#include "sched/schedule.hh"
#include "sched/sms_order.hh"

namespace gpsched
{

/** Cluster-selection policy of one scheduling attempt. */
enum class ClusterPolicy
{
    FreeChoice,     ///< URACAM: figure of merit picks the cluster
    PreferAssigned, ///< GP: partition first, deviate on failure
    AssignedOnly,   ///< Fixed Partition: never deviate
};

/** Tuning knobs of the modulo scheduler. */
struct ModuloSchedulerOptions
{
    /** Significant-difference threshold for figure-of-merit
     *  comparisons (percentage points). */
    double fomThreshold = 10.0;
};

/** Integrated modulo scheduler over a PartialSchedule. */
class ModuloScheduler
{
  public:
    /** References must outlive the scheduler. */
    ModuloScheduler(const Ddg &ddg, const MachineConfig &machine,
                    ModuloSchedulerOptions options = {});

    /**
     * Attempts a complete schedule into the fresh schedule @p ps
     * (constructed for the same DDG/machine and the candidate II).
     *
     * @param policy cluster-selection policy
     * @param assignment node-to-cluster map; required for
     *        PreferAssigned/AssignedOnly, ignored for FreeChoice
     * @return true when every node was placed
     */
    bool schedule(PartialSchedule &ps, ClusterPolicy policy,
                  const Partition *assignment) const;

  private:
    const Ddg &ddg_;
    const MachineConfig &machine_;
    ModuloSchedulerOptions options_;

    // The DDG is fixed for the scheduler's lifetime while the driver
    // probes many IIs, so the II-independent per-graph work (SCC
    // decomposition and the SMS node grouping with its per-recurrence
    // RecMII searches) is computed once on first use and reused by
    // every attempt. Lazily built in schedule(), hence mutable; one
    // scheduler is only ever driven from a single compile thread.
    mutable std::optional<SccDecomposition> sccs_;
    mutable std::optional<SmsNodeSets> smsSets_;

    /** Placement plans one schedule() attempt reuses for every node. */
    struct PlanScratch
    {
        PlacementPlan candidate;
        PlacementPlan best;
    };

    /**
     * Places one node; returns false when no allowed cluster accepts
     * it. @p deviate widens a PreferAssigned attempt from the
     * assigned cluster to every other cluster; it is ignored for the
     * other policies.
     */
    bool placeNode(PartialSchedule &ps, NodeId v, ClusterPolicy policy,
                   const Partition *assignment,
                   const DdgAnalysis &analysis, bool deviate,
                   PlanScratch &plans) const;
};

} // namespace gpsched

#endif // GPSCHED_SCHED_URACAM_HH
