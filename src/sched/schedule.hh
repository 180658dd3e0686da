/**
 * @file
 * Partial modulo schedule with integrated register allocation and
 * communication management (the URACAM substrate of paper Section
 * 3.3, shared by the URACAM baseline and the GP/Fixed schedulers).
 *
 * The schedule assigns operations to (cluster, flat cycle) pairs at
 * a fixed II. Flat cycles are times within one iteration's schedule
 * (they may be negative; kernel slots are flat cycles mod II). State
 * tracked per placement:
 *
 *  - functional-unit reservation tables per (cluster, FU class),
 *    sized from the per-cluster machine description,
 *  - the non-pipelined inter-cluster bus pools, one per bus class;
 *    which class a transfer rides is decided by the configured
 *    TransferCostPolicy (slack-aware by default: tight transfers
 *    probe fastest-first, slack-rich ones are steered to slower
 *    classes so the fast buses stay free for the critical path),
 *  - exact per-cluster register pressure (kernel MaxLive) via value
 *    lifetimes, including loop-carried consumption at use + II*dist,
 *  - one communication per (value, destination cluster): a bus copy
 *    or a store/load pair through memory (Section 3.3.2), chosen
 *    on demand when the bus is saturated,
 *  - spill splits of register lifetimes (store after def, load
 *    before the late uses).
 *
 * Placement is two-phase: planPlacement() is a pure feasibility
 * check that returns a PlacementPlan describing every reservation
 * and lifetime change the insertion would make; apply() commits a
 * plan atomically. The probe path keeps its working storage in
 * per-schedule scratch, so a warmed schedule rejects candidate
 * cycles without touching the heap. Figures of merit are computed
 * from plans without mutating anything, which is how URACAM compares
 * per-cluster alternatives cheaply. Only spill and communication ops
 * are ever unscheduled (by the transformation engine in
 * transforms.cc).
 */

#ifndef GPSCHED_SCHED_SCHEDULE_HH
#define GPSCHED_SCHED_SCHEDULE_HH

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/ddg.hh"
#include "machine/machine.hh"
#include "sched/fom.hh"
#include "sched/lifetime.hh"
#include "sched/mrt.hh"

namespace gpsched
{

/**
 * How planTransfer() picks a bus class for a value crossing
 * clusters on a machine with several classes. With a single bus
 * class (every Table-1 preset) the two policies are identical by
 * construction — there is only one class to pick — so homogeneous
 * fig2/fig3 output is bit-identical under either (pinned by
 * tests/test_transfer_policy.cc).
 */
enum class TransferCostPolicy
{
    /**
     * Legacy greedy rule: classes are probed fastest-first, so slow
     * buses only carry traffic once every faster class is saturated
     * in the transfer's window — even for transfers with cycles of
     * slack to spare.
     */
    FastestFirst,

    /**
     * Slack-aware cost model (the default): a transfer whose
     * ready-to-use window fits a slower class with at least
     * TransferPolicyOptions::slackMargin cycles to spare is steered
     * to the slowest such class first, preserving the fast classes
     * for transfers on or near the critical recurrence (whose tight
     * windows keep probing fastest-first). Feasibility never
     * regresses: when the preferred slow classes have no free slot
     * the probe falls through to the remaining classes
     * fastest-first, exactly like the legacy rule.
     */
    SlackAware,
};

/** Knobs of the bus-class transfer cost model. */
struct TransferPolicyOptions
{
    TransferCostPolicy costModel = TransferCostPolicy::SlackAware;

    /**
     * Free cycles a transfer's window must retain beyond a slower
     * class's latency before the SlackAware policy steers it there.
     * Larger margins keep more traffic on fast buses; 0 steers any
     * transfer that merely fits. Keyed into the engine's LoopKey.
     */
    int slackMargin = 2;

    bool operator==(const TransferPolicyOptions &other) const
    {
        return costModel == other.costModel &&
               slackMargin == other.slackMargin;
    }
};

/** One inter-cluster communication of a value. */
struct Transfer
{
    NodeId producer = invalidNode;
    int destCluster = -1;
    bool viaBus = true;
    int busClass = 0;      ///< viaBus: bus class carrying the value
    int busCycle = 0;      ///< viaBus: bus busy [busCycle, +lat-1]
    int stCycle = 0;       ///< !viaBus: CommSt issue in home cluster
    int ldCycle = 0;       ///< !viaBus: CommLd issue in dest cluster
    int readCycle = 0;     ///< when the home register is read
    int arrivalCycle = 0;  ///< when the value exists in dest

    bool operator==(const Transfer &other) const
    {
        return producer == other.producer &&
               destCluster == other.destCluster &&
               viaBus == other.viaBus && busClass == other.busClass &&
               busCycle == other.busCycle &&
               stCycle == other.stCycle &&
               ldCycle == other.ldCycle &&
               readCycle == other.readCycle &&
               arrivalCycle == other.arrivalCycle;
    }
};

/** Planned creation or replacement of a transfer. */
struct TransferPlan
{
    Transfer transfer;
    bool replaces = false; ///< an existing transfer for the same key
};

/** Planned lifetime change of one (value, cluster) pair. */
struct PairChange
{
    NodeId value = invalidNode;
    int cluster = -1;
    LiveSegments before; ///< currently registered
    LiveSegments after;  ///< segments once applied
};

/** Planned register-read event insertion. */
struct EventAdd
{
    NodeId value = invalidNode;
    int cluster = -1;
    int time = 0;
};

/** Planned register-read event time change (transfer re-placement). */
struct EventMove
{
    NodeId value = invalidNode;
    int cluster = -1;
    int oldTime = 0;
    int newTime = 0;
};

/** Atomic description of one op insertion. */
struct PlacementPlan
{
    bool feasible = false;
    NodeId node = invalidNode;
    int cluster = -1;
    int cycle = 0;
    std::vector<TransferPlan> transfers;
    std::vector<EventAdd> eventAdds;
    std::vector<EventMove> eventMoves;
    std::vector<PairChange> pairChanges;

    // Figure-of-merit ingredients (net deltas).
    int busSlotsDelta = 0;
    std::vector<int> memSlotsDelta;  ///< per cluster (incl. op itself)
    std::vector<int> overheadMemDelta; ///< per cluster (comm ops only)
    std::vector<int> regCyclesDelta; ///< per cluster
};

/** Aggregate overhead statistics of a schedule. */
struct ScheduleStats
{
    int busTransfers = 0;
    int memTransfers = 0;
    int spills = 0;
    int overheadMemOps = 0;

    bool operator==(const ScheduleStats &other) const
    {
        return busTransfers == other.busTransfers &&
               memTransfers == other.memTransfers &&
               spills == other.spills &&
               overheadMemOps == other.overheadMemOps;
    }
};

/** Spill placement of one value (for introspection/code emission). */
struct SpillInfo
{
    bool spilled = false;
    int storeCycle = 0;
    int loadCycle = 0;
};

/** Partial (growing) modulo schedule at a fixed II. */
class PartialSchedule
{
  public:
    /**
     * @param ddg loop being scheduled (must outlive the schedule)
     * @param machine target (must outlive the schedule)
     * @param ii initiation interval
     * @param planned_mem_per_cluster expected original memory ops
     *        per cluster (from the graph partition; Section 3.3.4
     *        extension). Empty for URACAM/unified scheduling, which
     *        uses the global remaining-memory component instead.
     * @param fom_threshold significant-difference threshold for
     *        figure-of-merit comparisons (percentage points)
     * @param transfer bus-class transfer cost model (defaults to the
     *        slack-aware policy; irrelevant on single-bus-class
     *        machines, where both policies coincide)
     * @param arena optional per-compile arena backing the reservation
     *        tables and lifetime trackers; must outlive the schedule
     *        and must not be reset while it is alive (null = heap)
     */
    PartialSchedule(const Ddg &ddg, const MachineConfig &machine,
                    int ii,
                    std::vector<int> planned_mem_per_cluster = {},
                    double fom_threshold = 10.0,
                    TransferPolicyOptions transfer = {},
                    CompileArena *arena = nullptr);

    /** Initiation interval. */
    int ii() const { return ii_; }

    /** True once @p v has been placed. */
    bool isScheduled(NodeId v) const;

    /** Flat issue cycle of @p v (must be scheduled). */
    int cycleOf(NodeId v) const;

    /** Cluster of @p v (must be scheduled). */
    int clusterOf(NodeId v) const;

    /** Number of placed program operations. */
    int numScheduled() const { return numScheduled_; }

    /**
     * Pure feasibility probe: can @p v issue at (@p cluster,
     * @p cycle)? Returns a plan with feasible=false when not.
     */
    PlacementPlan planPlacement(NodeId v, int cluster,
                                int cycle) const;

    /**
     * Scans cycles from @p from towards @p to (either direction,
     * inclusive) for the first feasible placement, planning every
     * candidate cycle into @p plan. The plan's vectors are cleared,
     * never shrunk, so a caller that reuses one plan scans without
     * allocating. Returns plan.feasible.
     */
    bool planInWindow(NodeId v, int cluster, int from, int to,
                      PlacementPlan &plan) const;

    /** planInWindow() into a fresh plan. */
    PlacementPlan planInWindow(NodeId v, int cluster, int from,
                               int to) const;

    /** Commits a feasible plan. State must be unchanged since plan. */
    void apply(const PlacementPlan &plan);

    /**
     * Mutation counter: apply() and every committed transformation
     * bump it, and nothing else changes the schedule (a rejected
     * transformation restores exactly what it touched). Equal
     * versions therefore mean equal state.
     */
    std::uint64_t version() const { return version_; }

    /**
     * Figure of merit of inserting @p plan (Section 3.3.1 plus the
     * remaining-memory extension): percentage of free resources the
     * insertion consumes, one component per critical resource.
     */
    FigureOfMerit insertionFom(const PlacementPlan &plan) const;

    /**
     * Global utilization figure (bus, per-cluster memory slots,
     * per-cluster MaxLive) used to steer transformations.
     */
    FigureOfMerit globalFom() const;

    /** Comparison threshold configured at construction. */
    double fomThreshold() const { return fomThreshold_; }

    // --- transformations (Section 3.3.2; defined in transforms.cc) ---

    /**
     * Splits the lifetime of the best spill candidate in @p cluster
     * across its widest idle gap (store after the early part, load
     * before the late part). Returns true when applied.
     */
    bool trySpill(int cluster);

    /** Removes one spill in @p cluster if registers allow. */
    bool tryUnspill(int cluster);

    /** Converts one bus transfer to a memory communication. */
    bool tryBusToMem();

    /** Converts one memory communication to a bus transfer. */
    bool tryMemToBus();

    /**
     * Applies transformations while they improve the global figure
     * of merit, starting with the most saturated resource
     * (Section 3.3.3). Returns the number applied. A probe that
     * failed at the current version() is not retried.
     */
    int runTransformations();

    // --- queries -------------------------------------------------------

    /**
     * Communications of @p producer's value, keyed by destination
     * cluster. Needed by code emission and by schedule validators.
     */
    const std::map<int, Transfer> &transfersOf(NodeId producer) const;

    /** Spill placement of @p producer's value. */
    SpillInfo spillOf(NodeId producer) const;

    /** Flat schedule length: max finish - min issue over all ops. */
    int scheduleLength() const;

    /** Kernel MaxLive of @p cluster. */
    int maxLive(int cluster) const;

    /** Overhead statistics. */
    ScheduleStats stats() const;

    /** Free slots summed over every bus-class pool. */
    int busFreeSlots() const;

    /** Busy slots summed over every bus-class pool. */
    int busUsedSlots() const;

    /** Total slots summed over every bus-class pool. */
    int busTotalSlots() const;

    /** Free memory slots of @p cluster. */
    int memFreeSlots(int cluster) const;

    /** Underlying machine. */
    const MachineConfig &machine() const { return machine_; }

    /** Underlying graph. */
    const Ddg &ddg() const { return ddg_; }

  private:
    friend class TransformEngine;

    struct PlacedOp
    {
        bool scheduled = false;
        int cluster = -1;
        int cycle = 0;
    };

    /** Logical register state of one value (producer node). */
    struct ValueState
    {
        /** Register-read events per cluster (home: local consumer
         *  reads and transfer reads; dest: consumer reads). */
        std::map<int, std::multiset<int>> events;

        /** Communications keyed by destination cluster. */
        std::map<int, Transfer> transfers;

        bool spilled = false;
        int spillSt = 0;
        int spillLd = 0;

        /** Segments currently registered with the trackers. */
        std::map<int, LiveSegments> registered;
    };

    /** At most two read windows: a spill splits one window in two. */
    struct ReadRanges
    {
        std::pair<int, int> r[2];
        int n = 0;
    };

    /** Per-(value, cluster) summary of a plan's register reads. */
    struct PairDelta
    {
        bool hasAdds = false;
        int lastAdd = 0;
        bool hasMove = false;
        int moveFrom = 0;
        int moveTo = 0;
        const TransferPlan *newTransfer = nullptr;
    };

    const Ddg &ddg_;
    const MachineConfig &machine_;
    int ii_;
    double fomThreshold_;
    TransferPolicyOptions transfer_;

    /**
     * planTransfer() scratch (mutable: the method is a const
     * feasibility probe). Cleared, never shrunk, on each call so the
     * steady state allocates nothing. Safe because a PartialSchedule
     * is only ever driven from one thread.
     */
    mutable std::vector<std::vector<std::pair<int, int>>>
        claimedBusScratch_;
    mutable std::vector<std::pair<int, int>> claimedHomeMemScratch_;
    mutable std::vector<std::pair<int, int>> claimedDestMemScratch_;

    /**
     * planInto() scratch, same contract as the planTransfer() scratch
     * above: cross-cluster producers as (producer, edge), consumers
     * as (dest cluster, use), reads of the placed value in its own
     * cluster, the touched (value, cluster) pairs, and one cluster's
     * removed/added segments for the register check.
     */
    mutable std::vector<std::pair<NodeId, EdgeId>> crossInScratch_;
    mutable std::vector<std::pair<int, int>> crossOutScratch_;
    mutable std::vector<int> ownEventsScratch_;
    mutable std::vector<std::pair<std::pair<NodeId, int>, PairDelta>>
        touchedScratch_;
    mutable std::vector<LiveSegment> removedScratch_;
    mutable std::vector<LiveSegment> addedScratch_;

    /** See version(). */
    std::uint64_t version_ = 0;

    /**
     * version() at which each TransformEngine::run() probe last
     * failed (UINT64_MAX = never), indexed as transforms.cc lays the
     * probes out. A failed probe restores every bit of state it
     * touched, so it would fail again until the version moves.
     */
    std::vector<std::uint64_t> probeFailedAt_;

    std::vector<PlacedOp> placed_;
    int numScheduled_ = 0;
    std::vector<ModuloReservationTable> fuMrt_; ///< cluster-major
    std::vector<ModuloReservationTable> busMrts_; ///< per bus class
    std::vector<LifetimeTracker> regs_;
    std::vector<ValueState> values_;

    std::vector<int> plannedMemOps_; ///< per cluster; empty = global
    int origMemOpsTotal_ = 0;
    std::vector<int> overheadMemOps_; ///< per cluster
    int overheadMemTotal_ = 0;
    int numBusTransfers_ = 0;
    int numMemTransfers_ = 0;
    int numSpills_ = 0;

    // --- helpers -------------------------------------------------------

    ModuloReservationTable &fu(int cluster, FuClass cls);
    const ModuloReservationTable &fu(int cluster, FuClass cls) const;

    int latencyOf(NodeId v) const;
    int occupancyOf(NodeId v) const;
    int writeCycleOf(NodeId v) const;

    /** Effective latency of edge e at this II. */
    int effLat(EdgeId e) const;

    /**
     * True when a register read of value @p p at @p time in the home
     * cluster is compatible with an existing spill split.
     */
    bool homeReadTimeValid(const ValueState &vs, int time) const;

    /**
     * Sub-windows of [@p lo, @p hi] in which a home-register read of
     * a value is valid given its spill split (the whole window when
     * not @p spilled).
     */
    ReadRanges validReadRanges(bool spilled, int spill_st,
                               int spill_ld, int lo, int hi) const;

    /**
     * Latest read event of @p events once one read moves from
     * @p from (which must be present) to @p to.
     */
    static int lastEventAfterMove(const std::multiset<int> &events,
                                  int from, int to);

    /**
     * Lifetime segments of (value, cluster) given explicit logical
     * state (pure; used for both current and hypothetical states).
     * Only the presence and the maximum of the read events matter,
     * so the primary overload takes exactly those; the multiset
     * overload is a convenience wrapper for callers that already
     * hold an event set.
     */
    LiveSegments segmentsFromState(int write_cycle, bool has_events,
                                   int last_event, bool home,
                                   int arrival, bool spilled,
                                   int spill_st, int spill_ld) const;
    LiveSegments segmentsFromState(int write_cycle,
                                   const std::multiset<int> &events,
                                   bool home, int arrival, bool spilled,
                                   int spill_st, int spill_ld) const;

    /** Current segments of (value, cluster) from logical state. */
    LiveSegments currentSegments(NodeId p, int cluster) const;

    /** Registered segments of (value, cluster); empty when none. */
    LiveSegments registeredSegments(NodeId p, int cluster) const;

    /** Re-registers (value, cluster) segments to match @p segs. */
    void setRegistered(NodeId p, int cluster, LiveSegments segs);

    /**
     * planPlacement() into @p plan, whose vectors are cleared but
     * keep their capacity.
     */
    void planInto(NodeId v, int cluster, int cycle,
                  PlacementPlan &plan) const;

    /**
     * Finds the first free slot for @p occupancy units in @p mrt
     * scanning @p from towards @p to, treating @p claimed as
     * additionally busy and @p ignore_cycle (occupancy
     * @p ignore_occ, -1 = none) as free. Returns INT_MIN when none.
     */
    static int findSlot(const ModuloReservationTable &mrt, int from,
                        int to, int occupancy,
                        const std::vector<std::pair<int, int>> &claimed,
                        int ignore_cycle, int ignore_occ);

    /**
     * Plans a transfer of @p producer's value to @p dest_cluster
     * with register read >= @p ready and arrival <= @p use, reusing
     * slot claims from @p plan (for intra-placement collisions).
     * Bus classes are probed in the order the TransferCostPolicy
     * dictates — ascending latency under FastestFirst; under
     * SlackAware, classes the ready->use window absorbs with
     * slackMargin cycles to spare come first (slowest first),
     * followed by the remaining classes fastest-first — and memory
     * communication is the fallback. Returns false when impossible.
     */
    bool planTransfer(NodeId producer, int dest_cluster, int ready,
                      int use, const PlacementPlan &plan,
                      TransferPlan &out) const;

    /** Releases the resources held by @p transfer. */
    void releaseTransfer(const Transfer &transfer);

    /** Reserves the resources needed by @p transfer. */
    void reserveTransfer(const Transfer &transfer);

    /** Finish cycle of an op or overhead op for scheduleLength(). */
    void accumulateExtent(int issue, int finish, int &lo,
                          int &hi) const;
};

} // namespace gpsched

#endif // GPSCHED_SCHED_SCHEDULE_HH
