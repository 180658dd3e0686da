/**
 * @file
 * Register-pressure tracking for one cluster's register file under
 * modulo execution.
 *
 * A value live over flat cycles [from, to] (inclusive) occupies one
 * register at every kernel slot congruent to a covered cycle; a
 * lifetime longer than II occupies several registers at once (the
 * kernel holds multiple overlapping iterations). The tracker keeps
 * exact per-slot live counts; feasibility is MaxLive <= registers,
 * the standard register model for modulo schedules.
 */

#ifndef GPSCHED_SCHED_LIFETIME_HH
#define GPSCHED_SCHED_LIFETIME_HH

#include <vector>

#include "support/arena.hh"
#include "support/logging.hh"

namespace gpsched
{

/** Half-open style is error-prone with wrapping; segments here are
 *  inclusive of both endpoints. */
struct LiveSegment
{
    int from = 0;
    int to = 0; ///< must satisfy to >= from

    /** Covered cycles. */
    int length() const { return to - from + 1; }
};

/**
 * The registered segments of one (value, cluster) pair. A value is
 * live over one segment, or two when a spill splits its home
 * lifetime, so a fixed two-slot value replaces a heap vector on the
 * placement probe path.
 */
class LiveSegments
{
  public:
    void
    push(const LiveSegment &seg)
    {
        GPSCHED_ASSERT(size_ < 2, "more than two live segments");
        segs_[size_++] = seg;
    }

    const LiveSegment *begin() const { return segs_; }
    const LiveSegment *end() const { return segs_ + size_; }
    bool empty() const { return size_ == 0; }
    int size() const { return size_; }

    /** Covered cycles summed over the segments. */
    int
    totalLength() const
    {
        int total = 0;
        for (const LiveSegment &seg : *this)
            total += seg.length();
        return total;
    }

  private:
    LiveSegment segs_[2];
    int size_ = 0;
};

/** Per-cluster register lifetime tracker. */
class LifetimeTracker
{
  public:
    /**
     * @param num_regs register-file size; @param ii kernel length;
     * @param arena optional per-compile backing store for the count
     *        tables (null = heap).
     */
    LifetimeTracker(int num_regs, int ii,
                    CompileArena *arena = nullptr);

    /** Adds a live segment. */
    void add(const LiveSegment &seg);

    /** Removes a previously added segment. */
    void remove(const LiveSegment &seg);

    /**
     * True when adding @p added and removing @p removed keeps
     * MaxLive within the register file. Pure query.
     */
    bool fitsWithDiff(const std::vector<LiveSegment> &removed,
                      const std::vector<LiveSegment> &added) const;
    bool fitsWithDiff(const LiveSegments &removed,
                      const LiveSegments &added) const;

    /** Current maximum live count over kernel slots. */
    int maxLive() const;

    /** Live count at kernel slot of @p cycle. */
    int liveAt(int cycle) const;

    /** Sum of live counts over the kernel (register-cycles). */
    int usedRegCycles() const { return used_; }

    /** Register-cycles available per kernel iteration. */
    int capacity() const { return numRegs_ * ii_; }

    /** Register file size. */
    int numRegs() const { return numRegs_; }

  private:
    int numRegs_;
    int ii_;
    int used_ = 0;
    ArenaVector<int> live_;

    /**
     * fitsWithDiff() working copy (mutable: the query is pure).
     * Reassigned, never shrunk, per call; single-threaded like the
     * schedule that owns the tracker.
     */
    mutable ArenaVector<int> scratch_;

    /** fitsWithDiff() over raw segment ranges. */
    bool fitsWithDiff(const LiveSegment *removed, int num_removed,
                      const LiveSegment *added, int num_added) const;

    /** Applies +delta to every slot covered by @p seg. */
    void apply(const LiveSegment &seg, int delta);

    /** Adds segment coverage of @p seg into @p counts. */
    static void cover(const LiveSegment &seg, int *counts, int ii,
                      int delta);
};

} // namespace gpsched

#endif // GPSCHED_SCHED_LIFETIME_HH
