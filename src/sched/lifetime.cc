#include "sched/lifetime.hh"

#include <algorithm>

#include "sched/mrt.hh"
#include "support/logging.hh"

namespace gpsched
{

LifetimeTracker::LifetimeTracker(int num_regs, int ii,
                                 CompileArena *arena)
    : numRegs_(num_regs), ii_(ii), live_(arena), scratch_(arena)
{
    GPSCHED_ASSERT(num_regs >= 0, "negative register count");
    GPSCHED_ASSERT(ii >= 1, "II must be >= 1");
    live_.assign(static_cast<std::size_t>(ii), 0);
}

void
LifetimeTracker::cover(const LiveSegment &seg, int *counts, int ii,
                       int delta)
{
    GPSCHED_ASSERT(seg.to >= seg.from, "bad segment [", seg.from, ",",
                   seg.to, "]");
    int len = seg.length();
    int full = len / ii;
    int rem = len % ii;
    if (full > 0) {
        for (int s = 0; s < ii; ++s)
            counts[s] += delta * full;
    }
    for (int i = 0; i < rem; ++i)
        counts[wrapSlot(seg.from + i, ii)] += delta;
}

void
LifetimeTracker::apply(const LiveSegment &seg, int delta)
{
    cover(seg, live_.data(), ii_, delta);
    used_ += delta * seg.length();
}

void
LifetimeTracker::add(const LiveSegment &seg)
{
    apply(seg, 1);
}

void
LifetimeTracker::remove(const LiveSegment &seg)
{
    apply(seg, -1);
    // A count can only have gone negative at a slot the removed
    // segment covered, so the check needs no full-kernel scan
    // unless the segment wrapped all the way around.
    if (seg.length() >= ii_) {
        for (int count : live_)
            GPSCHED_ASSERT(count >= 0,
                           "negative live count after remove");
    } else {
        for (int i = 0; i < seg.length(); ++i) {
            GPSCHED_ASSERT(live_[wrapSlot(seg.from + i, ii_)] >= 0,
                           "negative live count after remove");
        }
    }
}

bool
LifetimeTracker::fitsWithDiff(
    const std::vector<LiveSegment> &removed,
    const std::vector<LiveSegment> &added) const
{
    return fitsWithDiff(removed.data(), static_cast<int>(removed.size()),
                        added.data(), static_cast<int>(added.size()));
}

bool
LifetimeTracker::fitsWithDiff(const LiveSegments &removed,
                              const LiveSegments &added) const
{
    return fitsWithDiff(removed.begin(), removed.size(), added.begin(),
                        added.size());
}

bool
LifetimeTracker::fitsWithDiff(const LiveSegment *removed,
                              int num_removed, const LiveSegment *added,
                              int num_added) const
{
    scratch_.assign(live_.data(), live_.size());
    int *counts = scratch_.data();
    for (int i = 0; i < num_removed; ++i)
        cover(removed[i], counts, ii_, -1);
    for (int i = 0; i < num_added; ++i)
        cover(added[i], counts, ii_, 1);
    for (int s = 0; s < ii_; ++s) {
        GPSCHED_ASSERT(counts[s] >= 0, "diff removes unknown coverage");
        if (counts[s] > numRegs_)
            return false;
    }
    return true;
}

int
LifetimeTracker::maxLive() const
{
    return live_.empty() ? 0
                         : *std::max_element(live_.begin(), live_.end());
}

int
LifetimeTracker::liveAt(int cycle) const
{
    return live_[wrapSlot(cycle, ii_)];
}

} // namespace gpsched
