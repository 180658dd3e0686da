#include "sched/transforms.hh"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <set>
#include <vector>

#include "support/logging.hh"

namespace gpsched
{

bool
TransformEngine::trySpill(PartialSchedule &ps, int cluster)
{
    const LatencyTable &lat = ps.machine_.latencies();
    const int lat_st = lat.latency(Opcode::SpillSt);
    const int occ_st = lat.occupancy(Opcode::SpillSt);
    const int lat_ld = lat.latency(Opcode::SpillLd);
    const int occ_ld = lat.occupancy(Opcode::SpillLd);
    ModuloReservationTable &mem = ps.fu(cluster, FuClass::Mem);

    struct Candidate
    {
        NodeId p = invalidNode;
        int st = 0;
        int ld = 0;
        int saving = 0;
    };
    Candidate best;
    for (NodeId p = 0; p < ps.ddg_.numNodes(); ++p) {
        const auto &pl = ps.placed_[p];
        if (!pl.scheduled || pl.cluster != cluster)
            continue;
        if (!definesValue(ps.ddg_.node(p).opcode))
            continue;
        const auto &vs = ps.values_[p];
        if (vs.spilled)
            continue;
        auto ev_it = vs.events.find(cluster);
        if (ev_it == vs.events.end() || ev_it->second.empty())
            continue;
        // Idle gaps between consecutive points of the lifetime: the
        // write, then every read in time order.
        int g1 = ps.writeCycleOf(p);
        for (int next : ev_it->second) {
            const int g0 = g1;
            g1 = next;
            if (g1 - g0 <= lat_st + lat_ld)
                continue;
            int st = mem.firstFit(g0, g1 - lat_ld - lat_st, occ_st);
            if (st == INT_MIN)
                continue;
            // The load slot is probed with the store's slot taken.
            mem.reserve(st, occ_st);
            int ld = mem.firstFit(g1 - lat_ld, st + lat_st, occ_ld);
            mem.release(st, occ_st);
            if (ld == INT_MIN)
                continue;
            int saving = ld + lat_ld - st - 1;
            if (saving > best.saving)
                best = {p, st, ld, saving};
        }
    }
    if (best.p == invalidNode)
        return false;

    FigureOfMerit before = ps.globalFom();
    auto &vs = ps.values_[best.p];
    const LiveSegments old_segs = ps.registeredSegments(best.p, cluster);
    const int old_st = vs.spillSt;
    const int old_ld = vs.spillLd;

    vs.spilled = true;
    vs.spillSt = best.st;
    vs.spillLd = best.ld;
    mem.reserve(best.st, occ_st);
    mem.reserve(best.ld, occ_ld);
    ps.overheadMemOps_[cluster] += occ_st + occ_ld;
    ps.overheadMemTotal_ += occ_st + occ_ld;
    ++ps.numSpills_;
    ps.setRegistered(best.p, cluster,
                     ps.currentSegments(best.p, cluster));

    if (FigureOfMerit::better(ps.globalFom(), before, 0.0)) {
        ++ps.version_;
        return true;
    }

    ps.setRegistered(best.p, cluster, old_segs);
    mem.release(best.st, occ_st);
    mem.release(best.ld, occ_ld);
    ps.overheadMemOps_[cluster] -= occ_st + occ_ld;
    ps.overheadMemTotal_ -= occ_st + occ_ld;
    --ps.numSpills_;
    vs.spilled = false;
    vs.spillSt = old_st;
    vs.spillLd = old_ld;
    return false;
}

bool
TransformEngine::tryUnspill(PartialSchedule &ps, int cluster)
{
    const LatencyTable &lat = ps.machine_.latencies();
    const int occ_st = lat.occupancy(Opcode::SpillSt);
    const int occ_ld = lat.occupancy(Opcode::SpillLd);
    ModuloReservationTable &mem = ps.fu(cluster, FuClass::Mem);

    for (NodeId p = 0; p < ps.ddg_.numNodes(); ++p) {
        const auto &pl = ps.placed_[p];
        if (!pl.scheduled || pl.cluster != cluster)
            continue;
        auto &vs = ps.values_[p];
        if (!vs.spilled)
            continue;
        static const std::multiset<int> no_events;
        auto ev_it = vs.events.find(cluster);
        const std::multiset<int> &events =
            ev_it == vs.events.end() ? no_events : ev_it->second;
        const LiveSegments merged = ps.segmentsFromState(
            ps.writeCycleOf(p), events, true, 0, false, 0, 0);
        const LiveSegments old_segs = ps.registeredSegments(p, cluster);
        if (!ps.regs_[cluster].fitsWithDiff(old_segs, merged))
            continue;

        FigureOfMerit before = ps.globalFom();
        int st = vs.spillSt, ld = vs.spillLd;
        mem.release(st, occ_st);
        mem.release(ld, occ_ld);
        ps.overheadMemOps_[cluster] -= occ_st + occ_ld;
        ps.overheadMemTotal_ -= occ_st + occ_ld;
        --ps.numSpills_;
        vs.spilled = false;
        ps.setRegistered(p, cluster, merged);

        if (FigureOfMerit::better(ps.globalFom(), before, 0.0)) {
            ++ps.version_;
            return true;
        }

        ps.setRegistered(p, cluster, old_segs);
        vs.spilled = true;
        vs.spillSt = st;
        vs.spillLd = ld;
        mem.reserve(st, occ_st);
        mem.reserve(ld, occ_ld);
        ps.overheadMemOps_[cluster] += occ_st + occ_ld;
        ps.overheadMemTotal_ += occ_st + occ_ld;
        ++ps.numSpills_;
    }
    return false;
}

bool
TransformEngine::replaceTransfer(PartialSchedule &ps, NodeId p,
                                 Transfer &t, const Transfer &repl,
                                 const std::multiset<int> &dest_events)
{
    auto &vs = ps.values_[p];
    const int home = ps.placed_[p].cluster;
    const int dest = t.destCluster;
    GPSCHED_ASSERT(home != dest, "transfer with home == dest");
    const int write = ps.writeCycleOf(p);

    // Register feasibility with the moved read and arrival.
    auto hev_it = vs.events.find(home);
    GPSCHED_ASSERT(hev_it != vs.events.end(),
                   "transfer read missing from home events");
    std::multiset<int> &home_events = hev_it->second;
    const LiveSegments home_after = ps.segmentsFromState(
        write, true,
        PartialSchedule::lastEventAfterMove(home_events, t.readCycle,
                                            repl.readCycle),
        true, 0, vs.spilled, vs.spillSt, vs.spillLd);
    const LiveSegments dest_after = ps.segmentsFromState(
        write, dest_events, false, repl.arrivalCycle, false, 0, 0);
    const LiveSegments home_before = ps.registeredSegments(p, home);
    const LiveSegments dest_before = ps.registeredSegments(p, dest);
    if (!ps.regs_[home].fitsWithDiff(home_before, home_after))
        return false;
    if (!ps.regs_[dest].fitsWithDiff(dest_before, dest_after))
        return false;

    FigureOfMerit before = ps.globalFom();
    const Transfer old = t;
    ps.releaseTransfer(old);
    t = repl;
    ps.reserveTransfer(repl);
    home_events.erase(home_events.find(old.readCycle));
    home_events.insert(repl.readCycle);
    ps.setRegistered(p, home, home_after);
    ps.setRegistered(p, dest, dest_after);

    if (FigureOfMerit::better(ps.globalFom(), before, 0.0)) {
        ++ps.version_;
        return true;
    }

    ps.setRegistered(p, home, home_before);
    ps.setRegistered(p, dest, dest_before);
    home_events.erase(home_events.find(repl.readCycle));
    home_events.insert(old.readCycle);
    ps.releaseTransfer(repl);
    t = old;
    ps.reserveTransfer(old);
    return false;
}

bool
TransformEngine::tryBusToMem(PartialSchedule &ps)
{
    const LatencyTable &lat = ps.machine_.latencies();
    const int lat_st = lat.latency(Opcode::CommSt);
    const int occ_st = lat.occupancy(Opcode::CommSt);
    const int lat_ld = lat.latency(Opcode::CommLd);
    const int occ_ld = lat.occupancy(Opcode::CommLd);

    for (NodeId p = 0; p < ps.ddg_.numNodes(); ++p) {
        if (!ps.placed_[p].scheduled)
            continue;
        auto &vs = ps.values_[p];
        const int home = ps.placed_[p].cluster;
        const ModuloReservationTable &home_mem = ps.fu(home, FuClass::Mem);
        for (auto &[dest, t] : vs.transfers) {
            if (!t.viaBus)
                continue;
            auto dev_it = vs.events.find(dest);
            if (dev_it == vs.events.end() || dev_it->second.empty())
                continue;
            const int min_use = *dev_it->second.begin();
            const ModuloReservationTable &dest_mem =
                ps.fu(dest, FuClass::Mem);

            int st = INT_MIN, ld = INT_MIN;
            const PartialSchedule::ReadRanges ranges =
                ps.validReadRanges(vs.spilled, vs.spillSt, vs.spillLd,
                                   ps.writeCycleOf(p),
                                   min_use - lat_ld - lat_st);
            for (int i = 0; i < ranges.n && st == INT_MIN; ++i) {
                const auto [lo, hi] = ranges.r[i];
                int cand_st = lo;
                while (cand_st <= hi) {
                    cand_st = home_mem.firstFit(cand_st, hi, occ_st);
                    if (cand_st == INT_MIN)
                        break;
                    int cand_ld = dest_mem.firstFit(
                        min_use - lat_ld, cand_st + lat_st, occ_ld);
                    if (cand_ld != INT_MIN) {
                        st = cand_st;
                        ld = cand_ld;
                        break;
                    }
                    ++cand_st;
                }
            }
            if (st == INT_MIN)
                continue;

            const Transfer repl{p,  dest, false, 0, 0, st,
                                ld, st,   ld + lat_ld};
            if (replaceTransfer(ps, p, t, repl, dev_it->second))
                return true;
        }
    }
    return false;
}

bool
TransformEngine::tryMemToBus(PartialSchedule &ps)
{
    if (ps.machine_.numBuses() == 0)
        return false;

    for (NodeId p = 0; p < ps.ddg_.numNodes(); ++p) {
        if (!ps.placed_[p].scheduled)
            continue;
        auto &vs = ps.values_[p];
        for (auto &[dest, t] : vs.transfers) {
            if (t.viaBus)
                continue;
            auto dev_it = vs.events.find(dest);
            if (dev_it == vs.events.end() || dev_it->second.empty())
                continue;
            const int min_use = *dev_it->second.begin();

            // Fastest class first (classes sort by ascending latency).
            int bus_class = -1;
            int bus_cycle = INT_MIN;
            for (int bc = 0; bc < ps.machine_.numBusClasses() &&
                             bus_cycle == INT_MIN;
                 ++bc) {
                const int cls_lat = ps.machine_.busLatencyOf(bc);
                const PartialSchedule::ReadRanges ranges =
                    ps.validReadRanges(vs.spilled, vs.spillSt,
                                       vs.spillLd, ps.writeCycleOf(p),
                                       min_use - cls_lat);
                for (int i = 0; i < ranges.n; ++i) {
                    bus_cycle = ps.busMrts_[bc].firstFit(
                        ranges.r[i].first, ranges.r[i].second, cls_lat);
                    if (bus_cycle != INT_MIN) {
                        bus_class = bc;
                        break;
                    }
                }
            }
            if (bus_cycle == INT_MIN)
                continue;
            const int lat_bus = ps.machine_.busLatencyOf(bus_class);

            const Transfer repl{p, dest, true, bus_class, bus_cycle, 0, 0,
                                bus_cycle, bus_cycle + lat_bus};
            if (replaceTransfer(ps, p, t, repl, dev_it->second))
                return true;
        }
    }
    return false;
}

int
TransformEngine::run(PartialSchedule &ps)
{
    const int num_clusters = ps.machine_.numClusters();

    // Probe slots of PartialSchedule::probeFailedAt_: spill per
    // cluster, unspill per cluster, then bus->mem and mem->bus. A
    // probe that failed at the current version is skipped: it would
    // fail the same way again, since a failed probe restores all it
    // touched and only committed mutations move the version.
    const int bus_to_mem = 2 * num_clusters;
    const int mem_to_bus = bus_to_mem + 1;
    std::vector<std::uint64_t> &failed_at = ps.probeFailedAt_;
    if (failed_at.empty())
        failed_at.assign(mem_to_bus + 1, UINT64_MAX);
    auto exhausted = [&](int probe) {
        return failed_at[probe] == ps.version_;
    };
    const bool has_bus = ps.busTotalSlots() > 0;
    auto all_exhausted = [&]() {
        for (int probe = 0; probe < bus_to_mem; ++probe) {
            if (!exhausted(probe))
                return false;
        }
        return exhausted(mem_to_bus) && (!has_bus || exhausted(bus_to_mem));
    };

    struct Action
    {
        double saturation = 0.0;
        int kind = 0; // 0 spill, 1 bus->mem, 2 mem->bus, 3 unspill
        int cluster = 0;
        int probe = 0;
    };
    std::vector<Action> actions;
    int applied = 0;
    for (int round = 0; round < 32 && !all_exhausted(); ++round) {
        // Rank candidate transformations by the utilization of the
        // resource they relieve, most saturated first.
        actions.clear();
        actions.reserve(3 * num_clusters + 1);
        for (int c = 0; c < num_clusters; ++c) {
            double reg_sat = ps.regs_[c].numRegs() > 0
                                 ? 100.0 * ps.regs_[c].maxLive() /
                                       ps.regs_[c].numRegs()
                                 : 0.0;
            actions.push_back({reg_sat, 0, c, c});
        }
        if (has_bus) {
            double bus_sat = 100.0 * ps.busUsedSlots() /
                             ps.busTotalSlots();
            actions.push_back({bus_sat, 1, 0, bus_to_mem});
        }
        for (int c = 0; c < num_clusters; ++c) {
            const auto &mem = ps.fu(c, FuClass::Mem);
            double mem_sat =
                100.0 * mem.usedSlots() / mem.totalSlots();
            actions.push_back({mem_sat, 2, c, mem_to_bus});
            actions.push_back({mem_sat, 3, c, num_clusters + c});
        }
        // A cluster without memory units has a NaN saturation, which
        // breaks strict weak ordering; keeping std::stable_sort keeps
        // the order, and so the schedules, such machines get.
        std::stable_sort(actions.begin(), actions.end(),
                         [](const Action &a, const Action &b) {
                             return a.saturation > b.saturation;
                         });

        bool any = false;
        for (const Action &a : actions) {
            if (exhausted(a.probe))
                continue;
            bool ok = false;
            switch (a.kind) {
              case 0:
                ok = trySpill(ps, a.cluster);
                break;
              case 1:
                ok = tryBusToMem(ps);
                break;
              case 2:
                ok = tryMemToBus(ps);
                break;
              case 3:
                ok = tryUnspill(ps, a.cluster);
                break;
            }
            if (ok) {
                ++applied;
                any = true;
                break;
            }
            failed_at[a.probe] = ps.version_;
        }
        if (!any)
            break;
    }
    return applied;
}

// --- PartialSchedule forwarding ---------------------------------------

bool
PartialSchedule::trySpill(int cluster)
{
    return TransformEngine::trySpill(*this, cluster);
}

bool
PartialSchedule::tryUnspill(int cluster)
{
    return TransformEngine::tryUnspill(*this, cluster);
}

bool
PartialSchedule::tryBusToMem()
{
    return TransformEngine::tryBusToMem(*this);
}

bool
PartialSchedule::tryMemToBus()
{
    return TransformEngine::tryMemToBus(*this);
}

int
PartialSchedule::runTransformations()
{
    return TransformEngine::run(*this);
}

} // namespace gpsched
