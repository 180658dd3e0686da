/**
 * @file
 * Schedule-parity pin: a seeded fuzz corpus compiled on two Table-1
 * machines under every scheme must reproduce, field for field, the
 * schedules recorded when the pin was set. Performance work on the
 * scheduler (probe caching, scratch reuse, allocation removal) must
 * never change a schedule; this digest is what proves it. Only a
 * change that is explicitly about schedule quality may re-record the
 * digests, and it must say so.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/gp_scheduler.hh"
#include "engine/loop_key.hh"
#include "machine/registry.hh"
#include "workload/fuzz.hh"

using namespace gpsched;

namespace
{

constexpr std::uint64_t kCorpusSeed = 1;
constexpr int kCorpusLoops = 150;

/** Byte stream of every deterministic CompiledLoop field. */
class LoopBytes
{
  public:
    void add(std::int64_t value)
    {
        char raw[sizeof value];
        std::memcpy(raw, &value, sizeof value);
        bytes_.append(raw, sizeof raw);
    }

    void addDouble(double value)
    {
        std::int64_t bits;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }

    /** Appends @p loop; schedSeconds (wall time) is left out. */
    void addLoop(const CompiledLoop &loop)
    {
        add(loop.moduloScheduled);
        add(loop.mii);
        add(loop.ii);
        add(loop.scheduleLength);
        add(loop.cycles);
        add(loop.ops);
        addDouble(loop.ipc);
        add(loop.stats.busTransfers);
        add(loop.stats.memTransfers);
        add(loop.stats.spills);
        add(loop.stats.overheadMemOps);
        add(loop.partitionRuns);
        add(loop.scheduleAttempts);
        add(static_cast<std::int64_t>(loop.placements.size()));
        for (const OpPlacement &p : loop.placements) {
            add(p.cluster);
            add(p.cycle);
        }
        add(static_cast<std::int64_t>(loop.transfers.size()));
        for (const Transfer &t : loop.transfers) {
            add(t.producer);
            add(t.destCluster);
            add(t.viaBus);
            add(t.busClass);
            add(t.busCycle);
            add(t.stCycle);
            add(t.ldCycle);
            add(t.readCycle);
            add(t.arrivalCycle);
        }
        add(static_cast<std::int64_t>(loop.spills.size()));
        for (const SpillRecord &s : loop.spills) {
            add(s.node);
            add(s.storeCycle);
            add(s.loadCycle);
        }
        add(static_cast<std::int64_t>(loop.partition.size()));
        for (int c : loop.partition)
            add(c);
    }

    std::uint64_t digest() const { return fnv1a64(bytes_); }

  private:
    std::string bytes_;
};

struct PinnedDigest
{
    const char *machine;
    SchedulerKind kind;
    std::uint64_t digest;
};

// Any change that is not explicitly about schedule quality must
// reproduce these digests.
const PinnedDigest kPinned[] = {
    {"4c-r32-b1", SchedulerKind::Uracam, 0xe614b08e267e61d0ULL},
    {"4c-r32-b1", SchedulerKind::FixedPartition, 0x56d79a63b338086dULL},
    {"4c-r32-b1", SchedulerKind::Gp, 0xf4221c7a38d85cf3ULL},
    {"4c-r64-b1", SchedulerKind::Uracam, 0x5ab506693b4da90cULL},
    {"4c-r64-b1", SchedulerKind::FixedPartition, 0x5c3f32ecdf69d3c8ULL},
    {"4c-r64-b1", SchedulerKind::Gp, 0x9e8274e39c572366ULL},
};

} // namespace

TEST(ScheduleParity, SeededCorpusDigestsArePinned)
{
    const MachineRegistry &registry = MachineRegistry::builtin();
    std::vector<Ddg> corpus;
    corpus.reserve(kCorpusLoops);
    for (int i = 0; i < kCorpusLoops; ++i) {
        corpus.push_back(
            fuzz::corpusCase(kCorpusSeed, i, LatencyTable{}).ddg);
    }

    for (const PinnedDigest &pin : kPinned) {
        MachineConfig machine = registry.get(pin.machine);
        LoopCompiler compiler(machine, pin.kind);
        LoopBytes bytes;
        int spills = 0, mem_transfers = 0, fallbacks = 0;
        for (const Ddg &ddg : corpus) {
            CompiledLoop loop = compiler.compile(ddg);
            spills += loop.stats.spills;
            mem_transfers += loop.stats.memTransfers;
            fallbacks += !loop.moduloScheduled;
            bytes.addLoop(loop);
        }
        // The pin only guards the transformation engine and the
        // fallback if the corpus reaches them.
        EXPECT_GT(spills + mem_transfers, 0)
            << pin.machine << " " << toString(pin.kind);
        EXPECT_GT(fallbacks, 0)
            << pin.machine << " " << toString(pin.kind);
        EXPECT_EQ(bytes.digest(), pin.digest)
            << pin.machine << " " << toString(pin.kind) << ": 0x"
            << std::hex << bytes.digest();
    }
}
