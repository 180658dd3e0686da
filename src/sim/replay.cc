#include "sim/replay.hh"

#include <sstream>

#include "sched/validate.hh"
#include "support/logging.hh"

namespace gpsched::sim
{

const char *
toString(RecordVerdict verdict)
{
    switch (verdict) {
      case RecordVerdict::Pass:
        return "pass";
      case RecordVerdict::OracleDisagree:
        return "oracle-disagree";
      case RecordVerdict::ScheduleRejected:
        return "schedule-rejected";
      case RecordVerdict::MetricMismatch:
        return "metric-mismatch";
    }
    return "?";
}

RecordCheck
checkRecord(const Ddg &ddg, const MachineConfig &machine,
            const CompiledLoop &loop)
{
    RecordCheck check;
    check.sim = simulate(ddg, machine, loop);
    const SimResult &s = check.sim;
    auto fail = [&](RecordVerdict verdict, std::string detail) {
        check.verdict = verdict;
        check.detail = std::move(detail);
        return check;
    };
    const std::string fault = s.fault ? s.fault->toString() : "ok";

    if (loop.moduloScheduled) {
        ValidationResult v = validateSchedule(ddg, machine, loop);
        if (v.valid != s.simOk) {
            return fail(RecordVerdict::OracleDisagree,
                        "validator says '" +
                            (v.valid ? std::string("ok") : v.message) +
                            "', simulator says " + fault);
        }
        if (!v.valid) {
            return fail(RecordVerdict::ScheduleRejected,
                        "validator: " + v.message +
                            "; simulator: " + fault);
        }
    } else if (!s.simOk) {
        return fail(RecordVerdict::ScheduleRejected,
                    "simulator rejects list-scheduled record: " +
                        fault);
    }

    const bool iiOk = !loop.moduloScheduled || s.achievedII == loop.ii;
    if (iiOk && s.simCycles == loop.cycles && s.achievedIpc == loop.ipc)
        return check;
    std::ostringstream mm;
    const char *sep = "";
    if (!iiOk) {
        mm << "achievedII " << s.achievedII << " != ii " << loop.ii;
        sep = "; ";
    }
    if (s.simCycles != loop.cycles) {
        mm << sep << "simCycles " << s.simCycles << " != cycles "
           << loop.cycles;
        sep = "; ";
    }
    if (s.achievedIpc != loop.ipc)
        mm << sep << "achievedIpc " << s.achievedIpc << " != ipc "
           << loop.ipc;
    return fail(RecordVerdict::MetricMismatch, mm.str());
}

namespace
{

void
replayInto(ReplayReport &report, const Program &program,
           const ProgramResult &result, const MachineConfig &machine)
{
    GPSCHED_ASSERT(result.loopIndex.size() == result.loops.size(),
                   "ProgramResult without a loop index");
    for (std::size_t i = 0; i < result.loops.size(); ++i) {
        const CompiledLoop &loop = result.loops[i];
        RecordCheck check = checkRecord(
            program.loops.at(result.loopIndex[i]), machine, loop);
        ++report.loopsChecked;
        if (check.sim.replayed)
            ++report.loopsReplayed;
        if (!check.ok()) {
            report.mismatches.push_back(
                {program.name, loop.loopName,
                 std::string(toString(check.verdict)) + ": " +
                     check.detail});
        }
    }
}

} // namespace

std::string
ReplayReport::summary() const
{
    std::ostringstream oss;
    oss << "replayed " << loopsReplayed << "/" << loopsChecked
        << " loops, " << mismatches.size() << " mismatches";
    if (!mismatches.empty()) {
        const ReplayMismatch &m = mismatches.front();
        oss << " (first: " << m.program << "/" << m.loop << ": "
            << m.detail << ")";
    }
    return oss.str();
}

ReplayReport
replayProgram(const Program &program, const ProgramResult &result,
              const MachineConfig &machine)
{
    ReplayReport report;
    replayInto(report, program, result, machine);
    return report;
}

ReplayReport
replaySuite(const std::vector<Program> &suite,
            const SuiteResult &result, const MachineConfig &machine)
{
    GPSCHED_ASSERT(result.programs.size() == suite.size(),
                   "suite result does not match the suite");
    ReplayReport report;
    for (std::size_t i = 0; i < suite.size(); ++i)
        replayInto(report, suite[i], result.programs[i], machine);
    return report;
}

} // namespace gpsched::sim
