/**
 * @file
 * The one command-line flag table behind every front end
 * (gpsched_cli, ddg_fuzz, ddg_import and the bench drivers).
 *
 * A front end declares each flag once: a name, a value kind (switch,
 * bounded count, u64, string, comma list, named choice), a
 * destination and a help line. The table owns the parse loop, the
 * generated usage text and the error rule: any usage error prints
 * one line naming the flag and the rejected text, then the usage
 * text, to stderr and exits 2. `--help` prints the usage text to
 * stdout and exits 0.
 */

#ifndef GPSCHED_SUPPORT_FLAGS_HH
#define GPSCHED_SUPPORT_FLAGS_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace gpsched
{

/** Upper bound of every --jobs flag: each job is an OS thread. */
constexpr int kMaxJobs = 1024;

/** Decimal digits only, within [@p min, @p max]; else nullopt. */
std::optional<int> parseCountText(const std::string &text, int min,
                                  int max);

/** Decimal or 0x-hex digits only (no sign, no blanks); else nullopt. */
std::optional<std::uint64_t> parseU64Text(const std::string &text);

/** The outcome of FlagTable::tryParse. */
struct FlagParse
{
    bool help = false;                 ///< --help was given
    std::string error;                 ///< empty on success
    std::vector<std::string> operands; ///< the non-flag arguments
};

/** A front end's declared flags; see the file comment. */
class FlagTable
{
  public:
    /** @p operands is the operand synopsis (e.g. "<ddg-file>...");
     *  empty makes any operand a usage error. */
    explicit FlagTable(std::string program, std::string operands = "");

    FlagTable &flag(const std::string &name, bool *dest,
                    const std::string &help);
    FlagTable &count(const std::string &name, int *dest, int min,
                     int max, const std::string &help);
    /** The shared --jobs entry: 0 = hardware concurrency. */
    FlagTable &jobs(int *dest);
    FlagTable &u64(const std::string &name, std::uint64_t *dest,
                   const std::string &help);
    FlagTable &text(const std::string &name, std::string *dest,
                    const std::string &metavar,
                    const std::string &help);
    /** Appends the non-empty entries; at least one is required. */
    FlagTable &list(const std::string &name,
                    std::vector<std::string> *dest,
                    const std::string &metavar,
                    const std::string &help);

    /** One of the names of @p choices; stores its value (@p Dest
     *  may be wider than T, e.g. an optional). */
    template <typename Dest, typename T>
    FlagTable &
    choice(const std::string &name, Dest *dest,
           const std::vector<std::pair<std::string, T>> &choices,
           const std::string &help)
    {
        std::string names, fallback;
        for (const auto &[choiceName, value] : choices) {
            names += (names.empty() ? "" : "|") + choiceName;
            if (*dest == value)
                fallback = choiceName;
        }
        return add(name, names, help, fallback, "needs one of " + names,
                   [dest, choices](const std::string &text) {
                       for (const auto &[choiceName, value] : choices) {
                           if (choiceName == text) {
                               *dest = value;
                               return true;
                           }
                       }
                       return false;
                   });
    }

    /** Parses @p args (no program name); never exits. */
    FlagParse tryParse(const std::vector<std::string> &args) const;

    /** Parses argv[1..argc) under the error rule; the operands. */
    std::vector<std::string> parse(int argc, char **argv) const;

    /** The error rule for a usage error the caller found. */
    [[noreturn]] void fail(const std::string &error) const;

    /** One line per declared flag, with its default if it has one. */
    std::string usage() const;

  private:
    /** One declared flag; a switch has an empty metavar. */
    struct Entry
    {
        std::string name, metavar, help, fallback, expects;
        std::function<bool(const std::string &)> set;
    };

    FlagTable &add(const std::string &name, const std::string &metavar,
                   const std::string &help, const std::string &fallback,
                   const std::string &expects,
                   std::function<bool(const std::string &)> set);

    std::string program_;
    std::string operands_;
    std::vector<Entry> entries_;
};

} // namespace gpsched

#endif // GPSCHED_SUPPORT_FLAGS_HH
