#include "support/flags.hh"

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace gpsched
{

std::optional<std::uint64_t>
parseU64Text(const std::string &text)
{
    // Digits only: strtoull alone would take a sign (wrapping "-1" to
    // 2^64-1) and leading blanks.
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const std::string digits = hex ? text.substr(2) : text;
    if (digits.empty() ||
        digits.find_first_not_of(hex ? "0123456789abcdefABCDEF"
                                     : "0123456789") != std::string::npos)
        return std::nullopt;
    errno = 0;
    std::uint64_t value =
        std::strtoull(digits.c_str(), nullptr, hex ? 16 : 10);
    if (errno == ERANGE)
        return std::nullopt;
    return value;
}

std::optional<int>
parseCountText(const std::string &text, int min, int max)
{
    if (text.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    std::optional<std::uint64_t> value = parseU64Text(text);
    if (!value || *value < static_cast<std::uint64_t>(min) ||
        *value > static_cast<std::uint64_t>(max))
        return std::nullopt;
    return static_cast<int>(*value);
}

FlagTable::FlagTable(std::string program, std::string operands)
    : program_(std::move(program)), operands_(std::move(operands))
{
}

FlagTable &
FlagTable::add(const std::string &name, const std::string &metavar,
               const std::string &help, const std::string &fallback,
               const std::string &expects,
               std::function<bool(const std::string &)> set)
{
    entries_.push_back(
        {name, metavar, help, fallback, expects, std::move(set)});
    return *this;
}

FlagTable &
FlagTable::flag(const std::string &name, bool *dest,
                const std::string &help)
{
    return add(name, "", help, "", "", [dest](const std::string &) {
        *dest = true;
        return true;
    });
}

FlagTable &
FlagTable::count(const std::string &name, int *dest, int min, int max,
                 const std::string &help)
{
    return add(name, "N", help, std::to_string(*dest),
               "needs an integer in [" + std::to_string(min) + ", " +
                   std::to_string(max) + "]",
               [dest, min, max](const std::string &text) {
                   std::optional<int> n = parseCountText(text, min, max);
                   *dest = n.value_or(*dest);
                   return n.has_value();
               });
}

FlagTable &
FlagTable::jobs(int *dest)
{
    return count("--jobs", dest, 0, kMaxJobs,
                 "worker threads, 0 = hardware concurrency");
}

FlagTable &
FlagTable::u64(const std::string &name, std::uint64_t *dest,
               const std::string &help)
{
    return add(name, "N", help, std::to_string(*dest),
               "needs an unsigned integer (decimal or 0x-hex)",
               [dest](const std::string &text) {
                   std::optional<std::uint64_t> n = parseU64Text(text);
                   *dest = n.value_or(*dest);
                   return n.has_value();
               });
}

FlagTable &
FlagTable::text(const std::string &name, std::string *dest,
                const std::string &metavar, const std::string &help)
{
    return add(name, metavar, help, *dest, "",
               [dest](const std::string &text) {
                   *dest = text;
                   return true;
               });
}

FlagTable &
FlagTable::list(const std::string &name, std::vector<std::string> *dest,
                const std::string &metavar, const std::string &help)
{
    return add(name, metavar, help, "",
               "needs a comma-separated list with at least one entry",
               [dest](const std::string &text) {
                   std::istringstream in(text);
                   std::size_t before = dest->size();
                   for (std::string entry; std::getline(in, entry, ',');) {
                       if (!entry.empty())
                           dest->push_back(entry);
                   }
                   return dest->size() > before;
               });
}

FlagParse
FlagTable::tryParse(const std::vector<std::string> &args) const
{
    FlagParse result;
    for (std::size_t i = 0; i < args.size() && result.error.empty();
         ++i) {
        const std::string &arg = args[i];
        if (arg == "--help") {
            result.help = true;
            return result;
        }
        if (arg.size() < 2 || arg[0] != '-') {
            result.operands.push_back(arg);
            continue;
        }
        const Entry *entry = nullptr;
        for (const Entry &e : entries_)
            entry = e.name == arg ? &e : entry;
        if (!entry)
            result.error = "unknown option '" + arg + "'";
        else if (entry->metavar.empty())
            entry->set("");
        else if (i + 1 == args.size())
            result.error = arg + " needs a value";
        else if (!entry->set(args[++i]))
            result.error =
                arg + " " + entry->expects + ", got '" + args[i] + "'";
    }
    if (result.error.empty() && operands_.empty() &&
        !result.operands.empty())
        result.error =
            "unexpected argument '" + result.operands.front() + "'";
    return result;
}

std::vector<std::string>
FlagTable::parse(int argc, char **argv) const
{
    FlagParse result =
        tryParse(std::vector<std::string>(argv + 1, argv + argc));
    if (result.help) {
        std::cout << usage();
        std::exit(0);
    }
    if (!result.error.empty())
        fail(result.error);
    return result.operands;
}

void
FlagTable::fail(const std::string &error) const
{
    std::cerr << program_ << ": " << error << "\n" << usage();
    std::exit(2);
}

std::string
FlagTable::usage() const
{
    std::ostringstream os;
    os << "usage: " << program_ << " [options]"
       << (operands_.empty() ? "" : " " + operands_) << "\n";
    const std::size_t column = 24;
    for (const Entry &e : entries_) {
        std::string left = "  " + e.name;
        if (!e.metavar.empty())
            left += " " + e.metavar;
        os << left
           << (left.size() < column
                   ? std::string(column - left.size(), ' ')
                   : "\n" + std::string(column, ' '))
           << e.help
           << (e.fallback.empty() ? "" : " (default " + e.fallback + ")")
           << "\n";
    }
    return os.str();
}

} // namespace gpsched
