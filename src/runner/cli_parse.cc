#include "runner/cli_parse.hh"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>

namespace dmpb {
namespace cli {

namespace {

[[noreturn]] void
badValue(const std::string &flag, const std::string &value,
         const char *expected)
{
    throw std::invalid_argument(flag + " needs " + expected + ", got '" +
                                value + "'");
}

} // namespace

std::uint64_t
parseU64Flag(const std::string &flag, const std::string &value)
{
    std::uint64_t out = 0;
    const char *first = value.data();
    const char *last = first + value.size();
    auto [ptr, ec] = std::from_chars(first, last, out, 10);
    if (ec == std::errc::result_out_of_range)
        badValue(flag, value, "an unsigned integer in range (64-bit)");
    if (ec != std::errc() || ptr != last)
        badValue(flag, value, "an unsigned integer");
    return out;
}

double
parseDoubleFlag(const std::string &flag, const std::string &value)
{
    double out = 0.0;
    const char *first = value.data();
    const char *last = first + value.size();
    auto [ptr, ec] = std::from_chars(first, last, out,
                                     std::chars_format::general);
    if (ec == std::errc::result_out_of_range)
        badValue(flag, value, "a number in double range");
    if (ec != std::errc() || ptr != last)
        badValue(flag, value, "a number");
    // from_chars accepts the textual "inf"/"nan" forms; no flag of
    // the runner has a meaningful non-finite setting.
    if (!std::isfinite(out))
        badValue(flag, value, "a finite number");
    return out;
}

} // namespace cli
} // namespace dmpb
