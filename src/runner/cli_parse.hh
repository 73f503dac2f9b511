/**
 * @file
 * Strict CLI value parsing for the `dmpb` runner.
 *
 * The historical strtoull/strtod parsers accepted prefix garbage
 * ("4x" parsed as 4), silently wrapped negatives and saturated
 * overflow to ULLONG_MAX, and let doubles be "inf"/"nan"/hex. These
 * helpers parse with std::from_chars -- locale-independent, full-
 * string, no sign or whitespace slack -- and throw
 * std::invalid_argument naming the offending flag, which
 * runner_main turns into a usage error. They live in the core
 * library (not runner_main.cc) so test_runner.cc pins them directly.
 */

#ifndef DMPB_RUNNER_CLI_PARSE_HH
#define DMPB_RUNNER_CLI_PARSE_HH

#include <cstdint>
#include <string>

namespace dmpb {
namespace cli {

/**
 * Parse @p value as an unsigned decimal integer. Throws
 * std::invalid_argument naming @p flag on empty input, any non-digit
 * (sign, whitespace, trailing garbage) or a value above 2^64-1.
 */
std::uint64_t parseU64Flag(const std::string &flag,
                           const std::string &value);

/**
 * Parse @p value as a finite decimal floating-point number. Throws
 * std::invalid_argument naming @p flag on empty input, trailing
 * garbage, hex forms, out-of-range magnitudes, or inf/nan.
 */
double parseDoubleFlag(const std::string &flag,
                       const std::string &value);

} // namespace cli
} // namespace dmpb

#endif // DMPB_RUNNER_CLI_PARSE_HH
