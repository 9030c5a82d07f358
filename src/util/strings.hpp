// Small string helpers shared by the zone-file parser and the plain-text
// trace format. Deliberately allocation-light: views in, views out where the
// lifetime allows.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace ldp {

/// Split on a single delimiter; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Split on runs of ASCII whitespace; empty fields never appear.
std::vector<std::string_view> split_ws(std::string_view s);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// ASCII lowercase copy (DNS names compare case-insensitively).
std::string to_lower(std::string_view s);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Parse an unsigned decimal integer; rejects trailing junk and overflow.
Result<uint64_t> parse_u64(std::string_view s);

/// Strict integer option value for the tools: plain decimal digits (no
/// sign, space or junk) in [lo, hi]. The error says which rule failed
/// ("wants a plain integer, got 'x'" / "must be between 1 and 64, got 0").
Result<uint64_t> parse_u64_in(std::string_view s, uint64_t lo, uint64_t hi);

/// Strict decimal number: the whole of `s` must be one finite non-negative
/// number. Trailing garbage ("0.5x"), a second dot ("1.2.3"), a sign or
/// an empty string are all rejected, so a typo'd knob fails loudly instead
/// of running with a half-parsed value.
Result<double> parse_number(std::string_view s);

/// Parse a decimal seconds value ("12.345678") into integer nanoseconds.
/// Accepts up to 9 fractional digits; rejects negative values and junk.
Result<int64_t> parse_seconds_ns(std::string_view s);

/// Format integer nanoseconds as decimal seconds with 6 fractional digits
/// ("12.345678") — the plain-text trace timestamp format.
std::string format_seconds_ns(int64_t ns);

}  // namespace ldp
