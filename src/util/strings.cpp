#include "util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ldp {

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

Result<uint64_t> parse_u64(std::string_view s) {
  if (s.empty()) return Err("empty integer");
  uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    return Err("invalid integer: " + std::string(s));
  return v;
}

Result<uint64_t> parse_u64_in(std::string_view s, uint64_t lo, uint64_t hi) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string_view::npos)
    return Err("wants a plain integer, got '" + std::string(s) + "'");
  auto v = parse_u64(s);  // all digits: fails only on overflow
  if (!v.ok() || *v < lo || *v > hi)
    return Err("must be between " + std::to_string(lo) + " and " +
               std::to_string(hi) + ", got " + std::string(s));
  return *v;
}

Result<double> parse_number(std::string_view s) {
  std::string buf(s);
  if (buf.empty() || !std::isdigit(static_cast<unsigned char>(buf[0])))
    return Err("wants a non-negative number, got '" + buf + "'");
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE ||
      !std::isfinite(value) || value < 0)
    return Err("wants a non-negative number, got '" + buf + "'");
  return value;
}

Result<int64_t> parse_seconds_ns(std::string_view s) {
  if (s.empty() || s[0] == '-') return Err("invalid seconds: " + std::string(s));
  auto dot = s.find('.');
  std::string_view whole = (dot == std::string_view::npos) ? s : s.substr(0, dot);
  std::string_view frac = (dot == std::string_view::npos) ? "" : s.substr(dot + 1);
  if (frac.size() > 9) return Err("too many fractional digits: " + std::string(s));
  uint64_t sec = LDP_TRY(parse_u64(whole));
  uint64_t frac_ns = 0;
  if (!frac.empty()) {
    frac_ns = LDP_TRY(parse_u64(frac));
    for (size_t i = frac.size(); i < 9; ++i) frac_ns *= 10;
  }
  if (sec > static_cast<uint64_t>(INT64_MAX / 1000000000)) return Err("seconds overflow");
  return static_cast<int64_t>(sec * 1000000000 + frac_ns);
}

std::string format_seconds_ns(int64_t ns) {
  char buf[40];
  bool neg = ns < 0;
  uint64_t abs_ns = neg ? static_cast<uint64_t>(-(ns + 1)) + 1 : static_cast<uint64_t>(ns);
  // Round to microseconds to match the capture format's precision.
  uint64_t us = abs_ns / 1000;
  std::snprintf(buf, sizeof(buf), "%s%llu.%06llu", neg ? "-" : "",
                static_cast<unsigned long long>(us / 1000000),
                static_cast<unsigned long long>(us % 1000000));
  return buf;
}

}  // namespace ldp
