#include "table/value.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/string_util.h"

namespace tsfm {

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kString:
      return "string";
    case ColumnType::kInteger:
      return "int";
    case ColumnType::kFloat:
      return "float";
    case ColumnType::kDate:
      return "date";
  }
  return "?";
}

std::optional<int64_t> ParseInt(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<double> ParseFloat(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars for double is not universally available; use strtod with
  // a bounded copy.
  std::string buf(s);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  // strtod also accepts "inf", "-nan" and overflowing literals ("1e999");
  // one such cell would poison every statistic of its column.
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

namespace {

bool IsLeapYear(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

int DaysInMonth(int y, int m) {
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (m == 2 && IsLeapYear(y)) return 29;
  return kDays[m - 1];
}

// Days since 1970-01-01 for a valid (y, m, d).
int64_t CivilToDays(int y, int m, int d) {
  // Howard Hinnant's algorithm.
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2) / 5 +
                       static_cast<unsigned>(d) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int64_t>(era) * 146097 + static_cast<int64_t>(doe) - 719468;
}

bool ValidDate(int y, int m, int d) {
  return y >= 1 && y <= 9999 && m >= 1 && m <= 12 && d >= 1 && d <= DaysInMonth(y, m);
}

}  // namespace

std::optional<int64_t> ParseDateToDays(std::string_view s) {
  s = Trim(s);
  if (s.empty() || s.size() > 10) return std::nullopt;

  auto try_parts = [](const std::vector<std::string>& parts,
                      bool year_first) -> std::optional<int64_t> {
    if (parts.size() != 3) return std::nullopt;
    for (const auto& p : parts) {
      if (!IsDigits(p)) return std::nullopt;
    }
    int a = std::atoi(parts[0].c_str());
    int b = std::atoi(parts[1].c_str());
    int c = std::atoi(parts[2].c_str());
    int y, m, d;
    if (year_first) {
      y = a;
      m = b;
      d = c;
    } else {
      d = a;
      m = b;
      y = c;
      if (!ValidDate(y, m, d) && ValidDate(c, a, b)) {
        // Fall back to MM-DD-YYYY.
        y = c;
        m = a;
        d = b;
      }
    }
    if (!ValidDate(y, m, d)) return std::nullopt;
    return CivilToDays(y, m, d);
  };

  if (s.find('-') != std::string_view::npos) {
    auto parts = Split(s, '-');
    if (parts.size() == 3 && parts[0].size() == 4) return try_parts(parts, true);
    if (parts.size() == 3) return try_parts(parts, false);
    return std::nullopt;
  }
  if (s.find('/') != std::string_view::npos) {
    auto parts = Split(s, '/');
    if (parts.size() == 3 && parts[0].size() == 4) return try_parts(parts, true);
    if (parts.size() == 3) return try_parts(parts, false);
    return std::nullopt;
  }
  // Bare year.
  if (IsDigits(s) && s.size() == 4) {
    int y = std::atoi(std::string(s).c_str());
    if (y >= 1000 && y <= 2999) return CivilToDays(y, 1, 1);
  }
  return std::nullopt;
}

bool IsNullToken(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return true;
  if (s.size() > 4) return false;  // longer than every token: no copy
  std::string lower = ToLower(s);
  return lower == "na" || lower == "nan" || lower == "null" || lower == "none" ||
         lower == "n/a" || lower == "-";
}

std::optional<double> NumericValue(std::string_view cell, ColumnType type) {
  switch (type) {
    case ColumnType::kInteger: {
      auto v = ParseInt(cell);
      if (v) return static_cast<double>(*v);
      auto f = ParseFloat(cell);
      if (f) return *f;
      return std::nullopt;
    }
    case ColumnType::kFloat: {
      auto f = ParseFloat(cell);
      if (f) return *f;
      return std::nullopt;
    }
    case ColumnType::kDate: {
      auto d = ParseDateToDays(cell);
      if (d) return static_cast<double>(*d);
      return std::nullopt;
    }
    case ColumnType::kString:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace tsfm
