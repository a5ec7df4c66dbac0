// Cell values and the column type system.
//
// Paper Sec III-B.4: columns are typed as string, date, integer, or float,
// inferred by best-effort parsing of the first values; types are encoded as
// integers 1..4 in the column-type embedding.
#ifndef TSFM_TABLE_VALUE_H_
#define TSFM_TABLE_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace tsfm {

/// Column data type, numbered exactly as the paper's type embedding.
enum class ColumnType : int {
  kString = 1,
  kInteger = 2,
  kFloat = 3,
  kDate = 4,
};

/// Human-readable name ("string", "int", "float", "date").
const char* ColumnTypeName(ColumnType type);

/// Attempts to parse `s` as a 64-bit integer (strict: no trailing junk).
std::optional<int64_t> ParseInt(std::string_view s);

/// Attempts to parse `s` as a finite double (strict: no trailing junk;
/// "inf", "nan" and out-of-range literals such as "1e999" are rejected).
std::optional<double> ParseFloat(std::string_view s);

/// \brief Attempts to parse `s` as a date, returning a UNIX-style timestamp
/// in days since 1970-01-01 (may be negative).
///
/// Accepted formats: YYYY-MM-DD, YYYY/MM/DD, DD/MM/YYYY, MM-DD-YYYY and
/// bare years 1000..2999. Mirrors the paper's "convert date columns to
/// timestamps and treat as numeric" rule.
std::optional<int64_t> ParseDateToDays(std::string_view s);

/// True when the cell should be treated as missing (empty, "na", "nan",
/// "null", "none", "n/a", "-", case-insensitive, surrounding whitespace
/// ignored).
bool IsNullToken(std::string_view s);

/// \brief Numeric view of a cell under a column type.
///
/// Returns the value used by numerical sketches: the parsed number for
/// int/float columns, days-since-epoch for dates, and std::nullopt for
/// strings or unparseable cells (no null token parses).
std::optional<double> NumericValue(std::string_view cell, ColumnType type);

}  // namespace tsfm

#endif  // TSFM_TABLE_VALUE_H_
