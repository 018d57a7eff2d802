// Small string utilities shared across the library.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ag {

// Joins `parts` with `sep`.
[[nodiscard]] std::string Join(const std::vector<std::string>& parts,
                               std::string_view sep);

// Splits `s` on `sep` (single char). Keeps empty fields.
[[nodiscard]] std::vector<std::string> Split(std::string_view s, char sep);

// Strips leading/trailing whitespace.
[[nodiscard]] std::string Strip(std::string_view s);

// True if `s` starts with / ends with the given prefix/suffix.
[[nodiscard]] bool StartsWith(std::string_view s, std::string_view prefix);
[[nodiscard]] bool EndsWith(std::string_view s, std::string_view suffix);

// Removes the longest common leading whitespace from every non-blank line
// (Python textwrap.dedent).
[[nodiscard]] std::string Dedent(std::string_view text);

// Replaces all occurrences of `from` with `to`.
[[nodiscard]] std::string ReplaceAll(std::string s, std::string_view from,
                                     std::string_view to);

// True if `s` is a valid PyMini identifier.
[[nodiscard]] bool IsIdentifier(std::string_view s);

// Command-line flag parsers shared by the tools. On bad input they print
// one usage line prefixed "<tool>: " to stderr and return false; the
// tool then exits with its usage status.
//
// Strict integer: the whole of `text` must be a decimal integer
// >= `min_value` (std::stoi would throw on "abc" and accept "10x").
[[nodiscard]] bool ParseIntFlag(std::string_view tool, std::string_view flag,
                                std::string_view text, int64_t min_value,
                                int64_t* out);
// Comma-separated floats, "1.0,2.5" -> {1.0f, 2.5f}; rejects a malformed
// or empty item and an empty list.
[[nodiscard]] bool ParseFeeds(std::string_view tool, const std::string& spec,
                              std::vector<float>* out);

}  // namespace ag
