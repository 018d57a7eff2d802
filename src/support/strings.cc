#include "support/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace ag {

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Strip(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return std::string(s.substr(begin, end - begin));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string Dedent(std::string_view text) {
  std::vector<std::string> lines = Split(text, '\n');
  size_t margin = std::numeric_limits<size_t>::max();
  for (const std::string& line : lines) {
    size_t indent = 0;
    while (indent < line.size() &&
           (line[indent] == ' ' || line[indent] == '\t')) {
      ++indent;
    }
    if (indent == line.size()) continue;  // blank line
    margin = std::min(margin, indent);
  }
  if (margin == std::numeric_limits<size_t>::max()) margin = 0;
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) {
    if (line.size() <= margin) {
      out.emplace_back();
    } else {
      out.emplace_back(line.substr(margin));
    }
  }
  return Join(out, "\n");
}

std::string ReplaceAll(std::string s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return s;
  size_t pos = 0;
  while ((pos = s.find(from, pos)) != std::string::npos) {
    s.replace(pos, from.size(), to);
    pos += to.size();
  }
  return s;
}

bool IsIdentifier(std::string_view s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) {
    return false;
  }
  return std::all_of(s.begin() + 1, s.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  });
}

bool ParseIntFlag(std::string_view tool, std::string_view flag,
                  std::string_view text, int64_t min_value, int64_t* out) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last || text.empty() ||
      value < min_value) {
    std::cerr << tool << ": " << flag << " expects an integer >= "
              << min_value << ", got '" << text << "'\n";
    return false;
  }
  *out = value;
  return true;
}

bool ParseFeeds(std::string_view tool, const std::string& spec,
                std::vector<float>* out) {
  out->clear();
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      size_t consumed = 0;
      const float value = std::stof(item, &consumed);
      if (consumed != item.size()) throw std::invalid_argument(item);
      out->push_back(value);
    } catch (const std::exception&) {
      std::cerr << tool << ": --feeds expects comma-separated floats, got '"
                << item << "'\n";
      return false;
    }
  }
  if (out->empty()) {
    std::cerr << tool << ": --feeds given but no values parsed\n";
    return false;
  }
  return true;
}

}  // namespace ag
