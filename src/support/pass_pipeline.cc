#include "support/pass_pipeline.h"

#include <algorithm>

#include "support/error.h"
#include "support/strings.h"

namespace ag {
namespace {

bool ValidName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

PipelineSpec PipelineSpec::Parse(const std::string& text) {
  PipelineSpec spec;
  bool saw_default = false;
  bool saw_positive = false;
  for (const std::string& raw : Split(text, ',')) {
    std::string token = Strip(raw);
    if (token.empty()) continue;
    bool negate = false;
    if (token[0] == '-' || token[0] == '+') {
      negate = token[0] == '-';
      token = Strip(token.substr(1));
    }
    // "-default" names no pass; accepting it would silently select the
    // default pipeline, the opposite of what it reads as.
    if (!ValidName(token) || (negate && token == "default")) {
      throw ValueError("pass pipeline: malformed token '" + Strip(raw) +
                       "' (expected [+|-]name or 'default')");
    }
    if (token == "default") {
      saw_default = true;
    } else if (negate) {
      spec.exclude.push_back(token);
    } else {
      saw_positive = true;
      spec.include.push_back(token);
    }
  }
  spec.from_default = saw_default || !saw_positive;
  return spec;
}

bool PipelineSpec::Selects(std::string_view name,
                           bool default_enabled) const {
  if (std::find(exclude.begin(), exclude.end(), name) != exclude.end()) {
    return false;
  }
  if (std::find(include.begin(), include.end(), name) != include.end()) {
    return true;
  }
  return from_default && default_enabled;
}

void PipelineSpec::CheckNames(
    const std::vector<std::string_view>& known) const {
  auto check = [&known](const std::vector<std::string>& names,
                        const char* where) {
    for (const std::string& name : names) {
      if (std::find(known.begin(), known.end(), name) != known.end()) {
        continue;
      }
      const std::vector<std::string> registered(known.begin(), known.end());
      throw ValueError("pass pipeline: unknown pass '" + name + "' in " +
                       where + " list (registered: " +
                       Join(registered, ", ") + ")");
    }
  };
  check(include, "include");
  check(exclude, "exclude");
}

}  // namespace ag
