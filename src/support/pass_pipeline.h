// Pass-pipeline selection spec, shared by the graph pass table
// (graph/optimize.h), the conversion pass table (transforms/passes.h)
// and the aglint check filter.
//
// Grammar (comma-separated tokens, whitespace ignored):
//
//   default        start from the table's default-enabled set
//   name | +name   include pass `name`
//   -name          exclude pass `name` (applied after all inclusions)
//
// A spec with no positive tokens (only exclusions, or nothing at all)
// implicitly starts from the default set, so "-dce" means "the default
// pipeline without dce" while "licm,cse" means "exactly licm and cse".
// The spec selects *which* passes run; they always run in the order of
// the table that owns them.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ag {

struct PipelineSpec {
  // Start the selection from the default-enabled passes. True when the
  // spec had a "default" token or no positive token at all.
  bool from_default = true;
  std::vector<std::string> include;  // positive tokens, in spec order
  std::vector<std::string> exclude;  // "-name" tokens

  // Parses the grammar above. Throws ValueError on a malformed token,
  // including "-default". Parse("") returns the default spec.
  [[nodiscard]] static PipelineSpec Parse(const std::string& text);

  // True when pass `name` (whose table default is `default_enabled`)
  // is selected by this spec.
  [[nodiscard]] bool Selects(std::string_view name,
                             bool default_enabled) const;

  // Throws ValueError when a token names a pass outside `known` (a pass
  // table's names, which the message lists), so a typo is an error
  // rather than a silently different pipeline.
  void CheckNames(const std::vector<std::string_view>& known) const;
};

}  // namespace ag
