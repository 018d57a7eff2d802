// Reaching definitions (paper §7.1): forward dataflow identifying, at the
// entry of every statement, which symbols are *definitely* defined
// (intersection over all paths) and which *may* be defined (union).
//
// The control-flow conversion pass uses the gap between the two to decide
// which symbols must be reified with the special "Undefined" value before
// a functionalized if/while (paper §7.2, Control Flow).
#pragma once

#include "analysis/cfg.h"

namespace ag::analysis {

class ReachingDefinitions {
 public:
  explicit ReachingDefinitions(const ControlFlowGraph& cfg)
      : cfg_(cfg),
        must_(cfg, Dataflow::Direction::kForward, Dataflow::Meet::kMust,
              &CfgNode::writes),
        may_(cfg, Dataflow::Direction::kForward, Dataflow::Meet::kMay,
             &CfgNode::writes) {}

  // Symbols defined on every path reaching the entry of `stmt`.
  [[nodiscard]] const NameSet& DefinitelyDefinedIn(
      const lang::Stmt* stmt) const {
    return must_.before[static_cast<size_t>(cfg_.NodeFor(stmt))];
  }
  // Symbols defined on at least one path reaching the entry of `stmt`.
  [[nodiscard]] const NameSet& MaybeDefinedIn(const lang::Stmt* stmt) const {
    return may_.before[static_cast<size_t>(cfg_.NodeFor(stmt))];
  }

 private:
  const ControlFlowGraph& cfg_;
  Dataflow must_;
  Dataflow may_;
};

}  // namespace ag::analysis
