// Liveness analysis (paper §7.1): classic backward may-analysis over the
// CFG. A symbol is live at a point if some path from that point reads it
// before writing it.
//
// Clients use:
//   LiveIn(stmt)  — symbols live on entry to `stmt`;
//   LiveOut(stmt) — symbols live after the *entire* statement (for
//                   compounds this uses the synthetic exit node).
#pragma once

#include "analysis/cfg.h"

namespace ag::analysis {

class Liveness {
 public:
  explicit Liveness(const ControlFlowGraph& cfg)
      : cfg_(cfg),
        live_(cfg, Dataflow::Direction::kBackward, Dataflow::Meet::kMay,
              &CfgNode::reads, &CfgNode::writes) {}

  [[nodiscard]] const NameSet& LiveIn(const lang::Stmt* stmt) const {
    return live_.before[static_cast<size_t>(cfg_.NodeFor(stmt))];
  }
  // Live-out of a whole compound = live-out of its synthetic exit node
  // (everything flowing out of the statement passes through it, and the
  // synthetic node reads/writes nothing). For simple statements the exit
  // node is the statement itself, so this is its ordinary live-out.
  [[nodiscard]] const NameSet& LiveOut(const lang::Stmt* stmt) const {
    return live_.after[static_cast<size_t>(cfg_.ExitNodeFor(stmt))];
  }

 private:
  const ControlFlowGraph& cfg_;
  Dataflow live_;
};

}  // namespace ag::analysis
