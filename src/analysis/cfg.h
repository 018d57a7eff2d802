// Intraprocedural control flow graph over PyMini statements (paper §7.1,
// "Control Flow Graph Construction").
//
// Atomic program points become CFG nodes:
//   - every simple statement;
//   - the test of each if/while, and the iterator of each for;
//   - a synthetic EXIT node per compound statement, through which every
//     path leaving the statement flows — this is what lets clients ask
//     "what is live *after* this whole if/while?" with a single lookup;
//   - a synthetic function EXIT node (target of returns and fall-through).
//
// break/continue/return edges are wired to the appropriate loop-exit /
// loop-header / function-exit nodes.
//
// Build interns every name the function reads or writes once, into a
// sorted table; node facts and dataflow results are NameSets over it.
// One Dataflow solver (paper §7.1) runs every analysis over them:
// reaching definitions are its forward must and may instances, liveness
// its backward may instance.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/ast.h"

namespace ag::analysis {

using NodeId = int;
inline constexpr NodeId kNoNode = -1;

// A set of names from one CFG's name table, one bit per name. Ids follow
// the table's sorted order, so iteration yields names in the order a
// std::set<std::string> would. The table must outlive the set.
class NameSet {
 public:
  struct Iterator {
    const std::string& operator*() const { return set->names_[id]; }
    Iterator& operator++() {
      id = set->NextFrom(id + 1);
      return *this;
    }
    bool operator==(const Iterator& other) const { return id == other.id; }

    const NameSet* set = nullptr;
    size_t id = 0;  // the current member, or the table size at the end
  };

  NameSet() = default;
  // The empty set over `names`.
  explicit NameSet(std::span<const std::string> names)
      : names_(names), words_((names.size() + 63) / 64) {}

  [[nodiscard]] size_t count(const std::string& name) const;

  // Both operands range over the same table.
  NameSet& operator|=(const NameSet& o) { return Apply(o, std::bit_or<>()); }
  NameSet& operator&=(const NameSet& o) { return Apply(o, std::bit_and<>()); }
  NameSet& operator-=(const NameSet& o) {
    return Apply(o, [](uint64_t a, uint64_t b) { return a & ~b; });
  }
  bool operator==(const NameSet& o) const { return words_ == o.words_; }

  [[nodiscard]] Iterator begin() const { return {this, NextFrom(0)}; }
  [[nodiscard]] Iterator end() const { return {this, names_.size()}; }

 private:
  friend class CfgBuilder;

  // `name` must be in the table.
  void insert(const std::string& name);
  template <typename Op>
  NameSet& Apply(const NameSet& o, Op op) {
    for (size_t w = 0; w < words_.size(); ++w) {
      words_[w] = op(words_[w], o.words_[w]);
    }
    return *this;
  }
  // The first member id >= `id`, or the table size when there is none.
  [[nodiscard]] size_t NextFrom(size_t id) const;

  std::span<const std::string> names_;
  std::vector<uint64_t> words_;
};

struct CfgNode {
  // The statement this node represents; null for synthetic nodes.
  const lang::Stmt* stmt = nullptr;
  // Human-readable role: "stmt", "test", "iter", "exit", "break", ...
  std::string role;
  // Dataflow facts, precomputed at construction:
  NameSet reads;   // gen set for liveness
  NameSet writes;  // kill set for liveness, gen set for definitions
  std::vector<NodeId> successors;
  std::vector<NodeId> predecessors;
};

class ControlFlowGraph {
 public:
  // Builds the CFG of a function body. `params` seed the entry definitions.
  static ControlFlowGraph Build(const lang::StmtList& body,
                                const std::vector<std::string>& params);

  // NameSets point into the name table, so a CFG moves but never copies.
  ControlFlowGraph(ControlFlowGraph&&) = default;

  [[nodiscard]] const std::vector<CfgNode>& nodes() const { return nodes_; }
  [[nodiscard]] NodeId entry() const { return entry_; }
  [[nodiscard]] NodeId exit() const { return exit_; }
  // Every name some node reads or writes, sorted.
  [[nodiscard]] std::span<const std::string> names() const { return names_; }

  // The node representing a statement (its test node for compounds).
  [[nodiscard]] NodeId NodeFor(const lang::Stmt* stmt) const;
  // The synthetic exit node of a compound statement (if/while/for); for
  // simple statements this is the statement node itself.
  [[nodiscard]] NodeId ExitNodeFor(const lang::Stmt* stmt) const;

 private:
  ControlFlowGraph() = default;

  std::vector<CfgNode> nodes_;
  NodeId entry_ = kNoNode;
  NodeId exit_ = kNoNode;
  std::vector<std::string> names_;
  std::unordered_map<const lang::Stmt*, NodeId> stmt_nodes_;
  std::unordered_map<const lang::Stmt*, NodeId> exit_nodes_;

  friend class CfgBuilder;
};

// A gen/kill problem over a CFG's NameSets, solved to its fixpoint.
struct Dataflow {
  enum class Direction { kForward, kBackward };
  // kMay joins paths by union (some path), kMust by intersection (every
  // path).
  enum class Meet { kMay, kMust };

  // Along `direction`, a node passes on what reaches it, minus `kill`
  // (none when null), plus `gen`. Nothing reaches the boundary node
  // (entry forward, exit backward). Any other node with no incoming edge
  // keeps the meet's identity: empty for kMay, every generated name for
  // kMust.
  Dataflow(const ControlFlowGraph& cfg, Direction direction, Meet meet,
           NameSet CfgNode::*gen, NameSet CfgNode::*kill = nullptr);

  // Per node id, the facts just before and just after it in program order.
  std::vector<NameSet> before;
  std::vector<NameSet> after;
};

}  // namespace ag::analysis
