#include "analysis/cfg.h"

#include <algorithm>
#include <bit>
#include <set>
#include <utility>

#include "analysis/activity.h"

namespace ag::analysis {

using lang::Cast;
using lang::StmtKind;
using lang::StmtList;
using lang::StmtPtr;

size_t NameSet::count(const std::string& name) const {
  auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it == names_.end() || *it != name) return 0;
  const auto id = static_cast<size_t>(it - names_.begin());
  return (words_[id / 64] >> (id % 64)) & 1;
}

void NameSet::insert(const std::string& name) {
  const auto id = static_cast<size_t>(
      std::lower_bound(names_.begin(), names_.end(), name) - names_.begin());
  words_[id / 64] |= uint64_t{1} << (id % 64);
}

size_t NameSet::NextFrom(size_t id) const {
  for (size_t w = id / 64; w < words_.size(); ++w) {
    uint64_t bits = words_[w];
    if (w == id / 64) bits &= ~uint64_t{0} << (id % 64);
    if (bits != 0) return w * 64 + static_cast<size_t>(std::countr_zero(bits));
  }
  return names_.size();
}

namespace {

struct LoopContext {
  NodeId header;     // continue target
  NodeId after;      // break target (loop's synthetic exit)
};

}  // namespace

class CfgBuilder {
 public:
  explicit CfgBuilder(ControlFlowGraph* cfg) : cfg_(cfg) {}

  void Run(const StmtList& body, const std::vector<std::string>& params) {
    NodeId entry = AddNode(nullptr, "entry");
    writes_[static_cast<size_t>(entry)].insert(params.begin(), params.end());
    cfg_->entry_ = entry;
    cfg_->exit_ = AddNode(nullptr, "exit");

    std::vector<NodeId> frontier{entry};
    frontier = EmitBody(body, std::move(frontier));
    Connect(frontier, cfg_->exit_);
    Intern();
  }

 private:
  NodeId AddNode(const lang::Stmt* stmt, std::string role) {
    CfgNode node;
    node.stmt = stmt;
    node.role = std::move(role);
    cfg_->nodes_.push_back(std::move(node));
    reads_.emplace_back();
    writes_.emplace_back();
    return static_cast<NodeId>(cfg_->nodes_.size() - 1);
  }

  // Sorts every name once into the CFG's table, then turns each node's
  // names into bits over it.
  void Intern() {
    std::set<std::string> names;
    for (size_t i = 0; i < reads_.size(); ++i) {
      names.insert(reads_[i].begin(), reads_[i].end());
      names.insert(writes_[i].begin(), writes_[i].end());
    }
    cfg_->names_.assign(names.begin(), names.end());
    for (size_t i = 0; i < reads_.size(); ++i) {
      CfgNode& node = cfg_->nodes_[i];
      node.reads = NameSet(cfg_->names_);
      node.writes = NameSet(cfg_->names_);
      for (const std::string& r : reads_[i]) node.reads.insert(r);
      for (const std::string& w : writes_[i]) node.writes.insert(w);
    }
  }

  // Records `s`'s node and the node everything leaving it flows through
  // (the node itself for a simple statement); returns the latter.
  NodeId Bind(const lang::Stmt* s, NodeId node, NodeId exit = kNoNode) {
    cfg_->stmt_nodes_[s] = node;
    return cfg_->exit_nodes_[s] = exit == kNoNode ? node : exit;
  }

  void AddEdge(NodeId from, NodeId to) {
    cfg_->nodes_[static_cast<size_t>(from)].successors.push_back(to);
    cfg_->nodes_[static_cast<size_t>(to)].predecessors.push_back(from);
  }

  void Connect(const std::vector<NodeId>& frontier, NodeId to) {
    for (NodeId from : frontier) AddEdge(from, to);
  }

  // Emits CFG nodes for `body`, entered from `frontier`; returns the new
  // frontier (nodes whose fall-through leaves the body).
  std::vector<NodeId> EmitBody(const StmtList& body,
                               std::vector<NodeId> frontier) {
    for (const StmtPtr& s : body) {
      frontier = EmitStmt(s, std::move(frontier));
    }
    return frontier;
  }

  std::vector<NodeId> EmitStmt(const StmtPtr& s, std::vector<NodeId> frontier) {
    switch (s->kind) {
      case StmtKind::kIf: {
        auto i = Cast<lang::IfStmt>(s);
        NodeId test = AddNode(s.get(), "test");
        CollectReads(i->test, &reads_[static_cast<size_t>(test)]);
        Connect(frontier, test);
        NodeId after = Bind(s.get(), test, AddNode(s.get(), "exit"));

        std::vector<NodeId> body_out = EmitBody(i->body, {test});
        Connect(body_out, after);
        if (i->orelse.empty()) {
          AddEdge(test, after);
        } else {
          std::vector<NodeId> else_out = EmitBody(i->orelse, {test});
          Connect(else_out, after);
        }
        return {after};
      }
      case StmtKind::kWhile: {
        auto w = Cast<lang::WhileStmt>(s);
        NodeId test = AddNode(s.get(), "test");
        CollectReads(w->test, &reads_[static_cast<size_t>(test)]);
        Connect(frontier, test);
        NodeId after = Bind(s.get(), test, AddNode(s.get(), "exit"));
        AddEdge(test, after);  // loop may not execute

        loops_.push_back(LoopContext{test, after});
        std::vector<NodeId> body_out = EmitBody(w->body, {test});
        loops_.pop_back();
        Connect(body_out, test);  // back edge
        return {after};
      }
      case StmtKind::kFor: {
        auto f = Cast<lang::ForStmt>(s);
        NodeId head = AddNode(s.get(), "iter");
        const auto h = static_cast<size_t>(head);
        CollectReads(f->iter, &reads_[h]);
        CollectWrites(f->target, &writes_[h], &reads_[h]);
        Connect(frontier, head);
        NodeId after = Bind(s.get(), head, AddNode(s.get(), "exit"));
        AddEdge(head, after);  // empty iterable

        loops_.push_back(LoopContext{head, after});
        std::vector<NodeId> body_out = EmitBody(f->body, {head});
        loops_.pop_back();
        Connect(body_out, head);
        return {after};
      }
      case StmtKind::kBreak:
      case StmtKind::kContinue: {
        const std::string role =
            s->kind == StmtKind::kBreak ? "break" : "continue";
        NodeId n = Bind(s.get(), AddNode(s.get(), role));
        Connect(frontier, n);
        if (loops_.empty()) {
          throw ConversionError("'" + role + "' outside loop", s->loc);
        }
        AddEdge(n, role == "break" ? loops_.back().after
                                   : loops_.back().header);
        return {};  // no fall-through
      }
      case StmtKind::kReturn: {
        auto r = Cast<lang::ReturnStmt>(s);
        NodeId n = Bind(s.get(), AddNode(s.get(), "return"));
        CollectReads(r->value, &reads_[static_cast<size_t>(n)]);
        Connect(frontier, n);
        AddEdge(n, cfg_->exit_);
        return {};
      }
      default: {
        NodeId n = AddNode(s.get(), "stmt");
        std::set<std::string>& reads = reads_[static_cast<size_t>(n)];
        std::set<std::string>& writes = writes_[static_cast<size_t>(n)];
        switch (s->kind) {
          case StmtKind::kAssign: {
            auto a = Cast<lang::AssignStmt>(s);
            CollectReads(a->value, &reads);
            CollectWrites(a->target, &writes, &reads);
            break;
          }
          case StmtKind::kAugAssign: {
            auto a = Cast<lang::AugAssignStmt>(s);
            CollectReads(a->value, &reads);
            CollectReads(a->target, &reads);
            CollectWrites(a->target, &writes, &reads);
            break;
          }
          case StmtKind::kExprStmt:
            CollectReads(Cast<lang::ExprStmt>(s)->value, &reads);
            break;
          case StmtKind::kAssert: {
            auto a = Cast<lang::AssertStmt>(s);
            CollectReads(a->test, &reads);
            if (a->msg) CollectReads(a->msg, &reads);
            break;
          }
          case StmtKind::kFunctionDef: {
            // Nested function definition: binds its name; free variables
            // are reads (approximated by activity analysis rules).
            auto f = Cast<lang::FunctionDefStmt>(s);
            ActivityAnalysis nested(StmtList{s});
            const Scope& sc = nested.ScopeFor(s.get());
            reads = sc.read;
            writes.insert(f->name);
            break;
          }
          case StmtKind::kPass:
            break;
          default:
            throw InternalError("CFG: unexpected statement kind");
        }
        Bind(s.get(), n);
        Connect(frontier, n);
        return {n};
      }
    }
  }

  ControlFlowGraph* cfg_;
  std::vector<LoopContext> loops_;
  // Per-node names while building, interned by Intern().
  std::vector<std::set<std::string>> reads_;
  std::vector<std::set<std::string>> writes_;
};

ControlFlowGraph ControlFlowGraph::Build(
    const StmtList& body, const std::vector<std::string>& params) {
  ControlFlowGraph cfg;
  CfgBuilder builder(&cfg);
  builder.Run(body, params);
  return cfg;
}

NodeId ControlFlowGraph::NodeFor(const lang::Stmt* stmt) const {
  auto it = stmt_nodes_.find(stmt);
  if (it == stmt_nodes_.end()) {
    throw InternalError("CFG: statement has no node");
  }
  return it->second;
}

NodeId ControlFlowGraph::ExitNodeFor(const lang::Stmt* stmt) const {
  auto it = exit_nodes_.find(stmt);
  if (it == exit_nodes_.end()) {
    throw InternalError("CFG: statement has no exit node");
  }
  return it->second;
}

Dataflow::Dataflow(const ControlFlowGraph& cfg, Direction direction,
                   Meet meet, NameSet CfgNode::*gen, NameSet CfgNode::*kill) {
  const std::vector<CfgNode>& nodes = cfg.nodes();
  const size_t n = nodes.size();
  const bool forward = direction == Direction::kForward;
  // `in` is what reaches a node along the direction, `out` what it passes on.
  std::vector<NameSet>& in = forward ? before : after;
  std::vector<NameSet>& out = forward ? after : before;

  NameSet top(cfg.names());
  if (meet == Meet::kMust) {
    for (const CfgNode& node : nodes) top |= node.*gen;
  }
  in.assign(n, top);
  out.assign(n, top);
  const auto boundary =
      static_cast<size_t>(forward ? cfg.entry() : cfg.exit());
  in[boundary] = NameSet(cfg.names());

  // Sweep in (reverse, for backward) id order until nothing changes. A
  // node's `in` is recomputed from its sources' `out` on every visit, so
  // a sweep that changes no `out` leaves every fact final.
  NameSet next(cfg.names());
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t k = 0; k < n; ++k) {
      const size_t i = forward ? k : n - 1 - k;
      const CfgNode& node = nodes[i];
      const std::vector<NodeId>& sources =
          forward ? node.predecessors : node.successors;
      if (i != boundary && !sources.empty()) {
        in[i] = out[static_cast<size_t>(sources[0])];
        for (size_t s = 1; s < sources.size(); ++s) {
          const NameSet& other = out[static_cast<size_t>(sources[s])];
          if (meet == Meet::kMay) {
            in[i] |= other;
          } else {
            in[i] &= other;
          }
        }
      }
      next = in[i];
      if (kill != nullptr) next -= node.*kill;
      next |= node.*gen;
      if (next != out[i]) {
        std::swap(next, out[i]);
        changed = true;
      }
    }
  }
}

}  // namespace ag::analysis
