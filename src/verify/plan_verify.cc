#include "verify/plan_verify.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>

namespace ag::verify {
namespace {

using exec::Session;
using graph::Graph;
using graph::Node;
using Plan = Session::Plan;

std::string StepRef(const Plan& plan, int i) {
  const Node* node = plan.steps[static_cast<size_t>(i)].node;
  if (node == nullptr) return "step " + std::to_string(i) + " <null node>";
  return "step " + std::to_string(i) + " '" + node->name() + "' (" +
         node->op() + ")";
}

std::string SlotRef(const Plan& plan, const Plan::InputRef& ref) {
  if (ref.step < 0) return "arg " + std::to_string(ref.output);
  return "output " + std::to_string(ref.output) + " of " +
         StepRef(plan, ref.step);
}

void Add(std::vector<VerifyDiagnostic>* out, std::string code,
         std::string message, std::string where, std::string note = "") {
  out->push_back(VerifyDiagnostic{std::move(code), std::move(message),
                                  std::move(where), std::move(note)});
}

// Forward-edge transitive closure as per-step bitsets, computed once
// per plan in one backward sweep (O(steps * edges / 64)) and queried
// by AGV203 (one query per dataflow input) and AGV214 (one per
// same-variable pair). Edges found to be non-forward (AGV202
// territory) are ignored, so the sweep terminates on corrupted plans
// too — matching what the old per-query DFS skipped.
class Reachability {
 public:
  explicit Reachability(const Plan& plan)
      : num_steps_(static_cast<int>(plan.steps.size())),
        words_(static_cast<size_t>(num_steps_ + 63) / 64),
        bits_(static_cast<size_t>(num_steps_) * words_, 0) {
    for (int s = num_steps_ - 1; s >= 0; --s) {
      uint64_t* row = Row(s);
      for (const int next : plan.steps[static_cast<size_t>(s)].successors) {
        if (next <= s || next >= num_steps_) continue;
        row[static_cast<size_t>(next) / 64] |=
            uint64_t{1} << (static_cast<size_t>(next) % 64);
        const uint64_t* next_row = Row(next);
        for (size_t w = 0; w < words_; ++w) row[w] |= next_row[w];
      }
    }
  }

  // True when a successor path leads from step `from` to step `to`.
  [[nodiscard]] bool Reaches(int from, int to) const {
    if (from >= to || from < 0 || to >= num_steps_) return false;
    return (Row(from)[static_cast<size_t>(to) / 64] >>
            (static_cast<size_t>(to) % 64)) &
           1u;
  }

 private:
  uint64_t* Row(int s) { return bits_.data() + static_cast<size_t>(s) * words_; }
  const uint64_t* Row(int s) const {
    return bits_.data() + static_cast<size_t>(s) * words_;
  }

  int num_steps_;
  size_t words_;
  std::vector<uint64_t> bits_;
};

// Memoized per-subgraph audit facts, shared across all steps of one
// VerifyPlan call: a While step's body graph is walked once, not once
// per stateful-chain / race-audit query. Statefulness is the op table's
// predicate (graph::NodeIsStateful), the one CompilePlan chains by;
// AGV204 audits that the plan's edges honour it.
struct SubgraphCache {
  graph::StatefulMemo stateful;
  std::unordered_map<const Graph*, std::set<std::string>> vars;
};

const std::set<std::string>& GraphVarTouchesCached(const Graph& g,
                                                   SubgraphCache& cache);

void NodeVarTouchesCached(const Node& node, SubgraphCache& cache,
                          std::set<std::string>* vars) {
  if (node.op() == "Variable" || node.op() == "Assign") {
    auto it = node.attrs().find("var_name");
    if (it != node.attrs().end()) {
      if (const std::string* name = std::get_if<std::string>(&it->second)) {
        vars->insert(*name);
      }
    }
  }
  for (const auto& [key, value] : node.attrs()) {
    const auto* sub = std::get_if<std::shared_ptr<Graph>>(&value);
    if (sub == nullptr || *sub == nullptr) continue;
    const std::set<std::string>& sub_vars =
        GraphVarTouchesCached(**sub, cache);
    vars->insert(sub_vars.begin(), sub_vars.end());
  }
}

const std::set<std::string>& GraphVarTouchesCached(const Graph& g,
                                                   SubgraphCache& cache) {
  auto [it, inserted] = cache.vars.try_emplace(&g);
  if (!inserted) return it->second;  // done or in-progress (cycle guard)
  std::set<std::string> vars;
  for (const auto& n : g.nodes()) {
    NodeVarTouchesCached(*n, cache, &vars);
  }
  return cache.vars[&g] = std::move(vars);
}

}  // namespace

bool PlanStepIsStateful(const Plan::Step& step) {
  graph::StatefulMemo memo;
  return step.node != nullptr && graph::NodeIsStateful(*step.node, memo);
}

std::vector<VerifyDiagnostic> VerifyPlan(const Plan& plan,
                                         const PlanVerifyOptions& options) {
  std::vector<VerifyDiagnostic> out;
  const int num_steps = static_cast<int>(plan.steps.size());

  // ---- AGV205/AGV202: per-step structure ------------------------------
  for (int i = 0; i < num_steps; ++i) {
    const Plan::Step& s = plan.steps[static_cast<size_t>(i)];
    if (s.node == nullptr) {
      Add(&out, "AGV205", "step has a null graph node", StepRef(plan, i));
    } else {
      const Plan::Kind expect = graph::KindForOp(s.node->op());
      if (s.kind != expect) {
        Add(&out, "AGV205",
            "step kind does not match its node's op", StepRef(plan, i),
            "ExecStep dispatches on the kind; a mismatch executes the "
            "wrong interpreter case");
      } else if (s.kind == Plan::Kind::kKernel && s.kernel == nullptr) {
        Add(&out, "AGV205", "kernel step has no cached kernel pointer",
            StepRef(plan, i));
      }
    }
    if (s.input_move.size() != s.inputs.size()) {
      Add(&out, "AGV205",
          "input_move has " + std::to_string(s.input_move.size()) +
              " entries for " + std::to_string(s.inputs.size()) +
              " input(s)",
          StepRef(plan, i));
    }
    for (size_t j = 0; j < s.input_move.size(); ++j) {
      if (s.input_move[j] > Plan::kMoveAlways) {
        Add(&out, "AGV205",
            "input " + std::to_string(j) + " carries unknown move flag " +
                std::to_string(static_cast<int>(s.input_move[j])),
            StepRef(plan, i));
      }
    }
    for (size_t j = 0; j < s.inputs.size(); ++j) {
      const Plan::InputRef& ref = s.inputs[j];
      if (ref.step < -1 || ref.step >= i) {
        Add(&out, "AGV205",
            "input " + std::to_string(j) + " references step " +
                std::to_string(ref.step) +
                ", which is not an earlier step of the plan",
            StepRef(plan, i),
            "steps are scheduled in topological order; inputs must come "
            "from strictly earlier steps");
        continue;
      }
      if (ref.step == -1) {
        if (!options.allow_args) {
          Add(&out, "AGV205",
              "input " + std::to_string(j) +
                  " references a function argument in a top-level plan",
              StepRef(plan, i));
        } else if (ref.output < 0) {
          Add(&out, "AGV205",
              "input " + std::to_string(j) + " references argument " +
                  std::to_string(ref.output),
              StepRef(plan, i));
        }
        continue;
      }
      const Node* producer = plan.steps[static_cast<size_t>(ref.step)].node;
      if (producer != nullptr &&
          (ref.output < 0 || ref.output >= producer->num_outputs())) {
        Add(&out, "AGV205",
            "input " + std::to_string(j) + " references output " +
                std::to_string(ref.output) + " of " +
                StepRef(plan, ref.step) + ", which has " +
                std::to_string(producer->num_outputs()) + " output(s)",
            StepRef(plan, i));
      }
    }
    // Successor lists are short (deduped by CompilePlan), so the
    // duplicate check is a linear rescan of the prefix — no per-step
    // allocation.
    for (size_t si = 0; si < s.successors.size(); ++si) {
      const int succ = s.successors[si];
      if (succ <= i || succ >= num_steps) {
        Add(&out, "AGV202",
            "successor " + std::to_string(succ) +
                " is not a later step of the plan",
            StepRef(plan, i),
            "a non-forward edge makes the ready-queue cyclic");
      } else if (std::find(s.successors.begin(),
                           s.successors.begin() + static_cast<long>(si),
                           succ) !=
                 s.successors.begin() + static_cast<long>(si)) {
        Add(&out, "AGV202",
            "duplicate successor edge to step " + std::to_string(succ),
            StepRef(plan, i),
            "a duplicate edge decrements the consumer's pending count "
            "twice, launching it before its inputs exist");
      }
    }
  }

  // ---- AGV201: pending counts == distinct in-degree -------------------
  std::vector<int> indegree(static_cast<size_t>(num_steps), 0);
  for (int p = 0; p < num_steps; ++p) {
    const std::vector<int>& succs =
        plan.steps[static_cast<size_t>(p)].successors;
    for (size_t si = 0; si < succs.size(); ++si) {
      const int succ = succs[si];
      if (succ > p && succ < num_steps &&
          std::find(succs.begin(), succs.begin() + static_cast<long>(si),
                    succ) == succs.begin() + static_cast<long>(si)) {
        ++indegree[static_cast<size_t>(succ)];
      }
    }
  }
  for (int i = 0; i < num_steps; ++i) {
    const int expect = indegree[static_cast<size_t>(i)];
    const int got = plan.steps[static_cast<size_t>(i)].pending_init;
    if (got != expect) {
      Add(&out, "AGV201",
          "pending_init is " + std::to_string(got) + " but " +
              std::to_string(expect) +
              " distinct predecessor step(s) have an edge to this step",
          StepRef(plan, i),
          got < expect
              ? "the step would launch before all predecessors finished"
              : "the step's count never reaches zero: scheduler deadlock");
    }
  }

  // ---- AGV203: every dataflow input is path-ordered -------------------
  // A direct producer edge is not required: CompilePlan's transitive
  // reduction drops edges a longer path implies, and the drain's
  // acq_rel pending-count decrements form a release sequence along any
  // path, so path reachability is the sound requirement.
  const Reachability reach(plan);
  for (int i = 0; i < num_steps; ++i) {
    const Plan::Step& s = plan.steps[static_cast<size_t>(i)];
    for (size_t j = 0; j < s.inputs.size(); ++j) {
      const int p = s.inputs[j].step;
      if (p < 0 || p >= i) continue;  // args / AGV205 territory
      if (!reach.Reaches(p, i)) {
        Add(&out, "AGV203",
            "reads " + SlotRef(plan, s.inputs[j]) +
                " but no successor path orders this step after the "
                "producer",
            StepRef(plan, i),
            "without a path the parallel drain may run the consumer "
            "before the producer's slot is written");
      }
    }
  }

  // ---- AGV204: stateful chain is a direct total order -----------------
  SubgraphCache subgraph_cache;
  int prev_stateful = -1;
  for (int i = 0; i < num_steps; ++i) {
    const Plan::Step& s = plan.steps[static_cast<size_t>(i)];
    if (s.node == nullptr ||
        !graph::NodeIsStateful(*s.node, subgraph_cache.stateful)) {
      continue;
    }
    if (prev_stateful >= 0) {
      const std::vector<int>& succ =
          plan.steps[static_cast<size_t>(prev_stateful)].successors;
      if (std::find(succ.begin(), succ.end(), i) == succ.end()) {
        Add(&out, "AGV204",
            "stateful " + StepRef(plan, i) +
                " is not chained to the previous stateful " +
                StepRef(plan, prev_stateful),
            StepRef(plan, i),
            "side effects must execute in sequential plan order; an "
            "unchained pair lets the parallel engine reorder them");
      }
    }
    prev_stateful = i;
  }

  // ---- AGV206: returns shape ------------------------------------------
  if (plan.returns_move.size() != plan.returns.size()) {
    Add(&out, "AGV206",
        "returns_move has " + std::to_string(plan.returns_move.size()) +
            " entries for " + std::to_string(plan.returns.size()) +
            " return(s)",
        "plan returns");
  }
  std::set<std::pair<int, int>> fetched;
  for (size_t i = 0; i < plan.returns.size(); ++i) {
    const Plan::InputRef& r = plan.returns[i];
    bool ok = true;
    if (r.step < -1 || r.step >= num_steps) {
      ok = false;
    } else if (r.step == -1) {
      ok = options.allow_args && r.output >= 0;
    } else {
      const Node* producer = plan.steps[static_cast<size_t>(r.step)].node;
      ok = producer == nullptr ||
           (r.output >= 0 && r.output < producer->num_outputs());
    }
    if (!ok) {
      Add(&out, "AGV206",
          "return " + std::to_string(i) + " references " +
              (r.step >= 0 && r.step < num_steps
                   ? SlotRef(plan, r)
                   : "step " + std::to_string(r.step) + " output " +
                         std::to_string(r.output)) +
              ", which does not exist in this plan",
          "plan returns");
      continue;
    }
    fetched.insert({r.step, r.output});
  }

  // ---- AGV210/AGV211/AGV212: move soundness ---------------------------
  // All references to each slot, in plan order; (step, input index).
  std::map<std::pair<int, int>, std::vector<std::pair<int, int>>> refs;
  for (int i = 0; i < num_steps; ++i) {
    const Plan::Step& s = plan.steps[static_cast<size_t>(i)];
    for (size_t j = 0; j < s.inputs.size(); ++j) {
      if (s.inputs[j].step < -1 || s.inputs[j].step >= i) continue;
      refs[{s.inputs[j].step, s.inputs[j].output}].emplace_back(
          i, static_cast<int>(j));
    }
  }
  for (int i = 0; i < num_steps; ++i) {
    const Plan::Step& s = plan.steps[static_cast<size_t>(i)];
    const size_t nmove = std::min(s.input_move.size(), s.inputs.size());
    for (size_t j = 0; j < nmove; ++j) {
      if (s.input_move[j] == Plan::kKeep) continue;
      if (s.inputs[j].step < -1 || s.inputs[j].step >= i) continue;
      const std::pair<int, int> slot{s.inputs[j].step, s.inputs[j].output};
      const char* flag =
          s.input_move[j] == Plan::kMoveAlways ? "kMoveAlways" : "kMoveSeq";
      if (fetched.count(slot) > 0) {
        Add(&out, "AGV212",
            "input " + std::to_string(j) + " moves fetched " +
                SlotRef(plan, s.inputs[j]) + " (" + flag + ")",
            StepRef(plan, i),
            "returns read slots after all steps ran; a consumer move "
            "hands the fetch a moved-from value");
        continue;
      }
      const std::vector<std::pair<int, int>>& all = refs[slot];
      for (const auto& [k, l] : all) {
        if (k > i || (k == i && l > static_cast<int>(j))) {
          Add(&out, "AGV210",
              "input " + std::to_string(j) + " moves " +
                  SlotRef(plan, s.inputs[j]) + " (" + flag +
                  ") but step " + std::to_string(k) + " input " +
                  std::to_string(l) + " reads the slot later",
              StepRef(plan, i),
              "only a value's final reference in plan order may move it");
          break;
        }
      }
      if (s.input_move[j] == Plan::kMoveAlways) {
        if (slot.first < 0) {
          Add(&out, "AGV211",
              "input " + std::to_string(j) + " marks caller-owned " +
                  SlotRef(plan, s.inputs[j]) + " kMoveAlways",
              StepRef(plan, i),
              "the parallel drain reads args from the caller's vector "
              "without per-arg ordering; only kMoveSeq is sound there");
        } else if (all.size() != 1) {
          Add(&out, "AGV211",
              "input " + std::to_string(j) + " marks " +
                  SlotRef(plan, s.inputs[j]) + " kMoveAlways but the slot "
                  "has " + std::to_string(all.size()) + " reference(s)",
              StepRef(plan, i),
              "kMoveAlways lets the parallel drain move with no ordering "
              "against other readers, so the reference must be the "
              "slot's only one");
        }
      }
    }
  }

  // ---- AGV213: returns_move exactly at each slot's final fetch --------
  if (plan.returns_move.size() == plan.returns.size()) {
    std::map<std::pair<int, int>, size_t> last_fetch;
    for (size_t i = 0; i < plan.returns.size(); ++i) {
      last_fetch[{plan.returns[i].step, plan.returns[i].output}] = i;
    }
    for (size_t i = 0; i < plan.returns.size(); ++i) {
      const bool is_last =
          last_fetch[{plan.returns[i].step, plan.returns[i].output}] == i;
      const bool moves = plan.returns_move[i] != 0;
      if (moves && !is_last) {
        Add(&out, "AGV213",
            "return " + std::to_string(i) + " moves " +
                SlotRef(plan, plan.returns[i]) +
                " although a later fetch reads the same slot",
            "plan returns");
      } else if (!moves && is_last) {
        Add(&out, "AGV213",
            "return " + std::to_string(i) + " is the final fetch of " +
                SlotRef(plan, plan.returns[i]) +
                " but does not release the slot",
            "plan returns",
            "the final fetch must move the value so loop-carried slots "
            "re-enter the next iteration sole-owned");
      }
    }
  }

  // ---- AGV214: same-variable steps are totally ordered ----------------
  std::map<std::string, std::vector<int>> var_steps;
  for (int i = 0; i < num_steps; ++i) {
    const Plan::Step& s = plan.steps[static_cast<size_t>(i)];
    if (s.node == nullptr) continue;
    std::set<std::string> vars;
    NodeVarTouchesCached(*s.node, subgraph_cache, &vars);
    for (const std::string& v : vars) var_steps[v].push_back(i);
  }
  for (const auto& [var, steps] : var_steps) {
    for (size_t k = 1; k < steps.size(); ++k) {
      // Step lists are in plan order; pairwise-consecutive
      // reachability gives a total order by transitivity.
      if (!reach.Reaches(steps[k - 1], steps[k])) {
        Add(&out, "AGV214",
            StepRef(plan, steps[k - 1]) + " and " +
                StepRef(plan, steps[k]) + " both touch variable '" +
                var + "' but no successor path orders them",
            StepRef(plan, steps[k]),
            "the parallel scheduler may interleave unordered "
            "same-variable steps: a schedule race");
      }
    }
  }

  return out;
}

}  // namespace ag::verify
