// Unit tests for the static analyses of §7.1: activity, CFG construction,
// liveness, and reaching definitions.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/activity.h"
#include "analysis/cfg.h"
#include "analysis/liveness.h"
#include "analysis/reaching_definitions.h"
#include "lang/parser.h"

namespace ag::analysis {
namespace {

using lang::Cast;
using lang::ParseStr;

TEST(Activity, ReadAndModifiedSets) {
  auto module = ParseStr("a = b + c\n");
  ActivityAnalysis activity(module->body);
  const Scope& sc = activity.ScopeFor(module->body[0].get());
  EXPECT_EQ(sc.read, (std::set<std::string>{"b", "c"}));
  EXPECT_EQ(sc.modified, (std::set<std::string>{"a"}));
}

TEST(Activity, QualifiedNameSemantics) {
  // Paper: "in the statement a.b = c, a.b is considered to be modified,
  // but a is not" (though a is read).
  auto module = ParseStr("a.b = c\n");
  ActivityAnalysis activity(module->body);
  const Scope& sc = activity.ScopeFor(module->body[0].get());
  EXPECT_TRUE(sc.modified.count("a.b"));
  EXPECT_FALSE(sc.modified.count("a"));
  EXPECT_TRUE(sc.read.count("a"));
  EXPECT_TRUE(sc.read.count("c"));
  // ModifiedNames filters out compound names.
  EXPECT_TRUE(sc.ModifiedNames().empty());
}

TEST(Activity, AugAssignReadsTarget) {
  auto module = ParseStr("x += y\n");
  ActivityAnalysis activity(module->body);
  const Scope& sc = activity.ScopeFor(module->body[0].get());
  EXPECT_TRUE(sc.read.count("x"));
  EXPECT_TRUE(sc.read.count("y"));
  EXPECT_TRUE(sc.modified.count("x"));
}

TEST(Activity, CompoundStatementAggregates) {
  auto module = ParseStr(R"(
if cond:
  x = a
else:
  y = b
)");
  ActivityAnalysis activity(module->body);
  const Scope& sc = activity.ScopeFor(module->body[0].get());
  EXPECT_EQ(sc.read, (std::set<std::string>{"cond", "a", "b"}));
  EXPECT_EQ(sc.modified, (std::set<std::string>{"x", "y"}));
}

TEST(Activity, LambdaAndNestedFunctionScoping) {
  auto module = ParseStr(R"(
def f(p):
  q = p + free
  return q
)");
  ActivityAnalysis activity(module->body);
  const Scope& sc = activity.ScopeFor(module->body[0].get());
  // Only the free variable leaks out; params and locals do not.
  EXPECT_TRUE(sc.read.count("free"));
  EXPECT_FALSE(sc.read.count("p"));
  EXPECT_FALSE(sc.read.count("q"));
  EXPECT_TRUE(sc.modified.count("f"));
}

TEST(Cfg, StraightLine) {
  auto module = ParseStr("a = 1\nb = a\n");
  auto cfg = ControlFlowGraph::Build(module->body, {});
  // entry, exit, two statements.
  EXPECT_EQ(cfg.nodes().size(), 4u);
  NodeId first = cfg.NodeFor(module->body[0].get());
  NodeId second = cfg.NodeFor(module->body[1].get());
  EXPECT_EQ(cfg.nodes()[static_cast<size_t>(first)].successors,
            (std::vector<NodeId>{second}));
}

TEST(Cfg, BranchesJoinAtExitNode) {
  auto module = ParseStr(R"(
if c:
  x = 1
else:
  x = 2
y = x
)");
  auto cfg = ControlFlowGraph::Build(module->body, {});
  const auto* if_stmt = module->body[0].get();
  NodeId join = cfg.ExitNodeFor(if_stmt);
  // Both branch statements flow into the synthetic join.
  EXPECT_EQ(cfg.nodes()[static_cast<size_t>(join)].predecessors.size(), 2u);
}

TEST(Cfg, LoopBackEdgeAndBreakEdges) {
  auto module = ParseStr(R"(
while c:
  if d:
    break
  x = 1
y = 2
)");
  auto cfg = ControlFlowGraph::Build(module->body, {});
  const auto* loop = module->body[0].get();
  NodeId test = cfg.NodeFor(loop);
  NodeId after = cfg.ExitNodeFor(loop);
  // The test has a path out of the loop and into the body.
  EXPECT_EQ(cfg.nodes()[static_cast<size_t>(test)].successors.size(), 2u);
  // The break node targets the loop exit.
  bool found_break_edge = false;
  for (const CfgNode& n : cfg.nodes()) {
    if (n.role == "break") {
      found_break_edge =
          n.successors == std::vector<NodeId>{after};
    }
  }
  EXPECT_TRUE(found_break_edge);
}

TEST(Cfg, BreakOutsideLoopIsAnError) {
  auto module = ParseStr("break\n");
  EXPECT_THROW((void)ControlFlowGraph::Build(module->body, {}), Error);
}

TEST(Liveness, BasicKillAndGen) {
  auto module = ParseStr(R"(
a = 1
b = a
c = b
)");
  auto cfg = ControlFlowGraph::Build(module->body, {});
  Liveness live(cfg);
  // `a` is live into the second statement, dead after it.
  EXPECT_TRUE(live.LiveIn(module->body[1].get()).count("a"));
  EXPECT_FALSE(live.LiveOut(module->body[1].get()).count("a"));
  EXPECT_TRUE(live.LiveOut(module->body[1].get()).count("b"));
}

TEST(Liveness, LoopCarriedVariables) {
  auto module = ParseStr(R"(
x = 0
while x < n:
  x = x + 1
return x
)");
  auto cfg = ControlFlowGraph::Build(module->body, {"n"});
  Liveness live(cfg);
  const auto* loop = module->body[1].get();
  // x is live into the loop (read by test and body) and after it.
  EXPECT_TRUE(live.LiveIn(loop).count("x"));
  EXPECT_TRUE(live.LiveOut(loop).count("x"));
  EXPECT_TRUE(live.LiveIn(loop).count("n"));
  EXPECT_FALSE(live.LiveOut(loop).count("n"));
}

TEST(Liveness, BranchLocalTemporaryNotLiveOut) {
  auto module = ParseStr(R"(
if c:
  tmp = f(x)
  y = tmp
return y
)");
  auto cfg = ControlFlowGraph::Build(module->body, {"c", "x", "f", "y"});
  Liveness live(cfg);
  const auto* if_stmt = module->body[0].get();
  EXPECT_FALSE(live.LiveOut(if_stmt).count("tmp"));
  EXPECT_TRUE(live.LiveOut(if_stmt).count("y"));
}

TEST(ReachingDefs, DefinitelyVsMaybe) {
  auto module = ParseStr(R"(
a = 1
if c:
  b = 2
d = 3
)");
  auto cfg = ControlFlowGraph::Build(module->body, {"c"});
  ReachingDefinitions reach(cfg);
  const auto* last = module->body[2].get();
  EXPECT_TRUE(reach.DefinitelyDefinedIn(last).count("a"));
  EXPECT_FALSE(reach.DefinitelyDefinedIn(last).count("b"));
  EXPECT_TRUE(reach.MaybeDefinedIn(last).count("b"));
}

TEST(ReachingDefs, DefinedInBothBranchesIsDefinite) {
  auto module = ParseStr(R"(
if c:
  x = 1
else:
  x = 2
y = x
)");
  auto cfg = ControlFlowGraph::Build(module->body, {"c"});
  ReachingDefinitions reach(cfg);
  EXPECT_TRUE(
      reach.DefinitelyDefinedIn(module->body[1].get()).count("x"));
}

TEST(ReachingDefs, LoopBodyDefinitionsAreMaybe) {
  auto module = ParseStr(R"(
while c:
  v = 1
u = 2
)");
  auto cfg = ControlFlowGraph::Build(module->body, {"c"});
  ReachingDefinitions reach(cfg);
  const auto* after = module->body[1].get();
  EXPECT_FALSE(reach.DefinitelyDefinedIn(after).count("v"));
  EXPECT_TRUE(reach.MaybeDefinedIn(after).count("v"));
}

TEST(Cfg, NestedLoopBreakTargetsInnerExitOnly) {
  auto module = ParseStr(R"(
while a:
  while b:
    if c:
      break
    x = 1
  y = 2
z = 3
)");
  auto cfg = ControlFlowGraph::Build(module->body, {"a", "b", "c"});
  const auto& outer = module->body[0];
  const auto* inner = Cast<lang::WhileStmt>(outer)->body[0].get();
  NodeId inner_exit = cfg.ExitNodeFor(inner);
  NodeId outer_exit = cfg.ExitNodeFor(outer.get());
  for (const CfgNode& n : cfg.nodes()) {
    if (n.role == "break") {
      // break leaves the innermost loop only.
      EXPECT_EQ(n.successors, (std::vector<NodeId>{inner_exit}));
      EXPECT_NE(n.successors, (std::vector<NodeId>{outer_exit}));
    }
  }
}

TEST(Cfg, NestedLoopContinueTargetsInnerHeader) {
  auto module = ParseStr(R"(
while a:
  while b:
    if c:
      continue
    x = 1
)");
  auto cfg = ControlFlowGraph::Build(module->body, {"a", "b", "c"});
  const auto& outer = module->body[0];
  const auto* inner = Cast<lang::WhileStmt>(outer)->body[0].get();
  NodeId inner_test = cfg.NodeFor(inner);
  bool found = false;
  for (const CfgNode& n : cfg.nodes()) {
    if (n.role == "continue") {
      found = true;
      EXPECT_EQ(n.successors, (std::vector<NodeId>{inner_test}));
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cfg, ForHeadHasEmptyIterableEdgeToExit) {
  auto module = ParseStr(R"(
for i in xs:
  y = i
z = 2
)");
  auto cfg = ControlFlowGraph::Build(module->body, {"xs"});
  const auto* loop = module->body[0].get();
  NodeId head = cfg.NodeFor(loop);
  NodeId after = cfg.ExitNodeFor(loop);
  // The head node branches straight to the exit when the iterable is
  // empty, in addition to entering the body.
  const auto& succ = cfg.nodes()[static_cast<size_t>(head)].successors;
  EXPECT_NE(std::find(succ.begin(), succ.end(), after), succ.end());
  EXPECT_EQ(succ.size(), 2u);
  // The head both reads the iterable and writes the loop target.
  EXPECT_TRUE(cfg.nodes()[static_cast<size_t>(head)].reads.count("xs"));
  EXPECT_TRUE(cfg.nodes()[static_cast<size_t>(head)].writes.count("i"));
}

TEST(Liveness, BreakAndContinueInNestedLoops) {
  auto module = ParseStr(R"(
total = 0
for i in outer:
  for j in inner:
    if j > cap:
      break
    if j < floor:
      continue
    total = total + j
  z = total
return z
)");
  auto cfg =
      ControlFlowGraph::Build(module->body, {"outer", "inner", "cap", "floor"});
  Liveness live(cfg);
  const auto& outer_for_ptr = module->body[1];
  const auto* outer_for = outer_for_ptr.get();
  const auto* inner_for = Cast<lang::ForStmt>(outer_for_ptr)->body[0].get();
  // total is loop-carried through both loops: live into each, and live
  // out of the inner loop where `z = total` reads it — even along the
  // break and continue paths.
  EXPECT_TRUE(live.LiveIn(outer_for).count("total"));
  EXPECT_TRUE(live.LiveIn(inner_for).count("total"));
  EXPECT_TRUE(live.LiveOut(inner_for).count("total"));
  // The guards' operands stay live across iterations.
  EXPECT_TRUE(live.LiveIn(inner_for).count("cap"));
  EXPECT_TRUE(live.LiveIn(inner_for).count("floor"));
  // The inner loop target is rebound by the iteration head before any
  // read, so it is not loop-carried into the outer loop.
  EXPECT_FALSE(live.LiveIn(outer_for).count("j"));
  EXPECT_TRUE(live.LiveOut(outer_for).count("z"));
}

TEST(ReachingDefs, DefinitionBeforeBreakIsMaybeAfterLoop) {
  auto module = ParseStr(R"(
while a:
  if c:
    w = 1
    break
after = 2
)");
  auto cfg = ControlFlowGraph::Build(module->body, {"a", "c"});
  ReachingDefinitions reach(cfg);
  const auto* last = module->body[1].get();
  // The break path defines w, the normal exit path does not.
  EXPECT_FALSE(reach.DefinitelyDefinedIn(last).count("w"));
  EXPECT_TRUE(reach.MaybeDefinedIn(last).count("w"));
}

TEST(ReachingDefs, ContinueSkipsLaterDefinitions) {
  auto module = ParseStr(R"(
while a:
  if c:
    continue
  v = 1
  u = v
done = 2
)");
  auto cfg = ControlFlowGraph::Build(module->body, {"a", "c"});
  ReachingDefinitions reach(cfg);
  const auto& loop = module->body[0];
  const auto* u_stmt = Cast<lang::WhileStmt>(loop)->body[2].get();
  // Within the body, v dominates the read that follows it...
  EXPECT_TRUE(reach.DefinitelyDefinedIn(u_stmt).count("v"));
  // ...but after the loop it is only maybe-defined: the continue path
  // reaches the loop exit without ever executing `v = 1`.
  const auto* last = module->body[1].get();
  EXPECT_FALSE(reach.DefinitelyDefinedIn(last).count("v"));
  EXPECT_TRUE(reach.MaybeDefinedIn(last).count("v"));
}

TEST(ReachingDefs, ForOverEmptyIterable) {
  auto module = ParseStr(R"(
for i in xs:
  y = 1
z = 2
)");
  auto cfg = ControlFlowGraph::Build(module->body, {"xs"});
  ReachingDefinitions reach(cfg);
  const auto* last = module->body[1].get();
  // Body definitions may be skipped entirely when the iterable is empty.
  EXPECT_FALSE(reach.DefinitelyDefinedIn(last).count("y"));
  EXPECT_TRUE(reach.MaybeDefinedIn(last).count("y"));
  // The loop target lives in the head node, which sits on the empty
  // path too, so the CFG conservatively treats it as always defined.
  EXPECT_TRUE(reach.DefinitelyDefinedIn(last).count("i"));
}

TEST(ReachingDefs, ParamsAreDefinedOnEntry) {
  auto module = ParseStr("y = x\n");
  auto cfg = ControlFlowGraph::Build(module->body, {"x"});
  ReachingDefinitions reach(cfg);
  EXPECT_TRUE(
      reach.DefinitelyDefinedIn(module->body[0].get()).count("x"));
}

// The members of `set`, in iteration order.
std::vector<std::string> Names(const NameSet& set) {
  std::vector<std::string> names;
  for (const std::string& name : set) names.push_back(name);
  return names;
}

// 80 assigned names plus c, x and y: the name table spans two 64-bit
// words, and v62/v63 sit on either side of the boundary.
TEST(Dataflow, NamesAcrossAWordBoundary) {
  std::string source;
  std::vector<std::string> vs;
  for (int i = 0; i < 80; ++i) {
    vs.push_back((i < 10 ? "v0" : "v") + std::to_string(i));
    source += vs.back() + " = c\n";
  }
  source += "if c:\n  x = v62 + v63 + v64\ny = x\n";
  auto module = ParseStr(source);
  auto cfg = ControlFlowGraph::Build(module->body, {"c"});
  ASSERT_EQ(cfg.names().size(), 83u);
  const auto* if_stmt = module->body[80].get();
  const auto* last = module->body[81].get();

  Liveness live(cfg);
  EXPECT_EQ(Names(live.LiveIn(if_stmt)),
            (std::vector<std::string>{"c", "v62", "v63", "v64", "x"}));
  EXPECT_EQ(live.LiveIn(if_stmt).count("v65"), 0u);
  EXPECT_EQ(live.LiveIn(if_stmt).count("not_a_name"), 0u);

  ReachingDefinitions reach(cfg);
  std::vector<std::string> expected{"c"};
  expected.insert(expected.end(), vs.begin(), vs.end());
  EXPECT_EQ(Names(reach.DefinitelyDefinedIn(last)), expected);
  expected.push_back("x");
  EXPECT_EQ(Names(reach.MaybeDefinedIn(last)), expected);
}

// `z = 1` follows a return, so no edge reaches it. The must-analysis
// keeps it at top (every name the function writes is vacuously
// defined); the may-analysis leaves it empty.
TEST(ReachingDefs, UnreachableStatementInNestedLoopStaysAtTop) {
  auto module = ParseStr(R"(
while a:
  for i in b:
    return i
    z = 1
  w = 2
)");
  auto cfg = ControlFlowGraph::Build(module->body, {"a", "b"});
  ReachingDefinitions reach(cfg);
  const auto& loop = Cast<lang::WhileStmt>(module->body[0]);
  const auto* z_stmt = Cast<lang::ForStmt>(loop->body[0])->body[1].get();
  EXPECT_TRUE(cfg.nodes()[static_cast<size_t>(cfg.NodeFor(z_stmt))]
                  .predecessors.empty());
  EXPECT_EQ(Names(reach.DefinitelyDefinedIn(z_stmt)),
            (std::vector<std::string>{"a", "b", "i", "w", "z"}));
  EXPECT_TRUE(Names(reach.MaybeDefinedIn(z_stmt)).empty());
  // The statement after the loop is reached only by the loop's exit, on
  // which neither w nor z is certain.
  const auto* w_stmt = loop->body[1].get();
  EXPECT_TRUE(reach.DefinitelyDefinedIn(w_stmt).count("i"));
  EXPECT_FALSE(reach.DefinitelyDefinedIn(w_stmt).count("z"));
}

}  // namespace
}  // namespace ag::analysis
