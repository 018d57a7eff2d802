// Golden tests for the aglint staging-safety diagnostics (AG001-AG007):
// one positive and one negative case per code, asserting code, severity,
// and the 1-based user-source line/column, plus the ConversionOptions
// lint_mode wiring and SourceMap round-tripping of diagnostic locations.
#include <gtest/gtest.h>

#include "analysis/lint.h"
#include "core/api.h"
#include "lang/parser.h"

namespace ag::analysis {
namespace {

using lang::ParseStr;

std::vector<Diagnostic> LintSource(const std::string& code,
                                   const LintOptions& options = {}) {
  return LintModule(ParseStr(code, "test.pym"), options);
}

// The single diagnostic with `code`, asserting there is exactly one.
Diagnostic Only(const std::vector<Diagnostic>& diagnostics,
                const std::string& code) {
  Diagnostic found;
  int count = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.code == code) {
      found = d;
      ++count;
    }
  }
  EXPECT_EQ(count, 1) << "expected exactly one " << code;
  return found;
}

bool HasCode(const std::vector<Diagnostic>& diagnostics,
             const std::string& code) {
  for (const Diagnostic& d : diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

// ---- AG001: maybe-undefined after conditional ------------------------

TEST(LintAG001, FlagsVariableDefinedInOneBranchOnly) {
  auto diags = LintSource(
      "def f(x):\n"
      "  if x > 0:\n"
      "    y = x * 2\n"
      "  return y\n");
  Diagnostic d = Only(diags, "AG001");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.filename, "test.pym");
  EXPECT_EQ(d.location.line, 4);    // the `return y`
  EXPECT_EQ(d.location.column, 3);
  EXPECT_NE(d.message.find("'y'"), std::string::npos);
}

TEST(LintAG001, CleanWhenInitializedBeforeConditional) {
  auto diags = LintSource(
      "def f(x):\n"
      "  y = 0\n"
      "  if x > 0:\n"
      "    y = x * 2\n"
      "  return y\n");
  EXPECT_FALSE(HasCode(diags, "AG001"));
}

TEST(LintAG001, GlobalReadsAreNotFlagged) {
  // `w` is never assigned in the function: it resolves to a global, not
  // to a maybe-undefined local.
  auto diags = LintSource(
      "def f(x):\n"
      "  return x * w\n");
  EXPECT_TRUE(diags.empty());
}

// ---- AG002: branch dtype/shape consistency ---------------------------

TEST(LintAG002, FlagsBranchDTypeMismatch) {
  auto diags = LintSource(
      "def f(x):\n"
      "  if x > 0:\n"
      "    v = tf.constant(1.0)\n"
      "  else:\n"
      "    v = tf.constant(1)\n"
      "  return v\n");
  Diagnostic d = Only(diags, "AG002");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.line, 2);    // reported at the `if`
  EXPECT_EQ(d.location.column, 3);
  EXPECT_NE(d.message.find("'v'"), std::string::npos);
  EXPECT_NE(d.message.find("float32"), std::string::npos);
  EXPECT_NE(d.message.find("int32"), std::string::npos);
}

TEST(LintAG002, FlagsBranchKindMismatch) {
  // One branch binds a tensor, the other a python int.
  auto diags = LintSource(
      "def f(x):\n"
      "  if x > 0:\n"
      "    v = tf.zeros([2])\n"
      "  else:\n"
      "    v = 0\n"
      "  return v\n");
  Diagnostic d = Only(diags, "AG002");
  EXPECT_EQ(d.location.line, 2);
}

TEST(LintAG002, FlagsBranchShapeMismatch) {
  auto diags = LintSource(
      "def f(x):\n"
      "  if x > 0:\n"
      "    v = tf.zeros([2, 3])\n"
      "  else:\n"
      "    v = tf.zeros([4])\n"
      "  return v\n");
  Diagnostic d = Only(diags, "AG002");
  EXPECT_NE(d.message.find("shape"), std::string::npos);
}

TEST(LintAG002, TypesNnReluResult) {
  // tf.nn.relu is typed like the other unary builtins, so its float
  // result conflicts with the other branch's int.
  auto diags = LintSource(
      "def f(x):\n"
      "  if x > 0:\n"
      "    v = tf.nn.relu(tf.constant(1.0))\n"
      "  else:\n"
      "    v = 1\n"
      "  return v\n");
  Diagnostic d = Only(diags, "AG002");
  EXPECT_EQ(d.location.line, 2);
  EXPECT_NE(d.message.find("float32"), std::string::npos);
}

TEST(LintAG002, TypesNnActivationResults) {
  // tf.nn.tanh/sigmoid/softmax/log_softmax keep their argument's dtype
  // and shape, so each float result conflicts with the other branch's
  // int exactly as tf.nn.relu does.
  for (const std::string fn :
       {"tf.nn.tanh", "tf.nn.sigmoid", "tf.nn.softmax", "tf.nn.log_softmax"}) {
    auto diags = LintSource(
        "def f(x):\n"
        "  if x > 0:\n"
        "    v = " + fn + "(tf.constant([1.0, 2.0]))\n"
        "  else:\n"
        "    v = 1\n"
        "  return v\n");
    Diagnostic d = Only(diags, "AG002");
    EXPECT_EQ(d.location.line, 2) << fn;
    EXPECT_NE(d.message.find("float32"), std::string::npos) << fn;
  }
}

TEST(LintAG002, CleanWhenBranchesAgree) {
  auto diags = LintSource(
      "def f(x):\n"
      "  if x > 0:\n"
      "    v = tf.zeros([4])\n"
      "  else:\n"
      "    v = tf.ones([4])\n"
      "  return v\n");
  EXPECT_FALSE(HasCode(diags, "AG002"));
}

// ---- AG003: loop-variant dtype/shape ---------------------------------

TEST(LintAG003, FlagsShapeChangeAcrossIterations) {
  auto diags = LintSource(
      "def f(n):\n"
      "  s = tf.zeros([4])\n"
      "  i = 0\n"
      "  while i < n:\n"
      "    s = tf.zeros([8])\n"
      "    i = i + 1\n"
      "  return s\n");
  Diagnostic d = Only(diags, "AG003");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.line, 4);    // reported at the `while`
  EXPECT_EQ(d.location.column, 3);
  EXPECT_NE(d.message.find("'s'"), std::string::npos);
}

TEST(LintAG003, FlagsDTypeChangeAcrossIterations) {
  // `x / 2` turns the python int into a float on every iteration.
  auto diags = LintSource(
      "def f(n):\n"
      "  x = 16\n"
      "  while x > n:\n"
      "    x = x / 2\n"
      "  return x\n");
  Diagnostic d = Only(diags, "AG003");
  EXPECT_EQ(d.location.line, 3);
  EXPECT_NE(d.message.find("dtype"), std::string::npos);
}

TEST(LintAG003, CleanWhenLoopVariablesAreInvariant) {
  auto diags = LintSource(
      "def f(n):\n"
      "  s = tf.zeros([4])\n"
      "  i = 0\n"
      "  while i < n:\n"
      "    s = s + tf.ones([4])\n"
      "    i = i + 1\n"
      "  return s\n");
  EXPECT_FALSE(HasCode(diags, "AG003"));
}

// ---- AG004: hidden side effects --------------------------------------

TEST(LintAG004, FlagsAttributeWriteInsideIf) {
  auto diags = LintSource(
      "def f(obj, x):\n"
      "  if x > 0:\n"
      "    obj.state = x\n"
      "  return obj\n");
  Diagnostic d = Only(diags, "AG004");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.location.line, 3);    // the compound-target write
  EXPECT_EQ(d.location.column, 5);
  EXPECT_NE(d.message.find("'obj.state'"), std::string::npos);
}

TEST(LintAG004, FlagsSubscriptWriteInsideLoop) {
  auto diags = LintSource(
      "def f(buf, n):\n"
      "  i = 0\n"
      "  while i < n:\n"
      "    buf[i] = i\n"
      "    i = i + 1\n"
      "  return buf\n");
  Diagnostic d = Only(diags, "AG004");
  EXPECT_EQ(d.location.line, 4);
}

TEST(LintAG004, CleanOutsideControlFlowOrForPlainNames) {
  auto diags = LintSource(
      "def f(obj, x):\n"
      "  obj.state = x\n"      // outside control flow: visible effect
      "  if x > 0:\n"
      "    y = x\n"            // plain-name write threads fine
      "  else:\n"
      "    y = 0\n"
      "  return y\n");
  EXPECT_FALSE(HasCode(diags, "AG004"));
}

// ---- AG005: recursion ------------------------------------------------

TEST(LintAG005, SelfRecursionIsAnErrorOnTF) {
  auto diags = LintSource(
      "def fact(n):\n"
      "  if n <= 1:\n"
      "    return 1\n"
      "  return n * fact(n - 1)\n");
  Diagnostic d = Only(diags, "AG005");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.line, 4);    // the recursive call site
  EXPECT_NE(d.message.find("'fact'"), std::string::npos);
  EXPECT_NE(d.note.find("Lantern"), std::string::npos);
}

TEST(LintAG005, MutualRecursionIsDetectedOnce) {
  auto diags = LintSource(
      "def even(n):\n"
      "  if n == 0:\n"
      "    return True\n"
      "  return odd(n - 1)\n"
      "def odd(n):\n"
      "  if n == 0:\n"
      "    return False\n"
      "  return even(n - 1)\n");
  Diagnostic d = Only(diags, "AG005");
  EXPECT_NE(d.message.find("even -> odd -> even"), std::string::npos);
}

TEST(LintAG005, DowngradesToInfoOnLantern) {
  LintOptions options;
  options.backend = LintBackend::kLantern;
  auto diags = LintSource(
      "def fact(n):\n"
      "  if n <= 1:\n"
      "    return 1\n"
      "  return n * fact(n - 1)\n",
      options);
  Diagnostic d = Only(diags, "AG005");
  EXPECT_EQ(d.severity, Severity::kInfo);
  EXPECT_FALSE(HasErrors(diags));
}

TEST(LintAG005, NonRecursiveCallsAreClean) {
  auto diags = LintSource(
      "def g(x):\n"
      "  return x + 1\n"
      "def f(x):\n"
      "  return g(g(x))\n");
  EXPECT_FALSE(HasCode(diags, "AG005"));
}

// ---- AG006: unreachable code -----------------------------------------

TEST(LintAG006, FlagsCodeAfterReturn) {
  auto diags = LintSource(
      "def f(x):\n"
      "  return x\n"
      "  x = x + 1\n");
  Diagnostic d = Only(diags, "AG006");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.location.line, 3);    // the dead statement
  EXPECT_EQ(d.location.column, 3);
}

TEST(LintAG006, FlagsCodeAfterBreak) {
  auto diags = LintSource(
      "def f(xs):\n"
      "  for x in xs:\n"
      "    break\n"
      "    y = x\n"
      "  return 0\n");
  Diagnostic d = Only(diags, "AG006");
  EXPECT_EQ(d.location.line, 4);
}

TEST(LintAG006, CleanWhenReturnIsLast) {
  auto diags = LintSource(
      "def f(x):\n"
      "  if x > 0:\n"
      "    return x\n"
      "  return 0\n");
  EXPECT_FALSE(HasCode(diags, "AG006"));
}

// ---- AG007: dead stores ----------------------------------------------

TEST(LintAG007, FlagsStoreOverwrittenBeforeAnyRead) {
  auto diags = LintSource(
      "def f(x):\n"
      "  y = x * 2\n"
      "  y = x + 1\n"
      "  return y\n");
  Diagnostic d = Only(diags, "AG007");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.location.line, 2);    // the first, shadowed store
  EXPECT_EQ(d.location.column, 3);
  EXPECT_NE(d.message.find("'y'"), std::string::npos);
}

TEST(LintAG007, FlagsResultNeverUsed) {
  auto diags = LintSource(
      "def f(x):\n"
      "  unused = x * x\n"
      "  return x\n");
  Diagnostic d = Only(diags, "AG007");
  EXPECT_EQ(d.location.line, 2);
  EXPECT_NE(d.message.find("'unused'"), std::string::npos);
}

TEST(LintAG007, FlagsDeadAugmentedAssign) {
  // `y = x` is read by the augmented assign, so only the `y += 1`
  // result is dead.
  auto diags = LintSource(
      "def f(x):\n"
      "  y = x\n"
      "  y += 1\n"
      "  return x\n");
  Diagnostic d = Only(diags, "AG007");
  EXPECT_EQ(d.location.line, 3);
}

TEST(LintAG007, FlagsInitOverwrittenOnEveryBranch) {
  // Unlike the AG001 remedy (initialize before an `if` that assigns on
  // only some paths), here *both* branches rewrite `y`: the init can
  // never be read.
  auto diags = LintSource(
      "def f(x):\n"
      "  y = 0\n"
      "  if x > 0:\n"
      "    y = x\n"
      "  else:\n"
      "    y = 0 - x\n"
      "  return y\n");
  Diagnostic d = Only(diags, "AG007");
  EXPECT_EQ(d.location.line, 2);
}

TEST(LintAG007, CleanWhenReadOnLoopBackEdge) {
  // `i = i + 1` is read by the next iteration's test; `total` by the
  // `return`. Liveness flows around the back edge, so nothing is dead.
  auto diags = LintSource(
      "def f(n):\n"
      "  i = 0\n"
      "  total = 0\n"
      "  while i < n:\n"
      "    total = total + i\n"
      "    i = i + 1\n"
      "  return total\n");
  EXPECT_FALSE(HasCode(diags, "AG007"));
}

TEST(LintAG007, CleanWhenInitReadOnFallThroughPath) {
  // The AG001 remedy pattern: the `else` path falls through and reads
  // the init, so it is not a dead store.
  auto diags = LintSource(
      "def f(x):\n"
      "  y = 0\n"
      "  if x > 0:\n"
      "    y = x * 2\n"
      "  return y\n");
  EXPECT_FALSE(HasCode(diags, "AG007"));
}

TEST(LintAG007, CleanForUnderscoreDiscard) {
  auto diags = LintSource(
      "def f(x):\n"
      "  _ignored = x * x\n"
      "  return x\n");
  EXPECT_FALSE(HasCode(diags, "AG007"));
}

// ---- conversion wiring (ConversionOptions::lint_mode) ----------------

TEST(LintMode, ErrorModeTurnsDiagnosticsIntoConversionErrors) {
  core::Interpreter::Options options;
  options.conversion.lint_mode = transforms::LintMode::kError;
  core::AutoGraph agc(options);
  agc.LoadSource(
      "def f(x):\n"
      "  if x > 0:\n"
      "    y = x\n"
      "  return y\n",
      "user.pym");
  try {
    (void)agc.ConvertedSource("f");
    FAIL() << "expected conversion error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kConversion);
    EXPECT_NE(e.message().find("AG001"), std::string::npos);
    // The frame points at the user's original source, pre-conversion.
    ASSERT_EQ(e.frames().size(), 1u);
    EXPECT_EQ(e.frames()[0].location.filename, "user.pym");
    EXPECT_EQ(e.frames()[0].location.line, 4);
    EXPECT_EQ(e.frames()[0].function_name, "f");
  }
}

TEST(LintMode, ErrorModeAbortsStagingForRecursion) {
  core::Interpreter::Options options;
  options.conversion.lint_mode = transforms::LintMode::kError;
  core::AutoGraph agc(options);
  agc.LoadSource(
      "def fact(n):\n"
      "  if n <= 1:\n"
      "    return 1\n"
      "  return n * fact(n - 1)\n");
  EXPECT_THROW((void)agc.ConvertedSource("fact"), Error);
}

TEST(LintMode, WarnModeStillConverts) {
  core::Interpreter::Options options;
  options.conversion.lint_mode = transforms::LintMode::kWarn;
  core::AutoGraph agc(options);
  agc.LoadSource(
      "def f(x):\n"
      "  if x > 0:\n"
      "    y = x\n"
      "  return y\n");
  EXPECT_FALSE(agc.ConvertedSource("f").empty());
}

TEST(LintMode, OffByDefaultDoesNotInterfere) {
  core::AutoGraph agc;
  agc.LoadSource(
      "def f(x):\n"
      "  if x > 0:\n"
      "    y = x\n"
      "  return y\n");
  EXPECT_FALSE(agc.ConvertedSource("f").empty());
}

TEST(LintMode, UnreachableCodeIsNeverFatal) {
  core::Interpreter::Options options;
  options.conversion.lint_mode = transforms::LintMode::kError;
  core::AutoGraph agc(options);
  agc.LoadSource(
      "def f(x):\n"
      "  return x\n"
      "  x = x + 1\n");
  EXPECT_FALSE(agc.ConvertedSource("f").empty());
}

// ---- SourceMap round-trip --------------------------------------------

TEST(Lint, DiagnosticLocationsSurviveSourceMapRoundTrip) {
  core::AutoGraph agc;
  agc.LoadSource(
      "def f(x):\n"
      "  if x > 0:\n"
      "    y = x\n"
      "  return y\n",
      "roundtrip.pym");
  // The linter reports `return y` at 4:3 in the original source...
  auto diags = agc.Lint("f");
  Diagnostic d = Only(diags, "AG001");
  ASSERT_EQ(d.location.filename, "roundtrip.pym");
  ASSERT_EQ(d.location.line, 4);
  // ...and after conversion the generated code's SourceMap still maps
  // some generated line back to exactly that original location.
  lang::SourceMap map;
  const std::string converted = agc.ConvertedSource("f", &map);
  ASSERT_FALSE(converted.empty());
  bool mapped_back = false;
  for (const auto& [generated_line, original] : map) {
    if (original.filename == d.location.filename &&
        original.line == d.location.line) {
      mapped_back = true;
    }
  }
  EXPECT_TRUE(mapped_back);
}

// ---- the facade entry point ------------------------------------------

TEST(Lint, ApiLintReportsWithoutConverting) {
  core::AutoGraph agc;
  agc.LoadSource(
      "def f(obj, x):\n"
      "  if x > 0:\n"
      "    obj.state = x\n"
      "  return obj\n");
  auto diags = agc.Lint("f");
  EXPECT_TRUE(HasCode(diags, "AG004"));
  EXPECT_FALSE(HasErrors(diags));
}

TEST(Lint, DiagnosticStrFormatting) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.code = "AG001";
  d.message = "'y' may be undefined";
  d.location = SourceLocation{"a.pym", 4, 3};
  d.note = "initialize it";
  const std::string s = d.str();
  EXPECT_NE(s.find("a.pym"), std::string::npos);
  EXPECT_NE(s.find("error"), std::string::npos);
  EXPECT_NE(s.find("[AG001]"), std::string::npos);
  EXPECT_NE(s.find("note: initialize it"), std::string::npos);
}

}  // namespace
}  // namespace ag::analysis
