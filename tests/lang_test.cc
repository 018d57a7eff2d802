// Unit tests for the PyMini frontend: lexer, parser, unparser round
// trips, the pretty printer, and the Appendix C template utilities.
#include <gtest/gtest.h>

#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/pretty_printer.h"
#include "lang/templates.h"
#include "lang/unparser.h"
#include "support/strings.h"

namespace ag::lang {
namespace {

TEST(Lexer, TokensAndIndentation) {
  auto tokens = Tokenize("def f(x):\n  return x\n");
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kDef, TokenKind::kName, TokenKind::kLParen,
                TokenKind::kName, TokenKind::kRParen, TokenKind::kColon,
                TokenKind::kNewline, TokenKind::kIndent, TokenKind::kReturn,
                TokenKind::kName, TokenKind::kNewline, TokenKind::kDedent,
                TokenKind::kEndOfFile}));
}

TEST(Lexer, ImplicitLineJoiningInsideParens) {
  auto tokens = Tokenize("f(a,\n  b)\n");
  for (const Token& t : tokens) {
    EXPECT_NE(t.kind, TokenKind::kIndent);
  }
}

TEST(Lexer, CommentsAndBlankLines) {
  auto tokens = Tokenize("# header\n\nx = 1  # trailing\n\n# done\n");
  EXPECT_EQ(tokens[0].kind, TokenKind::kName);
  EXPECT_EQ(tokens[1].kind, TokenKind::kAssign);
  EXPECT_EQ(tokens[2].kind, TokenKind::kNumber);
}

TEST(Lexer, StringEscapes) {
  auto tokens = Tokenize("s = 'a\\nb'\n");
  EXPECT_EQ(tokens[2].str_value, "a\nb");
}

TEST(Lexer, NumbersWithExponents) {
  auto tokens = Tokenize("x = 1e-10 + 2.5E3 + 7\n");
  EXPECT_EQ(tokens[2].text, "1e-10");
  EXPECT_EQ(tokens[4].text, "2.5E3");
}

TEST(Lexer, ErrorsHaveLocations) {
  try {
    (void)Tokenize("x = $\n");
    FAIL() << "expected syntax error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kSyntax);
    EXPECT_NE(e.message().find(":1:"), std::string::npos) << e.message();
  }
}

TEST(Parser, ExpressionPrecedence) {
  auto module = ParseStr("x = 1 + 2 * 3 ** 2\n");
  EXPECT_EQ(ExprToSource(Cast<AssignStmt>(module->body[0])->value),
            "1 + 2 * 3 ** 2");
  // Explicit grouping survives via precedence-aware unparsing.
  auto m2 = ParseStr("y = (1 + 2) * 3\n");
  EXPECT_EQ(ExprToSource(Cast<AssignStmt>(m2->body[0])->value),
            "(1 + 2) * 3");
}

TEST(Parser, ElifChainsDesugarToNestedIf) {
  auto module = ParseStr(R"(
if a:
  x = 1
elif b:
  x = 2
else:
  x = 3
)");
  auto outer = Cast<IfStmt>(module->body[0]);
  ASSERT_EQ(outer->orelse.size(), 1u);
  ASSERT_EQ(outer->orelse[0]->kind, StmtKind::kIf);
  auto inner = Cast<IfStmt>(outer->orelse[0]);
  EXPECT_EQ(inner->orelse.size(), 1u);
}

TEST(Parser, TupleAssignmentAndReturn) {
  auto module = ParseStr("a, b = f(x)\nreturn a, b\n");
  auto assign = Cast<AssignStmt>(module->body[0]);
  EXPECT_EQ(assign->target->kind, ExprKind::kTuple);
  auto ret = Cast<ReturnStmt>(module->body[1]);
  EXPECT_EQ(ret->value->kind, ExprKind::kTuple);
}

TEST(Parser, KeywordArguments) {
  auto module = ParseStr("f(1, axis=2, keepdims=True)\n");
  auto call = Cast<CallExpr>(Cast<ExprStmt>(module->body[0])->value);
  ASSERT_EQ(call->args.size(), 1u);
  ASSERT_EQ(call->keywords.size(), 2u);
  EXPECT_EQ(call->keywords[0].name, "axis");
  // Positional after keyword is an error.
  EXPECT_THROW((void)ParseStr("f(a=1, 2)\n"), Error);
}

TEST(Parser, GlobalAndNonlocalRejected) {
  // Appendix E: "not allowed".
  EXPECT_THROW((void)ParseStr("def f():\n  global x\n  x = 1\n"), Error);
  EXPECT_THROW((void)ParseStr("def f():\n  nonlocal x\n  x = 1\n"), Error);
}

TEST(Parser, DecoratorsRecorded) {
  auto fn = ParseEntity("@ag.convert()\ndef f(x):\n  return x\n");
  ASSERT_EQ(fn->decorators.size(), 1u);
  EXPECT_EQ(fn->decorators[0], "ag.convert");
}

TEST(Parser, DefaultParameters) {
  auto fn = ParseEntity("def f(a, b=2, c=3):\n  return a + b + c\n");
  EXPECT_EQ(fn->params.size(), 3u);
  EXPECT_EQ(fn->defaults.size(), 2u);
  EXPECT_THROW((void)ParseStr("def f(a=1, b):\n  return a\n"), Error);
}

TEST(Parser, ChainedComparisonsDesugarToConjunction) {
  auto module = ParseStr("x = a < b < c\n");
  const ExprPtr& v = Cast<AssignStmt>(module->body[0])->value;
  ASSERT_EQ(v->kind, ExprKind::kBoolOp);
  auto b = Cast<BoolOpExpr>(v);
  EXPECT_EQ(b->op, BoolOp::kAnd);
  EXPECT_EQ(ExprToSource(v), "a < b and b < c");
}

TEST(Parser, ComparisonChainsAndNotIn) {
  auto module = ParseStr("x = a not in b\ny = not a in b\n");
  auto x = Cast<CompareExpr>(Cast<AssignStmt>(module->body[0])->value);
  EXPECT_EQ(x->op, CompareOp::kNotIn);
  auto y = Cast<AssignStmt>(module->body[1])->value;
  EXPECT_EQ(y->kind, ExprKind::kUnary);  // `not (a in b)`
}

TEST(Parser, ParseEntityErrors) {
  EXPECT_THROW((void)ParseEntity("x = 1\n"), Error);
  EXPECT_THROW(
      (void)ParseEntity("def f():\n  return 1\ndef g():\n  return 2\n"),
      Error);
}

// Unparse(Parse(x)) must re-parse to the same unparse (fixed point).
class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, UnparseIsStable) {
  ModulePtr m1 = ParseStr(GetParam());
  std::string once = AstToSource(m1);
  ModulePtr m2 = ParseStr(once);
  EXPECT_EQ(AstToSource(m2), once) << "input:\n" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Programs, RoundTrip,
    ::testing::Values(
        "x = a + b * c\n",
        "x = (a + b) * -c ** 2\n",
        "def f(x, y=1):\n  return x if x > y else y\n",
        "for i, v in items:\n  total += v\n",
        "while a and not b or c:\n  break\n",
        "x[0] = y.z.w[i + 1]\n",
        "l = [1, 2.5, 'three', (4,), []]\n",
        "assert x < 1, 'message'\n",
        "f(lambda a, b: a + b, key=lambda: 0)\n",
        "if a:\n  if b:\n    pass\n  else:\n    c = 1\n",
        "def outer(x):\n  def inner(y):\n    return y * y\n"
        "  return inner(x)\n"));

TEST(PrettyPrinter, MatchesAppendixShape) {
  auto module = ParseStr("a = b\n");
  std::string out = Fmt(module);
  EXPECT_NE(out.find("Module:"), std::string::npos);
  EXPECT_NE(out.find("Assign:"), std::string::npos);
  EXPECT_NE(out.find("id=\"a\""), std::string::npos);
  EXPECT_NE(out.find("id=\"b\""), std::string::npos);
}

TEST(Templates, ReplaceSymbolsExprsAndBodies) {
  // The Appendix C example.
  auto body = templates::Replace(R"(
    def fn(args):
      body
  )", {{"fn", templates::Replacement("my_function")},
       {"args", templates::Replacement(
                    std::vector<std::string>{"x", "y"})},
       {"body", templates::Replacement(
                    ParseStr("a = x\nb = y\nreturn a + b\n")->body)}});
  std::string out = AstToSource(body);
  EXPECT_EQ(out,
            "def my_function(x, y):\n  a = x\n  b = y\n  return a + b\n");
}

TEST(Templates, ExprReplacementClones) {
  ExprPtr payload = Cast<ExprStmt>(ParseStr("p + q\n")->body[0])->value;
  auto stmts = templates::Replace("x = e + e\n",
                                  {{"e", templates::Replacement(payload)}});
  EXPECT_EQ(AstToSource(stmts), "x = p + q + (p + q)\n");
}

TEST(Templates, ErrorsOnMisuse) {
  // Statement list in expression position.
  EXPECT_THROW(
      (void)templates::Replace(
          "x = body\n",
          {{"body",
            templates::Replacement(ParseStr("a = 1\n")->body)}}),
      Error);
  // Invalid symbol name in symbol position.
  EXPECT_THROW((void)templates::Replace(
                   "def fn(x):\n  return x\n",
                   {{"fn", templates::Replacement("not valid!")}}),
               Error);
}

TEST(SourceMap, MapsGeneratedLinesToOrigins) {
  ModulePtr m = ParseStr("x = 1\ny = 2\n", "user.py");
  SourceMap map;
  std::string out = AstToSource(m, &map);
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at(1).filename, "user.py");
  EXPECT_EQ(map.at(1).line, 1);
  EXPECT_EQ(map.at(2).line, 2);
}

TEST(Strings, Dedent) {
  EXPECT_EQ(Dedent("  a\n    b\n  c"), "a\n  b\nc");
  EXPECT_EQ(Dedent("\n    x\n"), "\nx\n");
}

// The tools' flag parsers: on bad input one usage line on stderr, prefixed
// with the tool's name, and `out` untouched.
std::string IntFlagError(std::string_view text, int64_t min_value) {
  int64_t out = -7;
  testing::internal::CaptureStderr();
  const bool ok = ParseIntFlag("agtool", "--runs", text, min_value, &out);
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(ok) << text;
  EXPECT_EQ(out, -7) << text;
  return err;
}

TEST(Strings, ParseIntFlagAcceptsWholeIntegersAtOrAboveTheMinimum) {
  int64_t out = 0;
  EXPECT_TRUE(ParseIntFlag("agtool", "--runs", "10", 1, &out));
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(ParseIntFlag("agtool", "--port", "0", 0, &out));
  EXPECT_EQ(out, 0);
}

TEST(Strings, ParseIntFlagRejectsMalformedEmptyAndBelowMinimum) {
  EXPECT_EQ(IntFlagError("abc", 1),
            "agtool: --runs expects an integer >= 1, got 'abc'\n");
  EXPECT_EQ(IntFlagError("10x", 1),
            "agtool: --runs expects an integer >= 1, got '10x'\n");
  EXPECT_EQ(IntFlagError("", 1),
            "agtool: --runs expects an integer >= 1, got ''\n");
  EXPECT_EQ(IntFlagError("0", 1),
            "agtool: --runs expects an integer >= 1, got '0'\n");
  EXPECT_EQ(IntFlagError("-1", 0),
            "agtool: --runs expects an integer >= 0, got '-1'\n");
  EXPECT_EQ(IntFlagError("99999999999999999999", 1),
            "agtool: --runs expects an integer >= 1, "
            "got '99999999999999999999'\n");
}

TEST(Strings, ParseFeedsReadsCommaSeparatedFloats) {
  std::vector<float> out = {9.0f};
  EXPECT_TRUE(ParseFeeds("agtool", "1.0,2.5,-3", &out));
  EXPECT_EQ(out, (std::vector<float>{1.0f, 2.5f, -3.0f}));
}

TEST(Strings, ParseFeedsRejectsMalformedAndEmptyInput) {
  std::vector<float> out;
  for (const auto& [spec, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"1.0,x", "agtool: --feeds expects comma-separated floats, "
                     "got 'x'\n"},
           {"1.0,,2", "agtool: --feeds expects comma-separated floats, "
                      "got ''\n"},
           {"2.5y", "agtool: --feeds expects comma-separated floats, "
                    "got '2.5y'\n"},
           {"", "agtool: --feeds given but no values parsed\n"}}) {
    testing::internal::CaptureStderr();
    EXPECT_FALSE(ParseFeeds("agtool", spec, &out)) << spec;
    EXPECT_EQ(testing::internal::GetCapturedStderr(), message) << spec;
  }
}

}  // namespace
}  // namespace ag::lang
