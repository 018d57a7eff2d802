// Abstract syntax tree for PyMini.
//
// Nodes are held by shared_ptr. Analyses attach annotations keyed by node
// pointer identity, so transforms that *replace* nodes must re-run the
// analyses (each conversion pass analyzes its own input, mirroring
// AutoGraph, where "each pass [consists] of static analysis [then] AST
// transformations").
//
// Every node carries two locations:
//   - `loc`: where the node sits in the text it was parsed from;
//   - `origin`: the location in the user's ORIGINAL source that this node
//     descends from. Transforms propagate `origin`, giving the source map
//     used for error rewriting (paper Appendix B).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/error.h"

namespace ag::lang {

struct Expr;
struct Stmt;
using ExprPtr = std::shared_ptr<Expr>;
using StmtPtr = std::shared_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

enum class ExprKind : std::uint8_t {
  kName,
  kNumber,
  kString,
  kBool,
  kNone,
  kTuple,
  kList,
  kAttribute,
  kSubscript,
  kCall,
  kUnary,
  kBinary,
  kCompare,
  kBoolOp,
  kIfExp,
  kLambda,
};

enum class StmtKind : std::uint8_t {
  kFunctionDef,
  kReturn,
  kAssign,
  kAugAssign,
  kExprStmt,
  kIf,
  kWhile,
  kFor,
  kBreak,
  kContinue,
  kPass,
  kAssert,
};

enum class UnaryOp : std::uint8_t { kNot, kNeg, kPos };
enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kFloorDiv, kMod, kPow,
};
enum class CompareOp : std::uint8_t { kLt, kLe, kGt, kGe, kEq, kNe, kIn, kNotIn };
enum class BoolOp : std::uint8_t { kAnd, kOr };

[[nodiscard]] const char* BinaryOpSymbol(BinaryOp op);
[[nodiscard]] const char* CompareOpSymbol(CompareOp op);
[[nodiscard]] const char* UnaryOpSymbol(UnaryOp op);

struct Node {
  SourceLocation loc;
  SourceLocation origin;

  virtual ~Node() = default;

 protected:
  Node() = default;
};

// ----------------------------------------------------------------------
// Expressions
// ----------------------------------------------------------------------

struct Expr : Node {
  explicit Expr(ExprKind k) : kind(k) {}
  ExprKind kind;
};

struct NameExpr final : Expr {
  explicit NameExpr(std::string id_in)
      : Expr(ExprKind::kName), id(std::move(id_in)) {}
  std::string id;
};

struct NumberExpr final : Expr {
  NumberExpr(double v, bool is_int_in)
      : Expr(ExprKind::kNumber), value(v), is_int(is_int_in) {}
  double value;
  bool is_int;
};

struct StringExpr final : Expr {
  explicit StringExpr(std::string v)
      : Expr(ExprKind::kString), value(std::move(v)) {}
  std::string value;
};

struct BoolExpr final : Expr {
  explicit BoolExpr(bool v) : Expr(ExprKind::kBool), value(v) {}
  bool value;
};

struct NoneExpr final : Expr {
  NoneExpr() : Expr(ExprKind::kNone) {}
};

struct TupleExpr final : Expr {
  explicit TupleExpr(std::vector<ExprPtr> elts_in)
      : Expr(ExprKind::kTuple), elts(std::move(elts_in)) {}
  std::vector<ExprPtr> elts;
};

struct ListExpr final : Expr {
  explicit ListExpr(std::vector<ExprPtr> elts_in)
      : Expr(ExprKind::kList), elts(std::move(elts_in)) {}
  std::vector<ExprPtr> elts;
};

struct AttributeExpr final : Expr {
  AttributeExpr(ExprPtr value_in, std::string attr_in)
      : Expr(ExprKind::kAttribute),
        value(std::move(value_in)),
        attr(std::move(attr_in)) {}
  ExprPtr value;
  std::string attr;
};

struct SubscriptExpr final : Expr {
  SubscriptExpr(ExprPtr value_in, ExprPtr index_in)
      : Expr(ExprKind::kSubscript),
        value(std::move(value_in)),
        index(std::move(index_in)) {}
  ExprPtr value;
  ExprPtr index;
};

struct Keyword {
  std::string name;
  ExprPtr value;
};

struct CallExpr final : Expr {
  CallExpr(ExprPtr func_in, std::vector<ExprPtr> args_in,
           std::vector<Keyword> keywords_in = {})
      : Expr(ExprKind::kCall),
        func(std::move(func_in)),
        args(std::move(args_in)),
        keywords(std::move(keywords_in)) {}
  ExprPtr func;
  std::vector<ExprPtr> args;
  std::vector<Keyword> keywords;
};

struct UnaryExpr final : Expr {
  UnaryExpr(UnaryOp op_in, ExprPtr operand_in)
      : Expr(ExprKind::kUnary), op(op_in), operand(std::move(operand_in)) {}
  UnaryOp op;
  ExprPtr operand;
};

struct BinaryExpr final : Expr {
  BinaryExpr(BinaryOp op_in, ExprPtr left_in, ExprPtr right_in)
      : Expr(ExprKind::kBinary),
        op(op_in),
        left(std::move(left_in)),
        right(std::move(right_in)) {}
  BinaryOp op;
  ExprPtr left;
  ExprPtr right;
};

struct CompareExpr final : Expr {
  CompareExpr(CompareOp op_in, ExprPtr left_in, ExprPtr right_in)
      : Expr(ExprKind::kCompare),
        op(op_in),
        left(std::move(left_in)),
        right(std::move(right_in)) {}
  CompareOp op;
  ExprPtr left;
  ExprPtr right;
};

struct BoolOpExpr final : Expr {
  BoolOpExpr(BoolOp op_in, ExprPtr left_in, ExprPtr right_in)
      : Expr(ExprKind::kBoolOp),
        op(op_in),
        left(std::move(left_in)),
        right(std::move(right_in)) {}
  BoolOp op;
  ExprPtr left;
  ExprPtr right;
};

// `body if test else orelse`
struct IfExpExpr final : Expr {
  IfExpExpr(ExprPtr test_in, ExprPtr body_in, ExprPtr orelse_in)
      : Expr(ExprKind::kIfExp),
        test(std::move(test_in)),
        body(std::move(body_in)),
        orelse(std::move(orelse_in)) {}
  ExprPtr test;
  ExprPtr body;
  ExprPtr orelse;
};

struct LambdaExpr final : Expr {
  LambdaExpr(std::vector<std::string> params_in, ExprPtr body_in)
      : Expr(ExprKind::kLambda),
        params(std::move(params_in)),
        body(std::move(body_in)) {}
  std::vector<std::string> params;
  ExprPtr body;
};

// ----------------------------------------------------------------------
// Statements
// ----------------------------------------------------------------------

struct Stmt : Node {
  explicit Stmt(StmtKind k) : kind(k) {}
  StmtKind kind;
};

struct FunctionDefStmt final : Stmt {
  FunctionDefStmt(std::string name_in, std::vector<std::string> params_in,
                  StmtList body_in)
      : Stmt(StmtKind::kFunctionDef),
        name(std::move(name_in)),
        params(std::move(params_in)),
        body(std::move(body_in)) {}
  std::string name;
  std::vector<std::string> params;
  // Default values, right-aligned against params (Python semantics);
  // empty when the function has no defaults.
  std::vector<ExprPtr> defaults;
  StmtList body;
  // Decorator names, e.g. {"ag.convert"}; recorded but not executed.
  std::vector<std::string> decorators;
};

struct ReturnStmt final : Stmt {
  explicit ReturnStmt(ExprPtr value_in)
      : Stmt(StmtKind::kReturn), value(std::move(value_in)) {}
  ExprPtr value;  // may be null (bare `return`)
};

struct AssignStmt final : Stmt {
  AssignStmt(ExprPtr target_in, ExprPtr value_in)
      : Stmt(StmtKind::kAssign),
        target(std::move(target_in)),
        value(std::move(value_in)) {}
  ExprPtr target;  // Name, Tuple of targets, Attribute, or Subscript
  ExprPtr value;
};

struct AugAssignStmt final : Stmt {
  AugAssignStmt(BinaryOp op_in, ExprPtr target_in, ExprPtr value_in)
      : Stmt(StmtKind::kAugAssign),
        op(op_in),
        target(std::move(target_in)),
        value(std::move(value_in)) {}
  BinaryOp op;
  ExprPtr target;
  ExprPtr value;
};

struct ExprStmt final : Stmt {
  explicit ExprStmt(ExprPtr value_in)
      : Stmt(StmtKind::kExprStmt), value(std::move(value_in)) {}
  ExprPtr value;
};

struct IfStmt final : Stmt {
  IfStmt(ExprPtr test_in, StmtList body_in, StmtList orelse_in)
      : Stmt(StmtKind::kIf),
        test(std::move(test_in)),
        body(std::move(body_in)),
        orelse(std::move(orelse_in)) {}
  ExprPtr test;
  StmtList body;
  StmtList orelse;  // empty, or a single IfStmt for elif chains
};

struct WhileStmt final : Stmt {
  WhileStmt(ExprPtr test_in, StmtList body_in)
      : Stmt(StmtKind::kWhile), test(std::move(test_in)),
        body(std::move(body_in)) {}
  ExprPtr test;
  StmtList body;
};

struct ForStmt final : Stmt {
  ForStmt(ExprPtr target_in, ExprPtr iter_in, StmtList body_in)
      : Stmt(StmtKind::kFor),
        target(std::move(target_in)),
        iter(std::move(iter_in)),
        body(std::move(body_in)) {}
  ExprPtr target;  // Name or Tuple of names
  ExprPtr iter;
  StmtList body;
};

struct BreakStmt final : Stmt {
  BreakStmt() : Stmt(StmtKind::kBreak) {}
};

struct ContinueStmt final : Stmt {
  ContinueStmt() : Stmt(StmtKind::kContinue) {}
};

struct PassStmt final : Stmt {
  PassStmt() : Stmt(StmtKind::kPass) {}
};

struct AssertStmt final : Stmt {
  AssertStmt(ExprPtr test_in, ExprPtr msg_in)
      : Stmt(StmtKind::kAssert),
        test(std::move(test_in)),
        msg(std::move(msg_in)) {}
  ExprPtr test;
  ExprPtr msg;  // may be null
};

// A parsed source buffer (sequence of top-level statements).
struct Module {
  StmtList body;
  std::string filename;
};
using ModulePtr = std::shared_ptr<Module>;

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

// Typed downcasts (no RTTI cost beyond the kind check in debug intent).
template <typename T>
[[nodiscard]] std::shared_ptr<T> Cast(const ExprPtr& e) {
  return std::static_pointer_cast<T>(e);
}
template <typename T>
[[nodiscard]] std::shared_ptr<T> Cast(const StmtPtr& s) {
  return std::static_pointer_cast<T>(s);
}

// Deep copies (annotations are not copied; locations are).
[[nodiscard]] ExprPtr CloneExpr(const ExprPtr& e);
[[nodiscard]] StmtPtr CloneStmt(const StmtPtr& s);
[[nodiscard]] StmtList CloneBody(const StmtList& body);

// Node factories that stamp `origin` from a template node.
[[nodiscard]] ExprPtr MakeName(const std::string& id,
                               const Node* origin_of = nullptr);
[[nodiscard]] ExprPtr MakeAttr(ExprPtr value, const std::string& attr);
[[nodiscard]] ExprPtr MakeCall(ExprPtr func, std::vector<ExprPtr> args,
                               std::vector<Keyword> keywords = {});
// Builds a (possibly dotted) name like "ag.if_stmt".
[[nodiscard]] ExprPtr MakeDottedName(const std::string& dotted);

// Renders the "qualified name" of an expression if it is a Name or a chain
// of Attribute accesses over a Name (paper's Qualified Name Resolution);
// returns nullopt otherwise.
[[nodiscard]] std::optional<std::string> QualifiedName(const ExprPtr& e);

}  // namespace ag::lang
