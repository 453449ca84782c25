#ifndef NODB_EXPR_EXPR_H_
#define NODB_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "types/value.h"

namespace nodb {

enum class ExprKind : uint8_t {
  kColumnRef,
  kLiteral,
  kComparison,
  kLogical,
  kArithmetic,
  kInList,
  kLike,
  kCase,
  kIsNull,
  kCast,
  kAggregateRef,
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicalOp : uint8_t { kAnd, kOr, kNot };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

std::string_view CompareOpToString(CompareOp op);
std::string_view ArithOpToString(ArithOp op);

/// Bound (analyzed) expression tree node. Column references are flat indices
/// into the executor's working row, so the same tree evaluates against scan
/// output, join output (concatenated rows) or aggregate output. SQL
/// three-valued NULL semantics are implemented by the evaluator.
struct Expr {
  ExprKind kind;
  TypeId type;  // result type

  Expr(ExprKind k, TypeId t) : kind(k), type(t) {}
  virtual ~Expr() = default;

  /// Debug / EXPLAIN rendering.
  virtual std::string ToString() const = 0;

  /// Adds every referenced working-row column index to `out`.
  virtual void CollectColumns(std::vector<int>* out) const = 0;
};

using ExprPtr = std::unique_ptr<Expr>;

struct ColumnRefExpr final : Expr {
  int index;         // flat index into the working row
  std::string name;  // for display

  ColumnRefExpr(int idx, TypeId t, std::string display_name)
      : Expr(ExprKind::kColumnRef, t), index(idx),
        name(std::move(display_name)) {}
  /// Includes the flat index so structural comparison via ToString is
  /// unambiguous even when two tables share a column name.
  std::string ToString() const override {
    return name + "@" + std::to_string(index);
  }
  void CollectColumns(std::vector<int>* out) const override {
    out->push_back(index);
  }
};

struct LiteralExpr final : Expr {
  Value value;

  explicit LiteralExpr(Value v) : Expr(ExprKind::kLiteral, v.type()),
                                  value(std::move(v)) {}
  std::string ToString() const override { return value.ToString(); }
  void CollectColumns(std::vector<int>*) const override {}
};

struct ComparisonExpr final : Expr {
  CompareOp op;
  ExprPtr left;
  ExprPtr right;

  ComparisonExpr(CompareOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kComparison, TypeId::kBool), op(o), left(std::move(l)),
        right(std::move(r)) {}
  std::string ToString() const override;
  void CollectColumns(std::vector<int>* out) const override {
    left->CollectColumns(out);
    right->CollectColumns(out);
  }
};

struct LogicalExpr final : Expr {
  LogicalOp op;
  ExprPtr left;
  ExprPtr right;  // null for NOT

  LogicalExpr(LogicalOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kLogical, TypeId::kBool), op(o), left(std::move(l)),
        right(std::move(r)) {}
  std::string ToString() const override;
  void CollectColumns(std::vector<int>* out) const override {
    left->CollectColumns(out);
    if (right != nullptr) right->CollectColumns(out);
  }
};

struct ArithmeticExpr final : Expr {
  ArithOp op;
  ExprPtr left;
  ExprPtr right;

  ArithmeticExpr(ArithOp o, TypeId result, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kArithmetic, result), op(o), left(std::move(l)),
        right(std::move(r)) {}
  std::string ToString() const override;
  void CollectColumns(std::vector<int>* out) const override {
    left->CollectColumns(out);
    right->CollectColumns(out);
  }
};

struct InListExpr final : Expr {
  ExprPtr input;
  std::vector<Value> items;
  bool negated;

  InListExpr(ExprPtr in, std::vector<Value> list, bool neg)
      : Expr(ExprKind::kInList, TypeId::kBool), input(std::move(in)),
        items(std::move(list)), negated(neg) {}
  std::string ToString() const override;
  void CollectColumns(std::vector<int>* out) const override {
    input->CollectColumns(out);
  }
};

struct LikeExpr final : Expr {
  ExprPtr input;
  std::string pattern;
  bool negated;

  LikeExpr(ExprPtr in, std::string pat, bool neg)
      : Expr(ExprKind::kLike, TypeId::kBool), input(std::move(in)),
        pattern(std::move(pat)), negated(neg) {}
  std::string ToString() const override;
  void CollectColumns(std::vector<int>* out) const override {
    input->CollectColumns(out);
  }
};

struct CaseExpr final : Expr {
  struct WhenClause {
    ExprPtr condition;
    ExprPtr result;
  };
  std::vector<WhenClause> whens;
  ExprPtr else_result;  // may be null => NULL

  CaseExpr(TypeId result, std::vector<WhenClause> when_clauses, ExprPtr els)
      : Expr(ExprKind::kCase, result), whens(std::move(when_clauses)),
        else_result(std::move(els)) {}
  std::string ToString() const override;
  void CollectColumns(std::vector<int>* out) const override {
    for (const WhenClause& w : whens) {
      w.condition->CollectColumns(out);
      w.result->CollectColumns(out);
    }
    if (else_result != nullptr) else_result->CollectColumns(out);
  }
};

struct IsNullExpr final : Expr {
  ExprPtr input;
  bool negated;  // IS NOT NULL

  IsNullExpr(ExprPtr in, bool neg)
      : Expr(ExprKind::kIsNull, TypeId::kBool), input(std::move(in)),
        negated(neg) {}
  std::string ToString() const override;
  void CollectColumns(std::vector<int>* out) const override {
    input->CollectColumns(out);
  }
};

struct CastExpr final : Expr {
  ExprPtr input;

  CastExpr(TypeId target, ExprPtr in)
      : Expr(ExprKind::kCast, target), input(std::move(in)) {}
  std::string ToString() const override;
  void CollectColumns(std::vector<int>* out) const override {
    input->CollectColumns(out);
  }
};

/// Structural equality of two trees: same kinds, operators and result types,
/// same column indices (display names are ignored), literal and IN-list
/// values equal in type and payload, same LIKE patterns and negations, and
/// equal children. Unlike comparing ToString() renderings, which print string
/// literals unquoted, `s IN ('a', 'b')` and `s IN ('a, b')` stay distinct.
bool SameExpr(const Expr& a, const Expr& b);

/// Reference to the output slot of an aggregation operator; appears only in
/// post-aggregation expressions (SELECT list / HAVING above a group-by).
struct AggregateRefExpr final : Expr {
  int agg_index;

  AggregateRefExpr(int idx, TypeId t)
      : Expr(ExprKind::kAggregateRef, t), agg_index(idx) {}
  std::string ToString() const override;
  void CollectColumns(std::vector<int>*) const override {}
};

}  // namespace nodb

#endif  // NODB_EXPR_EXPR_H_
