#include "expr/expr.h"

namespace nodb {

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string_view ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

std::string ComparisonExpr::ToString() const {
  return "(" + left->ToString() + " " + std::string(CompareOpToString(op)) +
         " " + right->ToString() + ")";
}

std::string LogicalExpr::ToString() const {
  if (op == LogicalOp::kNot) return "(NOT " + left->ToString() + ")";
  return "(" + left->ToString() +
         (op == LogicalOp::kAnd ? " AND " : " OR ") + right->ToString() + ")";
}

std::string ArithmeticExpr::ToString() const {
  return "(" + left->ToString() + " " + std::string(ArithOpToString(op)) +
         " " + right->ToString() + ")";
}

std::string InListExpr::ToString() const {
  std::string out = input->ToString();
  out += negated ? " NOT IN (" : " IN (";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i].ToString();
  }
  out += ")";
  return out;
}

std::string LikeExpr::ToString() const {
  return input->ToString() + (negated ? " NOT LIKE '" : " LIKE '") + pattern +
         "'";
}

std::string CaseExpr::ToString() const {
  std::string out = "CASE";
  for (const WhenClause& w : whens) {
    out += " WHEN " + w.condition->ToString() + " THEN " +
           w.result->ToString();
  }
  if (else_result != nullptr) out += " ELSE " + else_result->ToString();
  out += " END";
  return out;
}

std::string IsNullExpr::ToString() const {
  return input->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
}

std::string CastExpr::ToString() const {
  return "CAST(" + input->ToString() + " AS " +
         std::string(TypeIdToString(type)) + ")";
}

std::string AggregateRefExpr::ToString() const {
  return "agg#" + std::to_string(agg_index);
}

namespace {

bool SameChild(const ExprPtr& a, const ExprPtr& b) {
  if (a == nullptr || b == nullptr) return a == b;
  return SameExpr(*a, *b);
}

}  // namespace

bool SameExpr(const Expr& a, const Expr& b) {
  if (a.kind != b.kind || a.type != b.type) return false;
  switch (a.kind) {
    case ExprKind::kColumnRef:
      return static_cast<const ColumnRefExpr&>(a).index ==
             static_cast<const ColumnRefExpr&>(b).index;
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(a).value ==
             static_cast<const LiteralExpr&>(b).value;
    case ExprKind::kComparison: {
      const auto& x = static_cast<const ComparisonExpr&>(a);
      const auto& y = static_cast<const ComparisonExpr&>(b);
      return x.op == y.op && SameChild(x.left, y.left) &&
             SameChild(x.right, y.right);
    }
    case ExprKind::kLogical: {
      const auto& x = static_cast<const LogicalExpr&>(a);
      const auto& y = static_cast<const LogicalExpr&>(b);
      return x.op == y.op && SameChild(x.left, y.left) &&
             SameChild(x.right, y.right);
    }
    case ExprKind::kArithmetic: {
      const auto& x = static_cast<const ArithmeticExpr&>(a);
      const auto& y = static_cast<const ArithmeticExpr&>(b);
      return x.op == y.op && SameChild(x.left, y.left) &&
             SameChild(x.right, y.right);
    }
    case ExprKind::kInList: {
      const auto& x = static_cast<const InListExpr&>(a);
      const auto& y = static_cast<const InListExpr&>(b);
      return x.negated == y.negated && x.items == y.items &&
             SameChild(x.input, y.input);
    }
    case ExprKind::kLike: {
      const auto& x = static_cast<const LikeExpr&>(a);
      const auto& y = static_cast<const LikeExpr&>(b);
      return x.negated == y.negated && x.pattern == y.pattern &&
             SameChild(x.input, y.input);
    }
    case ExprKind::kCase: {
      const auto& x = static_cast<const CaseExpr&>(a);
      const auto& y = static_cast<const CaseExpr&>(b);
      if (x.whens.size() != y.whens.size()) return false;
      for (size_t i = 0; i < x.whens.size(); ++i) {
        if (!SameChild(x.whens[i].condition, y.whens[i].condition) ||
            !SameChild(x.whens[i].result, y.whens[i].result)) {
          return false;
        }
      }
      return SameChild(x.else_result, y.else_result);
    }
    case ExprKind::kIsNull: {
      const auto& x = static_cast<const IsNullExpr&>(a);
      const auto& y = static_cast<const IsNullExpr&>(b);
      return x.negated == y.negated && SameChild(x.input, y.input);
    }
    case ExprKind::kCast:
      return SameChild(static_cast<const CastExpr&>(a).input,
                       static_cast<const CastExpr&>(b).input);
    case ExprKind::kAggregateRef:
      return static_cast<const AggregateRefExpr&>(a).agg_index ==
             static_cast<const AggregateRefExpr&>(b).agg_index;
  }
  return false;
}

}  // namespace nodb
