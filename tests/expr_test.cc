#include <gtest/gtest.h>

#include "expr/aggregates.h"
#include "expr/evaluator.h"
#include "expr/expr.h"
#include "expr/like.h"

namespace nodb {
namespace {

ExprPtr Col(int i, TypeId t) {
  return std::make_unique<ColumnRefExpr>(i, t, "c" + std::to_string(i));
}
ExprPtr Lit(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<ComparisonExpr>(op, std::move(l), std::move(r));
}
ExprPtr Arith(ArithOp op, TypeId t, ExprPtr l, ExprPtr r) {
  return std::make_unique<ArithmeticExpr>(op, t, std::move(l), std::move(r));
}

Value Eval(const Expr& e, const Row& row) {
  auto result = Evaluator::Eval(e, row);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? *result : Value();
}

// ---------------------------------------------------------------------
// LIKE
// ---------------------------------------------------------------------

TEST(LikeTest, LiteralMatch) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_FALSE(LikeMatch("hello", "hell"));
  EXPECT_FALSE(LikeMatch("hell", "hello"));
}

TEST(LikeTest, PercentWildcard) {
  EXPECT_TRUE(LikeMatch("PROMO BRUSHED TIN", "PROMO%"));
  EXPECT_FALSE(LikeMatch("STANDARD BRUSHED TIN", "PROMO%"));
  EXPECT_TRUE(LikeMatch("abcdef", "%def"));
  EXPECT_TRUE(LikeMatch("abcdef", "%cd%"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_TRUE(LikeMatch("aXbXc", "a%b%c"));
  EXPECT_FALSE(LikeMatch("ab", "a%bc"));
}

TEST(LikeTest, UnderscoreWildcard) {
  EXPECT_TRUE(LikeMatch("cat", "c_t"));
  EXPECT_FALSE(LikeMatch("caat", "c_t"));
  EXPECT_TRUE(LikeMatch("abc", "___"));
  EXPECT_FALSE(LikeMatch("ab", "___"));
}

TEST(LikeTest, Backtracking) {
  EXPECT_TRUE(LikeMatch("aaab", "%ab"));
  EXPECT_TRUE(LikeMatch("mississippi", "%iss%ppi"));
  EXPECT_FALSE(LikeMatch("mississippi", "%issx%"));
}

// ---------------------------------------------------------------------
// Evaluator: comparisons & logic
// ---------------------------------------------------------------------

TEST(EvaluatorTest, Comparisons) {
  Row row = {Value::Int64(5)};
  EXPECT_TRUE(Eval(*Cmp(CompareOp::kEq, Col(0, TypeId::kInt64),
                        Lit(Value::Int64(5))),
                   row)
                  .boolean());
  EXPECT_TRUE(Eval(*Cmp(CompareOp::kLt, Col(0, TypeId::kInt64),
                        Lit(Value::Double(5.5))),
                   row)
                  .boolean());
  EXPECT_FALSE(Eval(*Cmp(CompareOp::kGe, Col(0, TypeId::kInt64),
                         Lit(Value::Int64(6))),
                    row)
                   .boolean());
}

TEST(EvaluatorTest, NullComparisonsYieldNull) {
  Row row = {Value::Null(TypeId::kInt64)};
  Value v = Eval(*Cmp(CompareOp::kEq, Col(0, TypeId::kInt64),
                      Lit(Value::Int64(1))),
                 row);
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(Evaluator::IsTruthy(v));  // WHERE treats NULL as false
}

TEST(EvaluatorTest, KleeneAndOr) {
  auto make_logical = [](LogicalOp op, Value l, Value r) {
    LogicalExpr e(op, Lit(std::move(l)), Lit(std::move(r)));
    return Eval(e, {});
  };
  // NULL AND false = false; NULL AND true = NULL.
  EXPECT_FALSE(make_logical(LogicalOp::kAnd, Value::Null(TypeId::kBool),
                            Value::Bool(false))
                   .boolean());
  EXPECT_TRUE(make_logical(LogicalOp::kAnd, Value::Null(TypeId::kBool),
                           Value::Bool(true))
                  .is_null());
  // NULL OR true = true; NULL OR false = NULL.
  EXPECT_TRUE(make_logical(LogicalOp::kOr, Value::Null(TypeId::kBool),
                           Value::Bool(true))
                  .boolean());
  EXPECT_TRUE(make_logical(LogicalOp::kOr, Value::Null(TypeId::kBool),
                           Value::Bool(false))
                  .is_null());
}

TEST(EvaluatorTest, NotOperator) {
  LogicalExpr e(LogicalOp::kNot, Lit(Value::Bool(false)), nullptr);
  EXPECT_TRUE(Eval(e, {}).boolean());
  LogicalExpr n(LogicalOp::kNot, Lit(Value::Null(TypeId::kBool)), nullptr);
  EXPECT_TRUE(Eval(n, {}).is_null());
}

// ---------------------------------------------------------------------
// Evaluator: arithmetic
// ---------------------------------------------------------------------

TEST(EvaluatorTest, IntegerArithmetic) {
  Row row = {Value::Int64(7), Value::Int64(3)};
  EXPECT_EQ(Eval(*Arith(ArithOp::kAdd, TypeId::kInt64, Col(0, TypeId::kInt64),
                        Col(1, TypeId::kInt64)),
                 row)
                .int64(),
            10);
  EXPECT_EQ(Eval(*Arith(ArithOp::kDiv, TypeId::kInt64, Col(0, TypeId::kInt64),
                        Col(1, TypeId::kInt64)),
                 row)
                .int64(),
            2);  // integer division
}

TEST(EvaluatorTest, DoublePromotion) {
  Row row = {Value::Int64(7)};
  Value v = Eval(*Arith(ArithOp::kMul, TypeId::kDouble,
                        Col(0, TypeId::kInt64), Lit(Value::Double(0.5))),
                 row);
  EXPECT_EQ(v.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(v.f64(), 3.5);
}

TEST(EvaluatorTest, DivisionByZeroIsError) {
  ArithmeticExpr e(ArithOp::kDiv, TypeId::kInt64, Lit(Value::Int64(1)),
                   Lit(Value::Int64(0)));
  EXPECT_FALSE(Evaluator::Eval(e, {}).ok());
}

TEST(EvaluatorTest, DateArithmetic) {
  // date + days, date - days, date - date.
  ArithmeticExpr plus(ArithOp::kAdd, TypeId::kDate, Lit(Value::Date(100)),
                      Lit(Value::Int64(5)));
  EXPECT_EQ(Eval(plus, {}).date(), 105);
  ArithmeticExpr minus(ArithOp::kSub, TypeId::kDate, Lit(Value::Date(100)),
                       Lit(Value::Int64(90)));
  EXPECT_EQ(Eval(minus, {}).date(), 10);
  ArithmeticExpr diff(ArithOp::kSub, TypeId::kInt64, Lit(Value::Date(100)),
                      Lit(Value::Date(60)));
  EXPECT_EQ(Eval(diff, {}).int64(), 40);
}

TEST(EvaluatorTest, NullPropagatesThroughArithmetic) {
  ArithmeticExpr e(ArithOp::kAdd, TypeId::kInt64, Lit(Value::Int64(1)),
                   Lit(Value::Null(TypeId::kInt64)));
  EXPECT_TRUE(Eval(e, {}).is_null());
}

// ---------------------------------------------------------------------
// Evaluator: IN / LIKE / CASE / IS NULL / CAST
// ---------------------------------------------------------------------

TEST(EvaluatorTest, InList) {
  InListExpr in(Col(0, TypeId::kString),
                {Value::String("MAIL"), Value::String("SHIP")}, false);
  EXPECT_TRUE(Eval(in, {Value::String("MAIL")}).boolean());
  EXPECT_FALSE(Eval(in, {Value::String("AIR")}).boolean());
  EXPECT_TRUE(Eval(in, {Value::Null(TypeId::kString)}).is_null());
  InListExpr not_in(Col(0, TypeId::kString), {Value::String("MAIL")}, true);
  EXPECT_TRUE(Eval(not_in, {Value::String("AIR")}).boolean());
}

TEST(EvaluatorTest, LikeExprWithNull) {
  LikeExpr like(Col(0, TypeId::kString), "PROMO%", false);
  EXPECT_TRUE(Eval(like, {Value::String("PROMO X")}).boolean());
  EXPECT_TRUE(Eval(like, {Value::Null(TypeId::kString)}).is_null());
  LikeExpr not_like(Col(0, TypeId::kString), "PROMO%", true);
  EXPECT_TRUE(Eval(not_like, {Value::String("BASIC")}).boolean());
}

TEST(EvaluatorTest, CaseSearched) {
  // CASE WHEN c0 = 1 THEN 10 WHEN c0 = 2 THEN 20 ELSE 0 END
  std::vector<CaseExpr::WhenClause> whens;
  whens.push_back({Cmp(CompareOp::kEq, Col(0, TypeId::kInt64),
                       Lit(Value::Int64(1))),
                   Lit(Value::Int64(10))});
  whens.push_back({Cmp(CompareOp::kEq, Col(0, TypeId::kInt64),
                       Lit(Value::Int64(2))),
                   Lit(Value::Int64(20))});
  CaseExpr c(TypeId::kInt64, std::move(whens), Lit(Value::Int64(0)));
  EXPECT_EQ(Eval(c, {Value::Int64(1)}).int64(), 10);
  EXPECT_EQ(Eval(c, {Value::Int64(2)}).int64(), 20);
  EXPECT_EQ(Eval(c, {Value::Int64(9)}).int64(), 0);
}

TEST(EvaluatorTest, CaseWithoutElseIsNull) {
  std::vector<CaseExpr::WhenClause> whens;
  whens.push_back({Lit(Value::Bool(false)), Lit(Value::Int64(1))});
  CaseExpr c(TypeId::kInt64, std::move(whens), nullptr);
  EXPECT_TRUE(Eval(c, {}).is_null());
}

TEST(EvaluatorTest, CaseCoercesResultType) {
  // THEN returns int but the CASE is typed double (SUM(CASE...) in Q14).
  std::vector<CaseExpr::WhenClause> whens;
  whens.push_back({Lit(Value::Bool(true)), Lit(Value::Int64(3))});
  CaseExpr c(TypeId::kDouble, std::move(whens), nullptr);
  Value v = Eval(c, {});
  EXPECT_EQ(v.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(v.f64(), 3.0);
}

TEST(EvaluatorTest, IsNull) {
  IsNullExpr is_null(Col(0, TypeId::kInt64), false);
  EXPECT_TRUE(Eval(is_null, {Value::Null(TypeId::kInt64)}).boolean());
  EXPECT_FALSE(Eval(is_null, {Value::Int64(1)}).boolean());
  IsNullExpr not_null(Col(0, TypeId::kInt64), true);
  EXPECT_TRUE(Eval(not_null, {Value::Int64(1)}).boolean());
}

TEST(EvaluatorTest, Casts) {
  CastExpr to_double(TypeId::kDouble, Lit(Value::Int64(3)));
  EXPECT_DOUBLE_EQ(Eval(to_double, {}).f64(), 3.0);
  CastExpr to_string(TypeId::kString, Lit(Value::Int64(42)));
  EXPECT_EQ(Eval(to_string, {}).str(), "42");
  CastExpr to_int(TypeId::kInt64, Lit(Value::String("17")));
  EXPECT_EQ(Eval(to_int, {}).int64(), 17);
  CastExpr bad(TypeId::kInt64, Lit(Value::String("xyz")));
  EXPECT_FALSE(Evaluator::Eval(bad, {}).ok());
}

TEST(ExprTest, CollectColumns) {
  auto e = Arith(ArithOp::kMul, TypeId::kDouble, Col(4, TypeId::kDouble),
                 Arith(ArithOp::kSub, TypeId::kDouble, Lit(Value::Double(1)),
                       Col(6, TypeId::kDouble)));
  std::vector<int> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<int>{4, 6}));
}

TEST(ExprTest, ToStringRendering) {
  auto e = Cmp(CompareOp::kLe, Col(0, TypeId::kInt64), Lit(Value::Int64(9)));
  EXPECT_EQ(e->ToString(), "(c0@0 <= 9)");
}

TEST(ExprTest, SameExprIsStructural) {
  auto in = [](std::vector<Value> items) {
    return std::make_unique<InListExpr>(Col(1, TypeId::kString),
                                        std::move(items), false);
  };
  auto ab = in({Value::String("a"), Value::String("b")});
  auto joined = in({Value::String("a, b")});
  EXPECT_EQ(ab->ToString(), joined->ToString());  // they render alike
  EXPECT_FALSE(SameExpr(*ab, *joined));
  EXPECT_TRUE(SameExpr(*ab, *in({Value::String("a"), Value::String("b")})));

  // Literal types count; display names do not.
  auto le9 = Cmp(CompareOp::kLe, Col(0, TypeId::kInt64), Lit(Value::Int64(9)));
  EXPECT_FALSE(SameExpr(*le9, *Cmp(CompareOp::kLe, Col(0, TypeId::kInt64),
                                   Lit(Value::Double(9)))));
  EXPECT_FALSE(SameExpr(*le9, *Cmp(CompareOp::kLt, Col(0, TypeId::kInt64),
                                   Lit(Value::Int64(9)))));
  EXPECT_FALSE(SameExpr(*le9, *Cmp(CompareOp::kLe, Col(2, TypeId::kInt64),
                                   Lit(Value::Int64(9)))));
  EXPECT_TRUE(SameExpr(
      *le9, *Cmp(CompareOp::kLe,
                 std::make_unique<ColumnRefExpr>(0, TypeId::kInt64, "other"),
                 Lit(Value::Int64(9)))));

  auto is_null = [](bool negated) {
    return std::make_unique<IsNullExpr>(Col(0, TypeId::kInt64), negated);
  };
  EXPECT_FALSE(SameExpr(*is_null(false), *is_null(true)));
  auto like = [](std::string pattern) {
    return std::make_unique<LikeExpr>(Col(1, TypeId::kString),
                                      std::move(pattern), false);
  };
  EXPECT_FALSE(SameExpr(*like("a%"), *like("a_")));
  EXPECT_TRUE(SameExpr(*like("a%"), *like("a%")));
}

// ---------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------

TEST(AggregatesTest, CountStarCountsNulls) {
  AggregateSpec spec{AggFunc::kCountStar, nullptr};
  AggAccumulator acc(&spec);
  acc.Add(Value::Null(TypeId::kInt64));
  acc.Add(Value::Int64(1));
  EXPECT_EQ(acc.Final().int64(), 2);
}

TEST(AggregatesTest, CountSkipsNulls) {
  AggregateSpec spec{AggFunc::kCount, Col(0, TypeId::kInt64)};
  AggAccumulator acc(&spec);
  acc.Add(Value::Null(TypeId::kInt64));
  acc.Add(Value::Int64(1));
  acc.Add(Value::Int64(2));
  EXPECT_EQ(acc.Final().int64(), 2);
}

TEST(AggregatesTest, SumIntAndDouble) {
  AggregateSpec int_spec{AggFunc::kSum, Col(0, TypeId::kInt64)};
  EXPECT_EQ(int_spec.ResultType(), TypeId::kInt64);
  AggAccumulator int_acc(&int_spec);
  int_acc.Add(Value::Int64(2));
  int_acc.Add(Value::Int64(3));
  EXPECT_EQ(int_acc.Final().int64(), 5);

  AggregateSpec dbl_spec{AggFunc::kSum, Col(0, TypeId::kDouble)};
  EXPECT_EQ(dbl_spec.ResultType(), TypeId::kDouble);
  AggAccumulator dbl_acc(&dbl_spec);
  dbl_acc.Add(Value::Double(0.5));
  dbl_acc.Add(Value::Double(0.25));
  EXPECT_DOUBLE_EQ(dbl_acc.Final().f64(), 0.75);
}

TEST(AggregatesTest, EmptySumIsNullEmptyCountIsZero) {
  AggregateSpec sum_spec{AggFunc::kSum, Col(0, TypeId::kInt64)};
  AggAccumulator sum_acc(&sum_spec);
  EXPECT_TRUE(sum_acc.Final().is_null());
  AggregateSpec count_spec{AggFunc::kCountStar, nullptr};
  AggAccumulator count_acc(&count_spec);
  EXPECT_EQ(count_acc.Final().int64(), 0);
}

TEST(AggregatesTest, AvgIgnoresNulls) {
  AggregateSpec spec{AggFunc::kAvg, Col(0, TypeId::kInt64)};
  AggAccumulator acc(&spec);
  acc.Add(Value::Int64(10));
  acc.Add(Value::Null(TypeId::kInt64));
  acc.Add(Value::Int64(20));
  EXPECT_DOUBLE_EQ(acc.Final().f64(), 15.0);
}

TEST(AggregatesTest, MinMaxStringsAndDates) {
  AggregateSpec min_spec{AggFunc::kMin, Col(0, TypeId::kString)};
  AggAccumulator min_acc(&min_spec);
  min_acc.Add(Value::String("pear"));
  min_acc.Add(Value::String("apple"));
  EXPECT_EQ(min_acc.Final().str(), "apple");

  AggregateSpec max_spec{AggFunc::kMax, Col(0, TypeId::kDate)};
  AggAccumulator max_acc(&max_spec);
  max_acc.Add(Value::Date(10));
  max_acc.Add(Value::Date(30));
  EXPECT_EQ(max_acc.Final().date(), 30);
}

}  // namespace
}  // namespace nodb
