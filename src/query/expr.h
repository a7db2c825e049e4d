// Scalar expressions over rows: column references, constants, comparisons,
// boolean connectives, and arithmetic. Serializable so that predicates can
// travel inside push-down plan fragments to the storage layer.

#ifndef VEDB_QUERY_EXPR_H_
#define VEDB_QUERY_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "engine/types.h"

namespace vedb::query {

using engine::Row;
using engine::Value;

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp : uint8_t { kAdd, kSub, kMul };

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Where a plan node's output columns went when it was pruned: old column
/// `c` is new column `map[c]`, or was dropped when `map[c]` is -1.
using ColumnMap = std::vector<int>;

class Expr {
 public:
  enum class Kind : uint8_t {
    kConst = 1,
    kCol = 2,
    kCmp = 3,
    kAnd = 4,
    kOr = 5,
    kNot = 6,
    kArith = 7,
  };

  static ExprPtr Const(Value v);
  /// References column `index` of the input row.
  static ExprPtr Col(int index);
  static ExprPtr Cmp(CmpOp op, ExprPtr a, ExprPtr b);
  static ExprPtr And(ExprPtr a, ExprPtr b);
  static ExprPtr Or(ExprPtr a, ExprPtr b);
  static ExprPtr Not(ExprPtr a);
  static ExprPtr Arith(ArithOp op, ExprPtr a, ExprPtr b);

  /// Convenience: column `col` compared to a constant.
  static ExprPtr ColCmp(int col, CmpOp op, Value v) {
    return Cmp(op, Col(col), Const(std::move(v)));
  }
  /// Convenience: lo <= column < hi.
  static ExprPtr ColBetween(int col, Value lo, Value hi) {
    return And(ColCmp(col, CmpOp::kGe, std::move(lo)),
               ColCmp(col, CmpOp::kLt, std::move(hi)));
  }

  Value Eval(const Row& row) const;
  /// Like Eval, but returns column and constant operands by reference;
  /// any other result is stored in `*scratch` and returned from there. The
  /// reference lives as long as `row`, this expression and `*scratch`.
  const Value& Ref(const Row& row, Value* scratch) const;
  bool EvalBool(const Row& row) const;

  /// Marks every column this expression reads in `*used`, which must
  /// have an entry for each of them.
  void CollectColumns(std::vector<bool>* used) const;
  /// This expression over pruned rows: each column reference `c` becomes
  /// `map[c]`, which must not be dropped.
  ExprPtr Remap(const ColumnMap& map) const;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, ExprPtr* out);

  Kind kind() const { return kind_; }

 private:
  Expr() = default;

  /// The kCmp result, without building a Value.
  bool CmpHolds(const Row& row) const;

  Kind kind_ = Kind::kConst;
  Value const_value_;
  int col_ = 0;
  CmpOp cmp_ = CmpOp::kEq;
  ArithOp arith_ = ArithOp::kAdd;
  ExprPtr a_, b_;
};

}  // namespace vedb::query

#endif  // VEDB_QUERY_EXPR_H_
