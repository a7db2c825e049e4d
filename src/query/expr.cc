#include "query/expr.h"

#include "common/coding.h"
#include "common/logging.h"

namespace vedb::query {

ExprPtr Expr::Const(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kConst;
  e->const_value_ = std::move(v);
  return e;
}

ExprPtr Expr::Col(int index) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kCol;
  e->col_ = index;
  return e;
}

ExprPtr Expr::Cmp(CmpOp op, ExprPtr a, ExprPtr b) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kCmp;
  e->cmp_ = op;
  e->a_ = std::move(a);
  e->b_ = std::move(b);
  return e;
}

ExprPtr Expr::And(ExprPtr a, ExprPtr b) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kAnd;
  e->a_ = std::move(a);
  e->b_ = std::move(b);
  return e;
}

ExprPtr Expr::Or(ExprPtr a, ExprPtr b) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kOr;
  e->a_ = std::move(a);
  e->b_ = std::move(b);
  return e;
}

ExprPtr Expr::Not(ExprPtr a) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kNot;
  e->a_ = std::move(a);
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr a, ExprPtr b) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kArith;
  e->arith_ = op;
  e->a_ = std::move(a);
  e->b_ = std::move(b);
  return e;
}

Value Expr::Eval(RowView row) const {
  switch (kind_) {
    case Kind::kConst:
    case Kind::kCol: {
      Value unused;
      return Ref(row, &unused);
    }
    case Kind::kCmp:
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      return Value(static_cast<int64_t>(EvalBool(row)));
    case Kind::kArith: {
      Value sa, sb;
      const Value& va = a_->Ref(row, &sa);
      const Value& vb = b_->Ref(row, &sb);
      if (va.is_int() && vb.is_int()) {
        switch (arith_) {
          case ArithOp::kAdd: return Value(va.AsInt() + vb.AsInt());
          case ArithOp::kSub: return Value(va.AsInt() - vb.AsInt());
          case ArithOp::kMul: return Value(va.AsInt() * vb.AsInt());
        }
      }
      const double da = va.AsDouble(), db = vb.AsDouble();
      switch (arith_) {
        case ArithOp::kAdd: return Value(da + db);
        case ArithOp::kSub: return Value(da - db);
        case ArithOp::kMul: return Value(da * db);
      }
    }
  }
  return Value();
}

const Value& Expr::Ref(RowView row, Value* scratch) const {
  switch (kind_) {
    case Kind::kConst:
      return const_value_;
    case Kind::kCol:
      VEDB_CHECK(col_ >= 0 && static_cast<size_t>(col_) < row.size(),
                 "column %d out of range (row has %zu)", col_, row.size());
      return row[col_];
    default:
      *scratch = Eval(row);
      return *scratch;
  }
}

bool Expr::CmpHolds(RowView row) const {
  Value sa, sb;
  const int c = a_->Ref(row, &sa).Compare(b_->Ref(row, &sb));
  switch (cmp_) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

bool Expr::EvalBool(RowView row) const {
  switch (kind_) {
    case Kind::kCmp:
      return CmpHolds(row);
    case Kind::kAnd:
      return a_->EvalBool(row) && b_->EvalBool(row);
    case Kind::kOr:
      return a_->EvalBool(row) || b_->EvalBool(row);
    case Kind::kNot:
      return !a_->EvalBool(row);
    default: {
      Value scratch;
      const Value& v = Ref(row, &scratch);
      if (v.is_null()) return false;
      if (v.is_int()) return v.AsInt() != 0;
      if (v.is_double()) return v.AsDouble() != 0.0;
      return !v.AsString().empty();
    }
  }
}

void Expr::CollectColumns(std::vector<bool>* used) const {
  if (kind_ == Kind::kCol) {
    VEDB_CHECK(col_ >= 0 && static_cast<size_t>(col_) < used->size(),
               "column %d out of range (%zu columns)", col_, used->size());
    (*used)[col_] = true;
    return;
  }
  if (a_ != nullptr) a_->CollectColumns(used);
  if (b_ != nullptr) b_->CollectColumns(used);
}

ExprPtr Expr::Remap(const ColumnMap& map) const {
  auto e = std::shared_ptr<Expr>(new Expr(*this));
  if (kind_ == Kind::kCol) {
    VEDB_CHECK(col_ >= 0 && static_cast<size_t>(col_) < map.size() &&
                   map[col_] >= 0,
               "column %d was pruned", col_);
    e->col_ = map[col_];
  }
  if (a_ != nullptr) e->a_ = a_->Remap(map);
  if (b_ != nullptr) e->b_ = b_->Remap(map);
  return e;
}

void Expr::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(kind_));
  switch (kind_) {
    case Kind::kConst:
      const_value_.EncodeTo(out);
      break;
    case Kind::kCol:
      PutVarint32(out, static_cast<uint32_t>(col_));
      break;
    case Kind::kCmp:
      out->push_back(static_cast<char>(cmp_));
      a_->EncodeTo(out);
      b_->EncodeTo(out);
      break;
    case Kind::kAnd:
    case Kind::kOr:
      a_->EncodeTo(out);
      b_->EncodeTo(out);
      break;
    case Kind::kNot:
      a_->EncodeTo(out);
      break;
    case Kind::kArith:
      out->push_back(static_cast<char>(arith_));
      a_->EncodeTo(out);
      b_->EncodeTo(out);
      break;
  }
}

bool Expr::DecodeFrom(Slice* in, ExprPtr* out) {
  if (in->empty()) return false;
  const Kind kind = static_cast<Kind>((*in)[0]);
  in->RemovePrefix(1);
  switch (kind) {
    case Kind::kConst: {
      Value v;
      if (!Value::DecodeFrom(in, &v)) return false;
      *out = Const(std::move(v));
      return true;
    }
    case Kind::kCol: {
      uint32_t col = 0;
      if (!GetVarint32(in, &col)) return false;
      *out = Col(static_cast<int>(col));
      return true;
    }
    case Kind::kCmp: {
      if (in->empty()) return false;
      const CmpOp op = static_cast<CmpOp>((*in)[0]);
      in->RemovePrefix(1);
      ExprPtr a, b;
      if (!DecodeFrom(in, &a) || !DecodeFrom(in, &b)) return false;
      *out = Cmp(op, std::move(a), std::move(b));
      return true;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      ExprPtr a, b;
      if (!DecodeFrom(in, &a) || !DecodeFrom(in, &b)) return false;
      *out = kind == Kind::kAnd ? And(std::move(a), std::move(b))
                                : Or(std::move(a), std::move(b));
      return true;
    }
    case Kind::kNot: {
      ExprPtr a;
      if (!DecodeFrom(in, &a)) return false;
      *out = Not(std::move(a));
      return true;
    }
    case Kind::kArith: {
      if (in->empty()) return false;
      const ArithOp op = static_cast<ArithOp>((*in)[0]);
      in->RemovePrefix(1);
      ExprPtr a, b;
      if (!DecodeFrom(in, &a) || !DecodeFrom(in, &b)) return false;
      *out = Arith(op, std::move(a), std::move(b));
      return true;
    }
  }
  return false;
}

}  // namespace vedb::query
