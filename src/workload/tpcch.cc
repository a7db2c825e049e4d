#include "workload/tpcch.h"

#include "common/logging.h"

namespace vedb::workload {

using query::AggSpec;
using query::AggregateNode;
using query::ArithOp;
using query::CmpOp;
using query::Expr;
using query::ExprPtr;
using query::FilterNode;
using query::HashJoinNode;
using query::LimitNode;
using query::NestLoopJoinNode;
using query::PlanPtr;
using query::ProjectNode;
using query::ScanNode;
using query::SortNode;
using engine::Value;

namespace {

std::unique_ptr<ScanNode> Scan(engine::Table* t, ExprPtr pred = nullptr) {
  return std::make_unique<ScanNode>(t, std::move(pred));
}

std::unique_ptr<ScanNode> AggScan(engine::Table* t, ExprPtr pred,
                                  std::vector<int> group,
                                  std::vector<AggSpec> aggs) {
  auto scan = std::make_unique<ScanNode>(t, std::move(pred));
  scan->SetAggregation(std::move(group), std::move(aggs));
  return scan;
}

PlanPtr Join(PlanPtr left, PlanPtr right, std::vector<int> lk,
             std::vector<int> rk) {
  return std::make_unique<HashJoinNode>(std::move(left), std::move(right),
                                        std::move(lk), std::move(rk));
}

// Column index helpers: output of a join is left row ++ right row, so later
// operators address columns by absolute position.

}  // namespace

query::PlanPtr BuildChQuery(int number, TpccDatabase* db,
                            bool pushdown_friendly) {
  engine::Table* ol = db->orderline();  // 9 cols
  engine::Table* o = db->orders();      // 7 cols
  engine::Table* c = db->customer();    // 10 cols
  engine::Table* st = db->stock();      // 7 cols
  engine::Table* it = db->item();       // 4 cols
  engine::Table* su = db->supplier();   // 4 cols
  engine::Table* na = db->nation();     // 3 cols
  engine::Table* re = db->region();     // 2 cols
  engine::Table* no = db->neworder();   // 3 cols
  engine::Table* hi = db->history();    // 6 cols
  engine::Table* di = db->district();   // 6 cols

  switch (number) {
    case 1: {
      // Q1: pricing summary by ol_number over delivered lines. Aggregation
      // pushes down whole (Figure 14's star performer).
      ExprPtr delivered = Expr::ColCmp(8, CmpOp::kGt, Value(0));
      if (pushdown_friendly) {
        return AggScan(ol, delivered, {3},
                       {AggSpec::Sum(Expr::Col(6)), AggSpec::Sum(Expr::Col(7)),
                        AggSpec::Avg(Expr::Col(6)), AggSpec::Avg(Expr::Col(7)),
                        AggSpec::Count()});
      }
      return std::make_unique<AggregateNode>(
          Scan(ol, delivered), std::vector<int>{3},
          std::vector<AggSpec>{AggSpec::Sum(Expr::Col(6)),
                               AggSpec::Sum(Expr::Col(7)),
                               AggSpec::Avg(Expr::Col(6)),
                               AggSpec::Avg(Expr::Col(7)), AggSpec::Count()});
    }
    case 2: {
      // Q2: cheapest-stock supplier per item within a region: stock x
      // supplier x nation x region, min(s_quantity) per item.
      PlanPtr s_su = Join(Scan(st), Scan(su), {6}, {0});      // 7+4
      PlanPtr s_na = Join(std::move(s_su), Scan(na), {9}, {0});  // 11+3
      PlanPtr s_re = Join(std::move(s_na),
                          Scan(re, Expr::ColCmp(0, CmpOp::kLe, Value(3))),
                          {13}, {0});  // 14+2
      return std::make_unique<AggregateNode>(
          std::move(s_re), std::vector<int>{1},
          std::vector<AggSpec>{AggSpec::Min(Expr::Col(2)), AggSpec::Count()});
    }
    case 3: {
      // Q3: revenue of undelivered orders: customer x orders x neworder x
      // orderline, group by order.
      PlanPtr o_no = Join(Scan(o), Scan(no), {0, 1, 2}, {0, 1, 2});  // 7+3
      PlanPtr o_ol = Join(std::move(o_no), Scan(ol), {0, 1, 2}, {0, 1, 2});
      // 10 + 9: ol_amount at col 17
      return std::make_unique<SortNode>(
          std::make_unique<AggregateNode>(
              std::move(o_ol), std::vector<int>{0, 1, 2},
              std::vector<AggSpec>{AggSpec::Sum(Expr::Col(17))}),
          std::vector<int>{3}, std::vector<bool>{true});
    }
    case 4: {
      // Q4: order count by ol_cnt for a date window.
      ExprPtr window = Expr::ColBetween(4, Value(5000), Value(200000000));
      if (pushdown_friendly) {
        return AggScan(o, window, {6}, {AggSpec::Count()});
      }
      return std::make_unique<AggregateNode>(
          Scan(o, window), std::vector<int>{6},
          std::vector<AggSpec>{AggSpec::Count()});
    }
    case 5: {
      // Q5: revenue per nation: orderline x stock x supplier x nation.
      PlanPtr ol_st = Join(Scan(ol), Scan(st), {5, 4}, {0, 1});  // 9+7
      PlanPtr ol_su = Join(std::move(ol_st), Scan(su), {15}, {0});  // 16+4
      PlanPtr ol_na = Join(std::move(ol_su), Scan(na), {18}, {0});  // 20+3
      return std::make_unique<SortNode>(
          std::make_unique<AggregateNode>(
              std::move(ol_na), std::vector<int>{21},
              std::vector<AggSpec>{AggSpec::Sum(Expr::Col(7))}),
          std::vector<int>{1}, std::vector<bool>{true});
    }
    case 6: {
      // Q6: big single-table aggregate with a selective filter — the
      // canonical push-down case.
      ExprPtr pred = Expr::And(Expr::ColBetween(6, Value(2), Value(8)),
                               Expr::ColCmp(7, CmpOp::kGt, Value(30.0)));
      if (pushdown_friendly) {
        return AggScan(ol, pred, {},
                       {AggSpec::Sum(Expr::Col(7)), AggSpec::Count()});
      }
      return std::make_unique<AggregateNode>(
          Scan(ol, pred), std::vector<int>{},
          std::vector<AggSpec>{AggSpec::Sum(Expr::Col(7)), AggSpec::Count()});
    }
    case 7: {
      // Q7: trade volume between nation pairs: supplier x stock x orderline
      // joined with customer nations (approximated by district pairing).
      PlanPtr ol_st = Join(Scan(ol), Scan(st), {5, 4}, {0, 1});    // 9+7
      PlanPtr ol_su = Join(std::move(ol_st), Scan(su), {15}, {0});  // 16+4
      return std::make_unique<AggregateNode>(
          std::move(ol_su), std::vector<int>{18, 1},
          std::vector<AggSpec>{AggSpec::Sum(Expr::Col(7))});
    }
    case 8: {
      // Q8: market share of a nation within a region.
      PlanPtr ol_st = Join(Scan(ol), Scan(st), {5, 4}, {0, 1});
      PlanPtr ol_su = Join(std::move(ol_st), Scan(su), {15}, {0});
      PlanPtr ol_na = Join(std::move(ol_su), Scan(na), {18}, {0});
      PlanPtr ol_re = Join(std::move(ol_na),
                           Scan(re, Expr::ColCmp(0, CmpOp::kEq, Value(1))),
                           {22}, {0});
      return std::make_unique<AggregateNode>(
          std::move(ol_re), std::vector<int>{20},
          std::vector<AggSpec>{AggSpec::Sum(Expr::Col(7)), AggSpec::Count()});
    }
    case 9: {
      // Q9: profit by nation and "year" (entry date bucket): item x stock x
      // orderline x orders x supplier x nation.
      PlanPtr ol_it = Join(
          Scan(ol), Scan(it, Expr::ColCmp(2, CmpOp::kGt, Value(20.0))), {4},
          {0});  // 9+4
      PlanPtr ol_st = Join(std::move(ol_it), Scan(st), {5, 4}, {0, 1});  // 13+7
      PlanPtr ol_su = Join(std::move(ol_st), Scan(su), {19}, {0});       // 20+4
      return std::make_unique<AggregateNode>(
          std::move(ol_su), std::vector<int>{22},
          std::vector<AggSpec>{AggSpec::Sum(Expr::Col(7))});
    }
    case 10: {
      // Q10: top customers by revenue in a window: customer x orders x
      // orderline.
      PlanPtr c_o = Join(Scan(c),
                         Scan(o, Expr::ColCmp(4, CmpOp::kGt, Value(10000))),
                         {0, 1, 2}, {0, 1, 3});  // 10+7
      PlanPtr c_ol = Join(std::move(c_o), Scan(ol), {10, 11, 12},
                          {0, 1, 2});  // 17+9: ol_amount at 24
      return std::make_unique<LimitNode>(
          std::make_unique<SortNode>(
              std::make_unique<AggregateNode>(
                  std::move(c_ol), std::vector<int>{0, 1, 2, 3},
                  std::vector<AggSpec>{AggSpec::Sum(Expr::Col(24))}),
              std::vector<int>{4}, std::vector<bool>{true}),
          20);
    }
    case 11: {
      // Q11: most valuable stock positions: selective filter on supplier
      // nations, group by item (Figure 14: selective filter pushed down).
      ExprPtr pred = Expr::ColCmp(6, CmpOp::kLe, Value(3));  // few suppliers
      if (pushdown_friendly) {
        PlanPtr partial = AggScan(
            st, pred, {1},
            {AggSpec::Sum(Expr::Arith(ArithOp::kMul, Expr::Col(2),
                                      Expr::Col(4))),
             AggSpec::Count()});
        return std::make_unique<SortNode>(std::move(partial),
                                          std::vector<int>{1},
                                          std::vector<bool>{true});
      }
      return std::make_unique<SortNode>(
          std::make_unique<AggregateNode>(
              Scan(st, pred), std::vector<int>{1},
              std::vector<AggSpec>{
                  AggSpec::Sum(Expr::Arith(ArithOp::kMul, Expr::Col(2),
                                           Expr::Col(4))),
                  AggSpec::Count()}),
          std::vector<int>{1}, std::vector<bool>{true});
    }
    case 12: {
      // Q12: shipping priority by carrier: orders x orderline on delivery
      // lateness.
      PlanPtr o_ol = Join(Scan(o), Scan(ol, Expr::ColCmp(8, CmpOp::kGt,
                                                         Value(0))),
                          {0, 1, 2}, {0, 1, 2});  // 7+9
      return std::make_unique<AggregateNode>(
          std::move(o_ol), std::vector<int>{5},
          std::vector<AggSpec>{AggSpec::Count(),
                               AggSpec::Sum(Expr::Col(13))});
    }
    case 13: {
      // Q13: customer order-count distribution. veDB's default optimizer
      // picks a nested-loop join here; the push-down-enabled optimizer
      // switches to hash join (Section VII-C).
      if (!pushdown_friendly) {
        PlanPtr nl = std::make_unique<NestLoopJoinNode>(
            Scan(c), Scan(o),
            Expr::And(
                Expr::And(Expr::Cmp(CmpOp::kEq, Expr::Col(0), Expr::Col(10)),
                          Expr::Cmp(CmpOp::kEq, Expr::Col(1), Expr::Col(11))),
                Expr::Cmp(CmpOp::kEq, Expr::Col(2), Expr::Col(13))));
        return std::make_unique<AggregateNode>(
            std::move(nl), std::vector<int>{0, 1, 2},
            std::vector<AggSpec>{AggSpec::Count()});
      }
      PlanPtr hj = Join(Scan(c), Scan(o), {0, 1, 2}, {0, 1, 3});
      return std::make_unique<AggregateNode>(
          std::move(hj), std::vector<int>{0, 1, 2},
          std::vector<AggSpec>{AggSpec::Count()});
    }
    case 14: {
      // Q14: promotion revenue share: orderline x item (cheap items stand
      // in for PROMO%).
      PlanPtr ol_it = Join(Scan(ol, Expr::ColCmp(8, CmpOp::kGt, Value(0))),
                           Scan(it), {4}, {0});  // 9+4: i_price at 11
      return std::make_unique<AggregateNode>(
          std::move(ol_it), std::vector<int>{},
          std::vector<AggSpec>{AggSpec::Sum(Expr::Col(7)),
                               AggSpec::Avg(Expr::Col(11))});
    }
    case 15: {
      // Q15: top supplier by revenue; the selective filter on recent lines
      // pushes down (Figure 14).
      ExprPtr recent = Expr::ColCmp(2, CmpOp::kGt, Value(30));
      PlanPtr lines = pushdown_friendly
                          ? PlanPtr(Scan(ol, recent))
                          : PlanPtr(std::make_unique<FilterNode>(Scan(ol),
                                                                 recent));
      PlanPtr ol_st = Join(std::move(lines), Scan(st), {5, 4}, {0, 1});
      return std::make_unique<LimitNode>(
          std::make_unique<SortNode>(
              std::make_unique<AggregateNode>(
                  std::move(ol_st), std::vector<int>{15},
                  std::vector<AggSpec>{AggSpec::Sum(Expr::Col(7))}),
              std::vector<int>{1}, std::vector<bool>{true}),
          5);
    }
    case 16: {
      // Q16: supplier counts per item class — a small two-table join whose
      // working set fits any buffer pool (the paper's EBP-neutral query).
      PlanPtr st_it = Join(Scan(st, Expr::ColCmp(2, CmpOp::kGt, Value(20))),
                           Scan(it, Expr::ColCmp(2, CmpOp::kLt, Value(80.0))),
                           {1}, {0});
      return std::make_unique<AggregateNode>(
          std::move(st_it), std::vector<int>{6},
          std::vector<AggSpec>{AggSpec::Count()});
    }
    case 17: {
      // Q17: small-quantity revenue for one item class: orderline x item.
      PlanPtr ol_it =
          Join(Scan(ol, Expr::ColCmp(6, CmpOp::kLt, Value(4))),
               Scan(it, Expr::ColCmp(2, CmpOp::kLt, Value(25.0))), {4}, {0});
      return std::make_unique<AggregateNode>(
          std::move(ol_it), std::vector<int>{},
          std::vector<AggSpec>{AggSpec::Sum(Expr::Col(7)),
                               AggSpec::Avg(Expr::Col(6))});
    }
    case 18: {
      // Q18: large orders: orders x orderline grouped by order, sorted by
      // total, limited.
      PlanPtr o_ol = Join(Scan(o), Scan(ol), {0, 1, 2}, {0, 1, 2});
      return std::make_unique<LimitNode>(
          std::make_unique<SortNode>(
              std::make_unique<AggregateNode>(
                  std::move(o_ol), std::vector<int>{0, 1, 2, 3},
                  std::vector<AggSpec>{AggSpec::Sum(Expr::Col(14)),
                                       AggSpec::Count()}),
              std::vector<int>{4}, std::vector<bool>{true}),
          50);
    }
    case 19: {
      // Q19: disjunctive filter revenue: orderline x item with OR branches.
      ExprPtr branches =
          Expr::Or(Expr::And(Expr::ColBetween(6, Value(1), Value(4)),
                             Expr::ColCmp(7, CmpOp::kGt, Value(50.0))),
                   Expr::And(Expr::ColBetween(6, Value(7), Value(10)),
                             Expr::ColCmp(7, CmpOp::kGt, Value(20.0))));
      PlanPtr lines = pushdown_friendly
                          ? PlanPtr(Scan(ol, branches))
                          : PlanPtr(std::make_unique<FilterNode>(Scan(ol),
                                                                 branches));
      PlanPtr ol_it = Join(std::move(lines), Scan(it), {4}, {0});
      return std::make_unique<AggregateNode>(
          std::move(ol_it), std::vector<int>{},
          std::vector<AggSpec>{AggSpec::Sum(Expr::Col(7))});
    }
    case 20: {
      // Q20: suppliers with excess stock of recently ordered items: the
      // stock-side filter pushes down ahead of the join (Figure 14).
      ExprPtr excess = Expr::ColCmp(2, CmpOp::kGt, Value(50));
      PlanPtr stock = pushdown_friendly
                          ? PlanPtr(Scan(st, excess))
                          : PlanPtr(std::make_unique<FilterNode>(Scan(st),
                                                                 excess));
      PlanPtr st_su = Join(std::move(stock), Scan(su), {6}, {0});  // 7+4
      return std::make_unique<AggregateNode>(
          std::move(st_su), std::vector<int>{7, 8},
          std::vector<AggSpec>{AggSpec::Count(),
                               AggSpec::Sum(Expr::Col(2))});
    }
    case 21: {
      // Q21: suppliers whose lines were delivered late: orderline x orders
      // x stock x supplier.
      PlanPtr late = Scan(ol, Expr::ColCmp(8, CmpOp::kGt, Value(0)));
      PlanPtr ol_o = Join(std::move(late), Scan(o), {0, 1, 2}, {0, 1, 2});
      PlanPtr ol_st = Join(std::move(ol_o), Scan(st), {5, 4}, {0, 1});
      PlanPtr ol_su = Join(std::move(ol_st), Scan(su), {22}, {0});
      return std::make_unique<LimitNode>(
          std::make_unique<SortNode>(
              std::make_unique<AggregateNode>(
                  std::move(ol_su), std::vector<int>{24},
                  std::vector<AggSpec>{AggSpec::Count()}),
              std::vector<int>{1}, std::vector<bool>{true}),
          10);
    }
    case 22: {
      // Q22: balance summary of inactive-but-solvent customers, grouped by
      // district — aggregation over a filtered single-table scan pushes
      // down whole (Figure 14).
      ExprPtr pred = Expr::And(Expr::ColCmp(5, CmpOp::kGt, Value(0.0)),
                               Expr::ColCmp(7, CmpOp::kLe, Value(1)));
      if (pushdown_friendly) {
        return AggScan(c, pred, {1},
                       {AggSpec::Count(), AggSpec::Sum(Expr::Col(5))});
      }
      return std::make_unique<AggregateNode>(
          Scan(c, pred), std::vector<int>{1},
          std::vector<AggSpec>{AggSpec::Count(), AggSpec::Sum(Expr::Col(5))});
    }
    default:
      break;
  }
  (void)hi;
  (void)di;
  VEDB_CHECK(false, "CH query %d not implemented", number);
  return nullptr;
}

Result<std::vector<engine::Row>> RunChQuery(int number, TpccDatabase* db,
                                            query::ExecContext* ctx,
                                            bool pushdown_friendly) {
  PlanPtr plan = BuildChQuery(number, db, pushdown_friendly);
  query::PruneColumns(plan.get());
  return plan->Execute(ctx);
}

}  // namespace vedb::workload
