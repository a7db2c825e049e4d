// CH-benCHmark (TPC-CH): the 22 TPC-H-style analytical queries adapted to
// the TPC-C schema, implemented as physical plans over the query library.
// Two plan variants exist per query:
//  * the "default" plan — what veDB's optimizer picks without push-down
//    (e.g. a nested-loop join for Q13), and
//  * the "push-down-friendly" plan — scans with filters/partial aggregation
//    at the leaves so fragments can execute in EBP/PageStore (Section VI-B,
//    Figure 14's plan-change discussion).
//
// The queries are scaled-down approximations: each keeps the reference
// query's table set, join shape, filter selectivity class, and aggregation
// structure, which is what the push-down evaluation exercises.

#ifndef VEDB_WORKLOAD_TPCCH_H_
#define VEDB_WORKLOAD_TPCCH_H_

#include "query/plan.h"
#include "query/pushdown.h"
#include "workload/tpcc.h"

namespace vedb::workload {

/// Builds CH query `number` (1-22) as written, without column pruning.
/// `pushdown_friendly` selects the plan variant; both compute the same
/// result.
query::PlanPtr BuildChQuery(int number, TpccDatabase* db,
                            bool pushdown_friendly);

/// Builds, prunes (query::PruneColumns) and executes.
Result<std::vector<engine::Row>> RunChQuery(int number, TpccDatabase* db,
                                            query::ExecContext* ctx,
                                            bool pushdown_friendly);

}  // namespace vedb::workload

#endif  // VEDB_WORKLOAD_TPCCH_H_
