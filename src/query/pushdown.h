// Query push-down framework (Section VI). Eligible plan fragments — a scan
// with simple filters and/or aggregation over one table, no joins or
// subqueries — are decomposed into concurrent tasks based on where the
// pages live: pages cached in the EBP execute on their AStore servers
// (using the CPU cores one-sided RDMA leaves idle); the rest execute on the
// PageStore nodes that persist them. Partial results come back over RPC and
// the DBEngine performs the secondary aggregation.

#ifndef VEDB_QUERY_PUSHDOWN_H_
#define VEDB_QUERY_PUSHDOWN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "astore/server.h"
#include "ebp/ebp.h"
#include "net/rpc.h"
#include "pagestore/pagestore.h"
#include "query/plan.h"
#include "sim/env.h"

namespace vedb::query {

class PushdownRuntime {
 public:
  struct Options {
    /// CPU cost per row processed by a storage-side executor.
    Duration exec_cpu_per_row = 120;
  };

  /// Deploys the storage-side executor: "a separate process containing the
  /// veDB executor code for scan, filter, and aggregation operator is
  /// deployed in each PageServer and AStore server" (Section VI-A).
  PushdownRuntime(sim::SimEnvironment* env, net::RpcTransport* rpc,
                  pagestore::PageStoreCluster* pagestore,
                  const std::vector<sim::SimNode*>& pagestore_nodes,
                  const std::vector<astore::AStoreServer*>& astore_servers,
                  const Options& options);

  /// Attaches the EBP whose index routes pages to AStore servers. May be
  /// null (every page then executes on PageStore).
  void AttachEbp(ebp::ExtendedBufferPool* ebp) { ebp_ = ebp; }

  /// Executes a pushed-down fragment over `table`: per-server tasks run
  /// remotely; this call merges their partial results (and performs the
  /// secondary aggregation when `aggs` is non-empty). Without `aggs`, the
  /// servers ship whole rows and each returned row holds only the table
  /// columns listed in `columns` (ascending).
  Result<RowBatch> ExecuteFragment(ExecContext* ctx, engine::Table* table,
                                   const ExprPtr& predicate,
                                   const std::vector<int>& columns,
                                   const std::vector<int>& group_cols,
                                   const std::vector<AggSpec>& aggs);

  /// What a storage-side task executes.
  struct Fragment {
    ExprPtr predicate;
    std::vector<int> group_cols;
    std::vector<AggSpec> aggs;
  };

  /// The storage-side executor core: filters the rows of `images` and
  /// appends the task's response to `*response`. Without aggregates that
  /// is the row count, then each matching row's stored bytes verbatim
  /// (stored rows are canonical EncodeRow output); with them, the groups
  /// of partial aggregate states. Returns the rows processed.
  static uint64_t ExecutePages(const Fragment& fragment,
                               const std::vector<Slice>& images,
                               std::string* response);

 private:
  static void EncodeFragment(const Fragment& fragment, std::string* out);
  static bool DecodeFragment(Slice* in, Fragment* out);

  Status HandleEbpExec(astore::AStoreServer* server, Slice request,
                       std::string* response, Timestamp start,
                       Timestamp* done);
  Status HandlePsExec(sim::SimNode* node, Slice request,
                      std::string* response, Timestamp start,
                      Timestamp* done);

  sim::SimEnvironment* env_;
  net::RpcTransport* rpc_;
  pagestore::PageStoreCluster* pagestore_;
  ebp::ExtendedBufferPool* ebp_ = nullptr;
  Options options_;
  /// The frames an EBP task reads, reused by the next task (a task runs to
  /// its end without waiting, so tasks never share it). Handed back to
  /// malloc after each task, a buffer this large would be unmapped, and the
  /// next task would fault its pages in again.
  std::unique_ptr<char[]> frame_buffer_;
  uint64_t frame_buffer_size_ = 0;
};

}  // namespace vedb::query

#endif  // VEDB_QUERY_PUSHDOWN_H_
