// Quickstart: bring up a simulated veDB deployment (DBEngine + AStore PMem
// cluster + PageStore), create a table, run transactions, read the data
// back, and survive a DBEngine crash.
//
//   $ ./quickstart

// GCC 12 raises spurious -Wmaybe-uninitialized warnings from std::variant's
// move assignment when a Value holding a double flows through std::function
// under -O2 with sanitizers: it cannot prove the never-active std::string
// alternative is dead. Suppress for this translation unit only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <cstdio>

#include "workload/cluster.h"

using namespace vedb;
using engine::Row;
using engine::Schema;
using engine::Table;
using engine::Txn;
using engine::Value;
using engine::ValueType;

namespace {
Schema UserSchema() {
  Schema s;
  s.columns = {{"id", ValueType::kInt},
               {"name", ValueType::kString},
               {"score", ValueType::kDouble}};
  s.pk = {0};
  return s;
}

void DeclareCatalog(engine::DBEngine* engine) {
  Table* users = engine->CreateTable("users", UserSchema());
  users->CreateIndex("by_name", {1});
}
}  // namespace

int main() {
  // 1. Wire up a full cluster: SSD blob boxes, an AStore PMem cluster with
  //    its cluster manager, PageStore nodes, and a DBEngine VM. The log
  //    rides on AStore (the paper's design).
  workload::ClusterOptions options;
  options.use_astore_log = true;
  options.enable_ebp = true;
  workload::VedbCluster cluster(options);
  cluster.StartBackground();
  printf("cluster up: %zu AStore servers, EBP %s\n",
         cluster.astore_servers().size(),
         cluster.ebp() != nullptr ? "enabled" : "disabled");

  // 2. Create a table with a secondary index.
  DeclareCatalog(cluster.engine());
  Table* users = cluster.engine()->GetTable("users");

  // 3. Transactions: inserts and an update, committed through the REDO log
  //    on remote PMem.
  Status s = cluster.engine()->RunTransaction([&](Txn* txn) -> Status {
    VEDB_RETURN_IF_ERROR(
        users->Insert(txn, {Value(1), Value("ada"), Value(99.5)}));
    VEDB_RETURN_IF_ERROR(
        users->Insert(txn, {Value(2), Value("grace"), Value(97.0)}));
    return users->Insert(txn, {Value(3), Value("edsger"), Value(93.2)});
  });
  printf("insert txn: %s\n", s.ToString().c_str());

  s = cluster.engine()->RunTransaction([&](Txn* txn) {
    return users->Update(txn, {Value(2)}, [](Row* row) {
      (*row)[2] = Value(100.0);
    });
  });
  printf("update txn: %s\n", s.ToString().c_str());

  // 4. Reads: point lookup and secondary-index lookup.
  auto row = users->Get(nullptr, {Value(2)});
  printf("users[2] = %s, score %.1f\n", (*row)[1].AsString().c_str(),
         (*row)[2].AsDouble());
  auto by_name = users->IndexLookup("by_name", {Value("ada")});
  printf("lookup by name 'ada': %zu row(s)\n", by_name->size());

  // 5. Crash the DBEngine process and recover everything from the
  //    disaggregated stores: the SegmentRing is found via the cluster
  //    manager, its headers binary-searched, the REDO tail replayed, and
  //    the indexes rebuilt from PageStore.
  printf("simulating DBEngine crash...\n");
  s = cluster.CrashAndRecoverEngine(DeclareCatalog);
  printf("recovery: %s\n", s.ToString().c_str());
  Table* recovered = cluster.engine()->GetTable("users");
  row = recovered->Get(nullptr, {Value(2)});
  printf("after recovery, users[2] score = %.1f (expected 100.0)\n",
         (*row)[2].AsDouble());

  cluster.Shutdown();
  printf("done. virtual time elapsed: %.2f ms\n",
         ToMillis(cluster.env()->clock()->Now()));
  return 0;
}
