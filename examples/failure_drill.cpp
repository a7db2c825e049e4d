// Failure drill: exercise the availability machinery end to end —
//   * an AStore server dies mid-traffic: the segment freezes, the SDK
//     reopens on healthy nodes, the cluster manager rebuilds the lost
//     replica, and a returning node has its stale segments cleaned;
//   * the DBEngine process crashes and recovers from the SegmentRing.
//
//   $ ./failure_drill

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
Schema LedgerSchema() {
  Schema s;
  s.columns = {{"id", ValueType::kInt}, {"amount", ValueType::kDouble}};
  s.pk = {0};
  return s;
}
void DeclareCatalog(engine::DBEngine* engine) {
  engine->CreateTable("ledger", LedgerSchema());
}
}  // namespace

int main() {
  workload::ClusterOptions options;
  options.astore_nodes = 4;  // a spare node for replica rebuild
  workload::VedbCluster cluster(options);
  cluster.StartBackground();

  DeclareCatalog(cluster.engine());
  Table* ledger = cluster.engine()->GetTable("ledger");

  auto write_rows = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      Status s = cluster.engine()->RunTransaction([&](Txn* txn) {
        return ledger->Insert(txn, {Value(i), Value(i * 1.5)});
      });
      if (!s.ok()) {
        printf("  write %d failed: %s\n", i, s.ToString().c_str());
        return false;
      }
    }
    return true;
  };

  printf("phase 1: writes with all %d AStore nodes healthy\n",
         (int)cluster.astore_servers().size());
  write_rows(0, 50);

  printf("phase 2: killing pmem-1 mid-traffic\n");
  cluster.env()->GetNode("pmem-1")->SetAlive(false);
  // Writes keep flowing: broken segments freeze and the SDK reopens new
  // ones on the surviving replicas; the CM health check rebuilds lost
  // copies in the background.
  const bool survived = write_rows(50, 100);
  printf("  writes during the outage: %s\n", survived ? "all committed"
                                                      : "FAILED");
  cluster.env()->clock()->SleepFor(300 * kMillisecond);  // let CM rebuild

  printf("phase 3: pmem-1 returns; stale segments get cleaned\n");
  cluster.env()->GetNode("pmem-1")->SetAlive(true);
  cluster.env()->clock()->SleepFor(300 * kMillisecond);

  printf("phase 4: DBEngine crash + recovery\n");
  Status s = cluster.CrashAndRecoverEngine(DeclareCatalog);
  printf("  recovery: %s\n", s.ToString().c_str());
  Table* recovered = cluster.engine()->GetTable("ledger");
  int present = 0;
  for (int i = 0; i < 100; ++i) {
    if (recovered->Get(nullptr, {Value(i)}).ok()) present++;
  }
  printf("  rows after full drill: %d / 100\n", present);

  cluster.Shutdown();
  return present == 100 ? 0 : 1;
}
