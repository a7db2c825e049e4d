// vedb_perf: one run of one benchmark workload against a simulated veDB
// deployment (workload::VedbCluster). Clients are closed-loop actors: each is
// one connection that sends its next operation only after the previous reply.
//
//   vedb_perf --workload tpcc_log|ops_lookup|ch_pushdown --seed N
//             --seconds S [--trace-out FILE] [--setups K]
//
// A run has three phases. Set-up builds the cluster, bulk loads, runs any
// warm pass and a virtual warm-up (timed K times; the median is setup_s).
// The measured window is a closed loop of fixed virtual length, chosen so it
// takes about S host seconds. Checks then verify the outputs. With
// --trace-out the window runs under obs::Tracer, one root span per operation,
// and span self times are reported; tracing never advances virtual time.
//
// Every layer is measured from outside: the benchmark times its own calls
// into public functions, and reads the registry (reset at the window start)
// and the public stats() of DBEngine, BufferPool and ExtendedBufferPool.
//
// Output: "metric <name> <value> <unit>" lines, "check ..." lines, then one
// JSON object on the last line for perfbench/run.py. Exit code 0 only when
// every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/pushdown.h"
#include "workload/cluster.h"
#include "workload/driver.h"
#include "workload/tpcc.h"
#include "workload/tpcch.h"

namespace vedb::perf {
namespace {

using engine::Row;
using engine::Value;
using HostClock = std::chrono::steady_clock;

// ---------------------------------------------------------------- host time

struct HostSample {
  HostClock::time_point wall;
  double cpu_user_s = 0;
  double cpu_sys_s = 0;
  long ctx_switches = 0;
};

double Seconds(const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; }

HostSample SampleHost() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostSample s;
  s.wall = HostClock::now();
  s.cpu_user_s = Seconds(ru.ru_utime);
  s.cpu_sys_s = Seconds(ru.ru_stime);
  s.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return s;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double WallSeconds(HostClock::time_point a, HostClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------------ helpers

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Nearest-rank percentile of exact samples (sorted in place).
uint64_t ExactPercentile(std::vector<uint64_t>* v, double pct) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * v->size()));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

/// Registry totals over the window (the registry is reset at its start), with
/// every label set of one name folded together.
struct RegistryDelta {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, Histogram> histograms;

  uint64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double PercentileUs(const std::string& name, double pct) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? 0.0 : it->second.Percentile(pct) / 1e3;
  }
};

RegistryDelta CaptureRegistry() {
  RegistryDelta d;
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.VisitCounters([&](const std::string& name, const obs::LabelSet&,
                        uint64_t value) { d.counters[name] += value; });
  reg.VisitHistograms([&](const std::string& name, const obs::LabelSet&,
                          const Histogram& h) { d.histograms[name].Merge(h); });
  return d;
}

/// Per span name: how many, total duration, total self time (duration minus
/// the union of its children's intervals, clipped to the span), and every
/// duration.
struct SpanStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  std::vector<uint64_t> durations;
};

std::map<std::string, SpanStats> SelfTimes(
    const std::vector<obs::Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const obs::Span*>> children;
  for (const obs::Span& s : spans) {
    if (s.parent_id != 0) children[s.parent_id].push_back(&s);
  }
  std::map<std::string, SpanStats> out;
  std::vector<std::pair<Timestamp, Timestamp>> iv;
  for (const obs::Span& s : spans) {
    iv.clear();
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const obs::Span* c : it->second) {
        const Timestamp lo = std::max(c->start, s.start);
        const Timestamp hi = std::min(c->end, s.end);
        if (lo < hi) iv.emplace_back(lo, hi);
      }
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    Timestamp reach = s.start;
    for (const auto& [lo, hi] : iv) {
      const Timestamp from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    SpanStats& st = out[s.name];
    st.count++;
    st.total_ns += s.duration();
    st.self_ns += s.duration() - covered;
    st.durations.push_back(s.duration());
  }
  return out;
}

// ------------------------------------------------------------- cluster base

workload::ClusterOptions BaseOptions(uint64_t seed, uint64_t ebp_capacity,
                                     size_t bp_pages) {
  workload::ClusterOptions opts;
  opts.seed = seed;
  opts.use_astore_log = true;
  opts.enable_ebp = ebp_capacity > 0;
  opts.astore_server.pmem_capacity = 192 * kMiB;
  opts.astore_log.ring.segment_size = 1 * kMiB;
  opts.astore_log.ring.ring_size = 10;
  opts.ebp.capacity = ebp_capacity;
  opts.ebp.segment_size = 2 * kMiB;
  opts.engine.buffer_pool.capacity_pages = bp_pages;
  return opts;
}

/// Query-layer counters summed over the window's queries.
struct QueryTotals {
  uint64_t queries = 0;
  uint64_t rows_returned = 0;
  uint64_t rows_scanned = 0;
  uint64_t pushdown_tasks = 0;
  uint64_t pages_from_ebp = 0;
  uint64_t pages_from_pagestore = 0;
};

// --------------------------------------------------------------- workloads

/// Closed-loop clients per workload, one per host core: each is one
/// connection that waits for its reply.
constexpr int kClients = 4;

/// One benchmark workload: its fixed shape, its set-up, one operation, and
/// the output checks that run after the window.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the cluster and loads data; the caller is a registered actor.
  virtual Status Setup(uint64_t seed) = 0;
  /// One closed-loop operation by `client`.
  virtual Status Op(int client) = 0;
  /// Output checks after the window; appends one line per failure.
  virtual void Check(std::vector<std::string>* failures) = 0;
  /// Called at the window start: drop anything the warm-up accumulated.
  virtual void ResetWindow() {}
  virtual QueryTotals Queries() const { return {}; }

  workload::VedbCluster* cluster() { return cluster_.get(); }

  // Shape (set by each subclass's constructor).
  const char* name = "";
  const char* root_span = "";
  Duration warmup = 0;
  /// Virtual seconds of window per host second of --seconds: the simulator's
  /// speed on this workload, measured with the RelWithDebInfo build pinned
  /// to one CPU of a 4-vCPU x86 VM. Fixed, so the schedule depends only on
  /// the seed.
  double virtual_per_host = 0;
  double tail_pct = 99;
  /// The window is cut into this many equal virtual-time chunks; host costs
  /// are the median over chunks. One (the whole window) for heterogeneous
  /// operations, whose per-chunk mix would otherwise decide the figure.
  int host_chunks = 16;

 protected:
  std::unique_ptr<workload::VedbCluster> cluster_;
};

/// TPC-C mix on the AStore log, no EBP: commits dominate storage work.
class TpccLog : public Workload {
 public:
  TpccLog() {
    name = "tpcc_log";
    root_span = "tpcc.txn";
    warmup = 100 * kMillisecond;
    virtual_per_host = 0.37;
    tail_pct = 99;
  }

  Status Setup(uint64_t seed) override {
    cluster_ = std::make_unique<workload::VedbCluster>(
        BaseOptions(seed, /*ebp=*/0, /*bp_pages=*/1024));
    cluster_->env()->clock()->RegisterActor();
    cluster_->StartBackground();
    workload::TpccScale scale;  // fig6 scale: hot rows do not bind
    scale.warehouses = 24;
    scale.customers_per_district = 30;
    scale.items = 300;
    scale.initial_orders_per_district = 10;
    db_ = std::make_unique<workload::TpccDatabase>(cluster_->engine(), scale,
                                                   seed * 7 + 1);
    VEDB_RETURN_IF_ERROR(db_->Load());
    for (int c = 0; c < kClients; ++c) {
      drivers_.push_back(
          std::make_unique<workload::TpccDriver>(db_.get(), seed * 1000 + c));
    }
    return Status::OK();
  }

  Status Op(int client) override { return drivers_[client]->RunMixed(nullptr); }

  void Check(std::vector<std::string>* failures) override {
    Totals before, after;
    CheckConsistency(cluster_->engine(), "committed", &before, failures);
    Status s = cluster_->CrashAndRecoverEngine([](engine::DBEngine* e) {
      workload::TpccDatabase::DeclareTables(e, /*with_ch_tables=*/false);
    });
    if (!s.ok()) {
      failures->push_back("tpcc: crash recovery failed: " + s.ToString());
      return;
    }
    CheckConsistency(cluster_->engine(), "recovered", &after, failures);
    if (before.next_o_ids != after.next_o_ids ||
        before.orders != after.orders ||
        std::fabs(before.w_ytd - after.w_ytd) > 1e-6 * before.w_ytd) {
      failures->push_back("tpcc: recovered state differs from acknowledged "
                          "commits (orders " +
                          std::to_string(before.orders) + " vs " +
                          std::to_string(after.orders) + ")");
    }
  }

 private:
  struct Totals {
    double w_ytd = 0;
    int64_t next_o_ids = 0;
    uint64_t orders = 0;
  };

  // TPC-C consistency conditions 1 (W_YTD = sum of D_YTD) and 2
  // (D_NEXT_O_ID - 1 = max O_ID) over committed state.
  static void CheckConsistency(engine::DBEngine* e, const std::string& when,
                               Totals* totals,
                               std::vector<std::string>* failures) {
    std::map<int64_t, double> w_ytd, d_ytd_sum;
    std::map<std::pair<int64_t, int64_t>, int64_t> next_o_id, max_o_id;
    Status s = e->GetTable("warehouse")->ScanAll([&](const Row& r) {
      w_ytd[r[0].AsInt()] = r[3].AsDouble();
      return true;
    });
    if (s.ok()) {
      s = e->GetTable("district")->ScanAll([&](const Row& r) {
        d_ytd_sum[r[0].AsInt()] += r[4].AsDouble();
        next_o_id[{r[0].AsInt(), r[1].AsInt()}] = r[5].AsInt();
        return true;
      });
    }
    if (s.ok()) {
      s = e->GetTable("orders")->ScanAll([&](const Row& r) {
        int64_t& m = max_o_id[{r[0].AsInt(), r[1].AsInt()}];
        m = std::max(m, r[2].AsInt());
        totals->orders++;
        return true;
      });
    }
    if (!s.ok()) {
      failures->push_back("tpcc(" + when + "): scan failed: " + s.ToString());
      return;
    }
    for (const auto& [w, ytd] : w_ytd) {
      totals->w_ytd += ytd;
      if (std::fabs(ytd - d_ytd_sum[w]) > 1e-6 * std::max(1.0, ytd)) {
        failures->push_back("tpcc(" + when + "): W_YTD != sum(D_YTD) for w=" +
                            std::to_string(w));
      }
    }
    for (const auto& [wd, next] : next_o_id) {
      totals->next_o_ids += next;
      if (next - 1 != max_o_id[wd]) {
        failures->push_back("tpcc(" + when +
                            "): D_NEXT_O_ID-1 != max(O_ID) for w=" +
                            std::to_string(wd.first) +
                            " d=" + std::to_string(wd.second));
      }
    }
    if (w_ytd.empty() || next_o_id.empty()) {
      failures->push_back("tpcc(" + when + "): tables are empty");
    }
  }

  std::unique_ptr<workload::TpccDatabase> db_;
  std::vector<std::unique_ptr<workload::TpccDriver>> drivers_;
};

/// Read-only skewed PK lookups on the fig12 operations table: larger than
/// the buffer pool, mostly inside the EBP. One operation is one query that
/// looks up kKeysPerOp keys (an IN list): with one key per operation, over
/// 80% of operations are buffer-pool hits and the median is the constant
/// modelled cost of a hit, which no cache change can move.
class OpsLookup : public Workload {
 public:
  static constexpr int kRows = 50000;
  static constexpr size_t kRowBytes = 220;
  static constexpr int kKeysPerOp = 16;

  OpsLookup() {
    name = "ops_lookup";
    root_span = "ops.lookup";
    warmup = 200 * kMillisecond;
    virtual_per_host = 0.3;
    tail_pct = 99;
  }

  Status Setup(uint64_t seed) override {
    cluster_ = std::make_unique<workload::VedbCluster>(
        BaseOptions(seed, /*ebp=*/8 * kMiB, /*bp_pages=*/96));
    cluster_->env()->clock()->RegisterActor();
    cluster_->StartBackground();
    engine::Schema schema;
    schema.columns = {{"id", engine::ValueType::kInt},
                      {"owner", engine::ValueType::kInt},
                      {"state", engine::ValueType::kInt},
                      {"data", engine::ValueType::kString}};
    schema.pk = {0};
    table_ = cluster_->engine()->CreateTable("ops_records", schema);
    Random gen(seed);
    expected_.reserve(kRows + 1);
    expected_.push_back({});
    for (int i = 1; i <= kRows; ++i) {
      expected_.push_back({Value(i), Value(i % 1000), Value(i % 7),
                           Value(gen.String(kRowBytes, kRowBytes))});
    }
    VEDB_RETURN_IF_ERROR(table_->BulkLoad(
        std::vector<Row>(expected_.begin() + 1, expected_.end())));
    for (int c = 0; c < kClients; ++c) rngs_.emplace_back(seed * 1000 + c);
    return Status::OK();
  }

  Status Op(int client) override {
    for (int i = 0; i < kKeysPerOp; ++i) {
      const int key = static_cast<int>(rngs_[client].Skewed(kRows)) + 1;
      Result<Row> row = table_->Get(nullptr, {Value(key)});
      if (!row.ok()) return row.status();
      if (*row != expected_[key]) {
        mismatches_++;
        return Status::Corruption("row differs from the loaded row");
      }
    }
    return Status::OK();
  }

  void Check(std::vector<std::string>* failures) override {
    if (mismatches_ != 0) {
      failures->push_back("ops: " + std::to_string(mismatches_.load()) +
                          " lookups returned rows unlike the loaded rows");
    }
  }

 private:
  engine::Table* table_ = nullptr;
  std::vector<Row> expected_;  // index = primary key
  std::vector<Random> rngs_;
  std::atomic<uint64_t> mismatches_{0};
};

/// Uniformly chosen CH queries with push-down on; the buffer pool is small
/// and a set-up pass over all 22 queries fills the EBP. The streams deal
/// queries from one shared deck of the 22, reshuffled after every round, so
/// each query is equally likely and any window holds every query equally
/// often, give or take one partial round. Query costs differ by 10x: with
/// independent draws the mix, not the system, decided the figures, and the
/// median (which sits between the 11th and 12th fastest query) jumped
/// between them.
class ChPushdown : public Workload {
 public:
  static constexpr int kQueries = 22;

  ChPushdown() {
    name = "ch_pushdown";
    root_span = "ch.query";
    warmup = 100 * kMillisecond;
    virtual_per_host = 0.065;
    tail_pct = 95;
    host_chunks = 1;
  }

  Status Setup(uint64_t seed) override {
    cluster_ = std::make_unique<workload::VedbCluster>(
        BaseOptions(seed, /*ebp=*/160 * kMiB, /*bp_pages=*/32));
    std::vector<sim::SimNode*> ps_nodes;
    for (int i = 0; i < cluster_->options().pagestore_nodes; ++i) {
      ps_nodes.push_back(cluster_->env()->GetNode("ps-" + std::to_string(i)));
    }
    pushdown_ = std::make_unique<query::PushdownRuntime>(
        cluster_->env(), cluster_->rpc(), cluster_->pagestore(), ps_nodes,
        cluster_->astore_servers(), query::PushdownRuntime::Options{});
    pushdown_->AttachEbp(cluster_->ebp());
    cluster_->env()->clock()->RegisterActor();
    cluster_->StartBackground();
    workload::TpccScale scale;
    scale.warehouses = 8;
    scale.customers_per_district = 80;
    scale.items = 500;
    scale.initial_orders_per_district = 40;
    db_ = std::make_unique<workload::TpccDatabase>(
        cluster_->engine(), scale, seed * 7 + 5, /*with_ch_tables=*/true);
    VEDB_RETURN_IF_ERROR(db_->Load());
    // Local pass over every query: evicts scanned pages into the EBP, and
    // its results are the reference the pushed-down results must match.
    local_results_.resize(kQueries + 1);
    for (int q = 1; q <= kQueries; ++q) {
      query::ExecContext ctx = Context(/*pushdown=*/false);
      auto rows = workload::RunChQuery(q, db_.get(), &ctx, true);
      VEDB_RETURN_IF_ERROR(rows.status());
      local_results_[q] = std::move(*rows);
    }
    deck_rng_.Seed(seed * 1000);
    per_client_.assign(kClients, QueryTotals{});
    return Status::OK();
  }

  Status Op(int client) override {
    const int q = Deal();
    query::ExecContext ctx = Context(/*pushdown=*/true);
    auto rows = workload::RunChQuery(q, db_.get(), &ctx, true);
    if (!rows.ok()) return rows.status();
    QueryTotals& t = per_client_[client];
    t.queries++;
    t.rows_returned += rows->size();
    t.rows_scanned += ctx.rows_scanned;
    t.pushdown_tasks += ctx.pushdown_tasks;
    t.pages_from_ebp += ctx.pushdown_pages_from_ebp;
    t.pages_from_pagestore += ctx.pushdown_pages_from_pagestore;
    return Status::OK();
  }

  void ResetWindow() override { per_client_.assign(kClients, QueryTotals{}); }

  QueryTotals Queries() const override {
    QueryTotals sum;
    for (const QueryTotals& t : per_client_) {
      sum.queries += t.queries;
      sum.rows_returned += t.rows_returned;
      sum.rows_scanned += t.rows_scanned;
      sum.pushdown_tasks += t.pushdown_tasks;
      sum.pages_from_ebp += t.pages_from_ebp;
      sum.pages_from_pagestore += t.pages_from_pagestore;
    }
    return sum;
  }

  void Check(std::vector<std::string>* failures) override {
    for (int q = 1; q <= kQueries; ++q) {
      query::ExecContext ctx = Context(/*pushdown=*/true);
      auto rows = workload::RunChQuery(q, db_.get(), &ctx, true);
      if (!rows.ok()) {
        failures->push_back("ch: Q" + std::to_string(q) +
                            " pushed down failed: " + rows.status().ToString());
      } else if (!SameRows(*rows, local_results_[q])) {
        failures->push_back("ch: Q" + std::to_string(q) +
                            " pushed-down rows differ from local rows");
      }
    }
  }

 private:
  int Deal() {
    std::lock_guard<std::mutex> lk(deck_mu_);
    if (deck_.empty()) {
      for (int q = 1; q <= kQueries; ++q) deck_.push_back(q);
      for (int i = kQueries - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[deck_rng_.Uniform(i + 1)]);
      }
    }
    const int q = deck_.back();
    deck_.pop_back();
    return q;
  }

  query::ExecContext Context(bool pushdown) {
    query::ExecContext ctx;
    ctx.engine = cluster_->engine();
    ctx.pushdown = pushdown_.get();
    ctx.enable_pushdown = pushdown;
    ctx.pushdown_row_threshold = 500;
    return ctx;
  }

  // Order-insensitive; doubles may differ in their last bits because partial
  // aggregates are summed in another order when pushed down.
  static bool SameRows(std::vector<Row> a, std::vector<Row> b) {
    if (a.size() != b.size()) return false;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].size() != b[i].size()) return false;
      for (size_t j = 0; j < a[i].size(); ++j) {
        const Value& x = a[i][j];
        const Value& y = b[i][j];
        if (x.type() == engine::ValueType::kDouble &&
            y.type() == engine::ValueType::kDouble) {
          const double tol = 1e-9 * std::max(1.0, std::fabs(x.AsDouble()));
          if (std::fabs(x.AsDouble() - y.AsDouble()) > tol) return false;
        } else if (!(x == y)) {
          return false;
        }
      }
    }
    return true;
  }

  std::unique_ptr<query::PushdownRuntime> pushdown_;
  std::unique_ptr<workload::TpccDatabase> db_;
  std::vector<std::vector<Row>> local_results_;  // index = query number
  // Waiver(thread-annotations): a short critical section with no clock wait
  // inside, which sim/clock.h allows under a plain std::mutex.
  std::mutex deck_mu_;
  std::vector<int> deck_;  // queries left in this round
  Random deck_rng_;
  std::vector<QueryTotals> per_client_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tpcc_log") return std::make_unique<TpccLog>();
  if (name == "ops_lookup") return std::make_unique<OpsLookup>();
  if (name == "ch_pushdown") return std::make_unique<ChPushdown>();
  return nullptr;
}

// ------------------------------------------------------------ closed loop

/// Exact per-operation latencies of one phase, one vector per client.
using Latencies = std::vector<std::vector<uint64_t>>;

/// Host-time marks at fixed virtual-time steps through a phase, taken by
/// whichever operation first finishes past each step (execution is
/// serialized, so no two marks race). Per-chunk host costs come from
/// consecutive marks; their median shrugs off a burst of host noise.
struct HostMarks {
  Duration step = 0;  // 0: no marks
  struct Mark {
    HostSample host;
    uint64_t ops = 0;
  };
  std::vector<Mark> marks;
};

/// workload::RunClosedLoop for `duration`, with two additions. Each
/// operation opens the workload's root span and records its exact latency.
/// And the client that finishes last reserves an actor slot before it exits,
/// which holds the scheduler until the calling actor has rejoined: without
/// it, background actors run virtual time forward during the real-time gap
/// while the caller joins the clients, and seeded runs diverge. `holds`
/// keeps the reservation's actor group alive past the phase; it releases on
/// the caller's next block, in ticket order.
workload::LoadResult RunPhase(
    Workload* w, Duration duration, Latencies* latencies, HostMarks* marks,
    std::vector<std::unique_ptr<sim::ActorGroup>>* holds) {
  sim::SimEnvironment* env = w->cluster()->env();
  sim::VirtualClock* clock = env->clock();
  holds->push_back(std::make_unique<sim::ActorGroup>(clock));
  sim::ActorGroup* hold = holds->back().get();
  latencies->assign(kClients, {});
  std::atomic<int> running{kClients};
  std::atomic<uint64_t> done{0};
  const Timestamp start = clock->Now();
  const Timestamp end = start + duration;
  Timestamp next_mark = start;
  if (marks->step > 0) marks->marks = {{SampleHost(), 0}};
  workload::LoadResult result = workload::RunClosedLoop(
      env, kClients, /*warmup=*/0, duration, [&](int c) {
        const Timestamp begin = clock->Now();
        Status s;
        {
          obs::SpanScope root(obs::Tracer::Global(), w->root_span);
          s = w->Op(c);
        }
        const Timestamp finish = clock->Now();
        if (s.ok()) (*latencies)[c].push_back(finish - begin);
        const uint64_t n = done.fetch_add(1) + 1;
        if (marks->step > 0 && finish >= next_mark + marks->step &&
            finish < end) {
          next_mark += (finish - next_mark) / marks->step * marks->step;
          marks->marks.push_back({SampleHost(), n});
        }
        if (finish >= end && running.fetch_sub(1) == 1) hold->Spawn([] {});
        return s;
      });
  if (marks->step > 0) marks->marks.push_back({SampleHost(), done.load()});
  hold->Start();
  return result;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Host cost per operation in each chunk between consecutive marks.
struct ChunkCosts {
  std::vector<double> wall_us, cpu_us, ctx_switches;
};

ChunkCosts PerChunkCosts(const HostMarks& m) {
  ChunkCosts c;
  for (size_t i = 1; i < m.marks.size(); ++i) {
    const HostMarks::Mark& a = m.marks[i - 1];
    const HostMarks::Mark& b = m.marks[i];
    const double n = static_cast<double>(b.ops - a.ops);
    if (n == 0) continue;
    c.wall_us.push_back(WallSeconds(a.host.wall, b.host.wall) * 1e6 / n);
    c.cpu_us.push_back((b.host.cpu_user_s - a.host.cpu_user_s +
                        b.host.cpu_sys_s - a.host.cpu_sys_s) * 1e6 / n);
    c.ctx_switches.push_back((b.host.ctx_switches - a.host.ctx_switches) / n);
  }
  return c;
}

// --------------------------------------------------------------------- run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;  // empty: untraced
  int setups = 3;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else if (k == "--setups") {
      a->setups = std::atoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->setups >= 1;
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    printf("metric %s %.6g %s\n", name.c_str(), value, unit.c_str());
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", value);
    if (!json_.empty()) json_ += ",";
    json_ += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" + unit +
             "\"}";
  }
  const std::string& json() const { return json_; }

 private:
  std::string json_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n') ? ' ' : ch;
  }
  return out + "\"";
}

/// Builds the workload, loads it and runs its virtual warm-up: everything
/// before the first measured operation. Null on failure.
std::unique_ptr<Workload> SetUp(const Args& args,
                                std::vector<std::unique_ptr<sim::ActorGroup>>*
                                    holds) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  Status s = w->Setup(args.seed);
  if (!s.ok()) {
    fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return nullptr;
  }
  Latencies latencies;
  HostMarks no_marks;
  RunPhase(w.get(), w->warmup, &latencies, &no_marks, holds);
  return w;
}

void TearDown(std::unique_ptr<Workload> w,
              std::vector<std::unique_ptr<sim::ActorGroup>>* holds) {
  w->cluster()->Shutdown();
  w->cluster()->env()->clock()->UnregisterActor();
  holds->clear();
}

int Run(const Args& args, HostClock::time_point process_start) {
  // The measured instance is the first set-up, so the window runs in a
  // process as fresh as a single-setup one; further set-ups after the
  // checks only time set-up again (setup_s is their median).
  std::vector<double> setup_times;
  std::vector<std::unique_ptr<sim::ActorGroup>> holds;
  Latencies latencies;
  std::unique_ptr<Workload> w = SetUp(args, &holds);
  if (w == nullptr) return 1;
  setup_times.push_back(WallSeconds(process_start, HostClock::now()));
  sim::VirtualClock* clock = w->cluster()->env()->clock();
  engine::DBEngine* eng = w->cluster()->engine();
  ebp::ExtendedBufferPool* ebp = w->cluster()->ebp();

  // Window start: everything above stays out of every delta.
  w->ResetWindow();
  obs::MetricsRegistry::Default().ResetValues();
  const engine::DBEngine::Stats eng0 = eng->stats();
  const engine::BufferPool::Stats bp0 = eng->buffer_pool()->stats();
  const ebp::ExtendedBufferPool::Stats ebp0 =
      ebp != nullptr ? ebp->stats() : ebp::ExtendedBufferPool::Stats{};
  std::unique_ptr<obs::Tracer> tracer;
  if (!args.trace_out.empty()) {
    tracer = std::make_unique<obs::Tracer>(clock);
    obs::Tracer::SetGlobal(tracer.get());
  }
  const Duration window = static_cast<Duration>(
      args.seconds * w->virtual_per_host * static_cast<double>(kSecond));
  HostMarks marks;
  marks.step = window / w->host_chunks;
  const workload::LoadResult result =
      RunPhase(w.get(), window, &latencies, &marks, &holds);
  const HostSample& h0 = marks.marks.front().host;
  const HostSample& h1 = marks.marks.back().host;
  obs::Tracer::SetGlobal(nullptr);
  const engine::DBEngine::Stats eng1 = eng->stats();
  const engine::BufferPool::Stats bp1 = eng->buffer_pool()->stats();
  const ebp::ExtendedBufferPool::Stats ebp1 =
      ebp != nullptr ? ebp->stats() : ebp::ExtendedBufferPool::Stats{};
  const RegistryDelta reg = CaptureRegistry();
  const QueryTotals qt = w->Queries();

  std::vector<uint64_t> lat;
  for (const auto& v : latencies) lat.insert(lat.end(), v.begin(), v.end());
  const double ops = static_cast<double>(result.operations);
  const uint64_t attempted = result.operations + result.errors;

  // Output checks (outside the window).
  std::vector<std::string> failures;
  w->Check(&failures);
  const size_t tail_beyond =
      lat.size() -
      std::min(lat.size(), static_cast<size_t>(std::ceil(
                               w->tail_pct / 100.0 * lat.size())));
  if (tail_beyond < 10) {
    failures.push_back("only " + std::to_string(tail_beyond) +
                       " samples beyond the tail percentile");
  }
  if (result.operations == 0) failures.push_back("no operation completed");
  const uint64_t commits = eng1.commits - eng0.commits;
  const uint64_t pmem_write_bytes = reg.Counter("pmem.write_bytes");

  const std::string name = w->name;
  const std::string root_span = w->root_span;
  const double tail_pct = w->tail_pct;
  TearDown(std::move(w), &holds);
  const double peak_rss_mib = PeakRssMib();
  for (int k = 1; k < args.setups; ++k) {
    const HostClock::time_point t0 = HostClock::now();
    std::unique_ptr<Workload> again = SetUp(args, &holds);
    if (again == nullptr) return 1;
    setup_times.push_back(WallSeconds(t0, HostClock::now()));
    TearDown(std::move(again), &holds);
  }

  // ---- end to end
  Report e2e;
  e2e.Add("tput_per_s", result.Throughput(), "1/s");
  e2e.Add("lat_p50_ms", ExactPercentile(&lat, 50) / 1e6, "ms");
  e2e.Add("lat_tail_ms", ExactPercentile(&lat, tail_pct) / 1e6, "ms");
  e2e.Add("error_ratio", Ratio(result.errors, attempted), "ratio");
  const double wall_s = WallSeconds(h0.wall, h1.wall);
  const double cpu_s = (h1.cpu_user_s - h0.cpu_user_s) +
                       (h1.cpu_sys_s - h0.cpu_sys_s);
  const ChunkCosts chunks = PerChunkCosts(marks);
  e2e.Add("host_wall_us_per_op", Median(chunks.wall_us), "us");
  e2e.Add("host_cpu_us_per_op", Median(chunks.cpu_us), "us");
  e2e.Add("setup_s", Median(setup_times), "s");
  e2e.Add("peak_rss_mib", peak_rss_mib, "MiB");
  printf("tail percentile p%g over %zu samples, %zu beyond it\n", tail_pct,
         lat.size(), tail_beyond);
  printf("latency us at p10/p25/p50/p75/p90:");
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0}) {
    printf(" %.3f", ExactPercentile(&lat, p) / 1e3);
  }
  printf("\n");
  printf("host wall us/op per chunk:");
  for (double v : chunks.wall_us) printf(" %.1f", v);
  printf("\n");

  // Spans of the traced window give self times, and exact latency
  // percentiles for the layers that open spans (the registry's histograms
  // are bucketed about 6% wide, which hides a smaller change).
  std::vector<obs::Span> spans;
  std::map<std::string, SpanStats> self;
  if (tracer != nullptr) {
    spans = tracer->FinishedSpans();
    self = SelfTimes(spans);
  }
  const SpanStats no_spans;
  auto stat = [&](const std::string& n) -> const SpanStats& {
    auto it = self.find(n);
    return it == self.end() ? no_spans : it->second;
  };
  auto latency_us = [&](const char* span, const char* histogram, double pct) {
    if (tracer == nullptr) return reg.PercentileUs(histogram, pct);
    std::vector<uint64_t> d = stat(span).durations;
    return ExactPercentile(&d, pct) / 1e3;
  };

  // ---- per layer
  Report layer;
  layer.Add("sim.ctx_switches_per_op", Median(chunks.ctx_switches),
            "count");
  layer.Add("sim.sys_cpu_share", Ratio(h1.cpu_sys_s - h0.cpu_sys_s, cpu_s),
            "ratio");
  layer.Add("sim.host_wall_s", wall_s, "s");
  const double aborts = static_cast<double>(eng1.aborts - eng0.aborts);
  layer.Add("engine.abort_ratio", Ratio(aborts, commits + aborts), "ratio");
  layer.Add("engine.rows_written_per_txn",
            Ratio(static_cast<double>(eng1.rows_written - eng0.rows_written),
                  static_cast<double>(commits)),
            "count");
  const double bp_hits = static_cast<double>(bp1.hits - bp0.hits);
  const double bp_access =
      bp_hits + static_cast<double>(bp1.ebp_hits - bp0.ebp_hits) +
      static_cast<double>(bp1.pagestore_reads - bp0.pagestore_reads);
  layer.Add("bp.hit_ratio", Ratio(bp_hits, bp_access), "ratio");
  layer.Add("bp.evictions_per_op",
            Ratio(static_cast<double>(bp1.evictions - bp0.evictions), ops),
            "count");
  const double ebp_hits = static_cast<double>(ebp1.hits - ebp0.hits);
  layer.Add("ebp.hit_ratio",
            Ratio(ebp_hits,
                  ebp_hits + static_cast<double>(ebp1.misses - ebp0.misses)),
            "ratio");
  layer.Add("ebp.puts_per_op",
            Ratio(static_cast<double>(ebp1.puts - ebp0.puts), ops), "count");
  layer.Add("ebp.compactions",
            static_cast<double>(ebp1.compactions - ebp0.compactions), "count");
  layer.Add("pagestore.reads_per_kop",
            Ratio(1e3 * reg.Counter("pagestore.page_reads"), ops), "count");
  layer.Add("pagestore.read_p50_us", reg.PercentileUs("pagestore.read_ns", 50),
            "us");
  layer.Add("pagestore.read_p99_us", reg.PercentileUs("pagestore.read_ns", 99),
            "us");
  layer.Add("pagestore.ship_records_per_batch",
            Ratio(reg.Counter("pagestore.ship_records"),
                  reg.Counter("pagestore.ship_batches")),
            "count");
  layer.Add("pagestore.applied_per_op",
            Ratio(reg.Counter("pagestore.applied_records"), ops), "count");
  layer.Add("logstore.append_p50_us",
            latency_us("logstore.append", "logstore.append_ns", 50), "us");
  layer.Add("logstore.append_p99_us",
            latency_us("logstore.append", "logstore.append_ns", 99), "us");
  layer.Add("logstore.appends_per_flush",
            Ratio(reg.Counter("logstore.appends"),
                  reg.Counter("logstore.flushes")),
            "count");
  layer.Add("logstore.bytes_per_txn",
            Ratio(reg.Counter("logstore.flush_bytes"), commits), "B");
  layer.Add("astore.write_p50_us",
            latency_us("astore.client.write", "astore.client.write_ns", 50),
            "us");
  layer.Add("astore.write_p99_us",
            latency_us("astore.client.write", "astore.client.write_ns", 99),
            "us");
  layer.Add("astore.ring_append_p50_us",
            reg.PercentileUs("astore.ring.append_ns", 50), "us");
  layer.Add("astore.doorbells_per_append",
            Ratio(reg.Counter("ring.doorbells"),
                  reg.Counter("astore.ring.appends")),
            "count");
  layer.Add("astore.read_p50_us",
            latency_us("astore.client.read", "astore.client.read_ns", 50),
            "us");
  layer.Add("astore.read_p99_us",
            latency_us("astore.client.read", "astore.client.read_ns", 99),
            "us");
  layer.Add("astore.retries", reg.Counter("astore.client.retries"), "count");
  layer.Add("net.rdma_ops_per_op", Ratio(reg.Counter("net.rdma.ops"), ops),
            "count");
  layer.Add("net.rdma_bytes_per_op", Ratio(reg.Counter("net.rdma.bytes"), ops),
            "B");
  const double queue_ns = reg.Counter("net.rdma.queue_ns");
  layer.Add("net.rdma_queue_share",
            Ratio(queue_ns, queue_ns + reg.Counter("net.rdma.wire_ns")),
            "ratio");
  layer.Add("net.rpc_calls_per_op", Ratio(reg.Counter("net.rpc.calls"), ops),
            "count");
  layer.Add("net.rpc_p50_us", latency_us("rpc.call", "net.rpc.latency_ns", 50),
            "us");
  layer.Add("pmem.write_bytes_per_op", Ratio(pmem_write_bytes, ops), "B");
  layer.Add("pmem.flushes_per_op", Ratio(reg.Counter("pmem.flushes"), ops),
            "count");
  layer.Add("pmem.write_amp",
            Ratio(pmem_write_bytes, reg.Counter("logstore.flush_bytes")),
            "ratio");
  layer.Add("query.rows_scanned_per_row_returned",
            Ratio(qt.rows_scanned, qt.rows_returned), "ratio");
  layer.Add("query.pushdown_tasks_per_query",
            Ratio(qt.pushdown_tasks, qt.queries), "count");
  layer.Add("query.ebp_page_share",
            Ratio(qt.pages_from_ebp,
                  qt.pages_from_ebp + qt.pages_from_pagestore),
            "ratio");

  // ---- spans: self time per layer
  if (tracer != nullptr) {
    const SpanStats& root = stat(root_span);
    const double root_share = Ratio(root.self_ns, root.total_ns);
    layer.Add("engine.self_share",
              name == "ch_pushdown" ? 0.0 : root_share, "ratio");
    layer.Add("query.self_share",
              name == "ch_pushdown" ? root_share : 0.0, "ratio");
    for (const char* part : {"client", "network", "server", "pmem_flush"}) {
      const SpanStats& s = stat(std::string("breakdown.") + part);
      layer.Add(std::string("astore.breakdown.") + part + "_us",
                Ratio(s.self_ns / 1e3, s.count), "us");
    }
    const std::pair<const char*, const char*> per_op[] = {
        {"op", root_span.c_str()},
        {"logstore_append", "logstore.append"},
        {"astore_write", "astore.client.write"},
        {"astore_read", "astore.client.read"},
        {"rpc_call", "rpc.call"},
        {"rdma_chain", "rdma.chain"}};
    for (const auto& [label, span_name] : per_op) {
      layer.Add(std::string("self.") + label + "_us_per_op",
                Ratio(stat(span_name).self_ns / 1e3, ops), "us");
    }
    layer.Add("trace.spans", static_cast<double>(spans.size()), "count");
    Status ws = obs::WriteResultsFile(
        args.trace_out.substr(0, args.trace_out.find_last_of('/')),
        args.trace_out.substr(args.trace_out.find_last_of('/') + 1),
        tracer->ToJson());
    if (!ws.ok()) failures.push_back("writing spans: " + ws.ToString());
  }

  printf("fingerprint seed=%llu ops=%llu commits=%llu pmem_write_bytes=%llu\n",
         static_cast<unsigned long long>(args.seed),
         static_cast<unsigned long long>(result.operations),
         static_cast<unsigned long long>(commits),
         static_cast<unsigned long long>(pmem_write_bytes));
  for (const std::string& f : failures) printf("check FAILED %s\n", f.c_str());
  if (failures.empty()) printf("check ok: all output checks passed\n");

  std::string fails;
  for (const std::string& f : failures) {
    fails += (fails.empty() ? "" : ",") + JsonString(f);
  }
  printf("{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"attempted\":%llu,"
         "\"failed\":%llu,\"fingerprint\":{\"ops\":%llu,\"commits\":%llu,"
         "\"pmem_write_bytes\":%llu},\"failures\":[%s],\"end_to_end\":{%s},"
         "\"per_layer\":{%s}}\n",
         JsonString(args.workload).c_str(),
         static_cast<unsigned long long>(args.seed),
         tracer != nullptr ? "true" : "false",
         static_cast<unsigned long long>(attempted),
         static_cast<unsigned long long>(result.errors),
         static_cast<unsigned long long>(result.operations),
         static_cast<unsigned long long>(commits),
         static_cast<unsigned long long>(pmem_write_bytes), fails.c_str(),
         e2e.json().c_str(), layer.json().c_str());
  return failures.empty() ? 0 : 3;
}

}  // namespace
}  // namespace vedb::perf

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  vedb::perf::Args args;
  if (!vedb::perf::ParseArgs(argc, argv, &args) ||
      vedb::perf::MakeWorkload(args.workload) == nullptr) {
    fprintf(stderr,
            "usage: vedb_perf --workload tpcc_log|ops_lookup|ch_pushdown "
            "--seed N --seconds S [--trace-out FILE] [--setups K]\n");
    return 2;
  }
  return vedb::perf::Run(args, process_start);
}
