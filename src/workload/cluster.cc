#include "workload/cluster.h"

#include "common/logging.h"

namespace vedb::workload {

namespace {

// The EBP is a cache: a page its client cannot reach quickly is simply a
// miss served from the PageStore, so the EBP's SDK client fails fast
// instead of spending the log client's full recovery budget per access.
astore::AStoreClient::Options EbpClientOptions(
    astore::AStoreClient::Options base) {
  base.retry.max_attempts = 2;
  base.retry.op_deadline = 5 * kMillisecond;
  return base;
}

}  // namespace

VedbCluster::VedbCluster(const ClusterOptions& options)
    : options_(options), env_(options.seed) {
  rpc_ = std::make_unique<net::RpcTransport>(&env_);
  fabric_ = std::make_unique<net::RdmaFabric>(&env_);

  // SSD blob boxes (baseline LogStore substrate).
  for (int i = 0; i < options_.blob_nodes; ++i) {
    sim::NodeConfig cfg;
    cfg.cpu_cores = options_.storage_cores;
    cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
    blob_nodes_.push_back(env_.AddNode("ssd-" + std::to_string(i), cfg));
  }
  blob_ = std::make_unique<blob::BlobStoreCluster>(&env_, rpc_.get(),
                                                   blob_nodes_,
                                                   options_.blob_store);

  // AStore: CM (or a CM replication group) + PMem servers + EBP server
  // agents. The single-CM layout keeps the historical node name "cm" and
  // the same seed draws, so existing seeded runs stay byte-identical.
  const int cm_count = options_.cm_replicas < 1 ? 1 : options_.cm_replicas;
  for (int i = 0; i < cm_count; ++i) {
    sim::NodeConfig cm_cfg;
    cm_cfg.cpu_cores = options_.storage_cores;
    cm_cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
    const std::string name =
        cm_count == 1 ? "cm" : "cm-" + std::to_string(i);
    cm_nodes_.push_back(env_.AddNode(name, cm_cfg));
    astore::ClusterManager::Options cm_opts = options_.cluster_manager;
    cm_opts.node_id = static_cast<uint32_t>(i);
    cms_.push_back(std::make_unique<astore::ClusterManager>(
        &env_, rpc_.get(), cm_nodes_.back(), cm_opts));
  }
  if (cm_count > 1) {
    std::vector<astore::CmPeer> peers;
    for (int i = 0; i < cm_count; ++i) {
      peers.push_back(
          astore::CmPeer{static_cast<uint32_t>(i), cm_nodes_[i]});
    }
    for (auto& cm : cms_) cm->SetPeers(peers);
  }
  for (int i = 0; i < options_.astore_nodes; ++i) {
    sim::NodeConfig cfg;
    cfg.cpu_cores = options_.storage_cores;
    cfg.storage = sim::HardwareProfile::OptanePmem(env_.NextSeed());
    sim::SimNode* node = env_.AddNode("pmem-" + std::to_string(i), cfg);
    astore_servers_.push_back(std::make_unique<astore::AStoreServer>(
        &env_, rpc_.get(), fabric_.get(), node, options_.astore_server));
    for (auto& cm : cms_) cm->RegisterServer(astore_servers_.back().get());
    ebp_agents_.push_back(std::make_unique<ebp::EbpServerAgent>(
        &env_, rpc_.get(), astore_servers_.back().get()));
  }

  // PageStore boxes.
  for (int i = 0; i < options_.pagestore_nodes; ++i) {
    sim::NodeConfig cfg;
    cfg.cpu_cores = options_.storage_cores;
    cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
    pagestore_nodes_.push_back(env_.AddNode("ps-" + std::to_string(i), cfg));
  }
  pagestore_ = std::make_unique<pagestore::PageStoreCluster>(
      &env_, rpc_.get(), pagestore_nodes_,
      [](pagestore::PageKey, Slice payload, uint64_t lsn,
         std::string* image) {
        engine::ApplyRedoToPage(payload, lsn, image);
      },
      options_.pagestore);

  // DBEngine VM.
  sim::NodeConfig engine_cfg;
  engine_cfg.cpu_cores = options_.engine_cores;
  engine_cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
  engine_node_ = env_.AddNode("dbe", engine_cfg);

  BuildEngine();
}

void VedbCluster::BuildEngine() {
  // Storage SDK clients. The log and the EBP use distinct client
  // identities so a recovering engine can tell their segments apart.
  astore_client_ = std::make_unique<astore::AStoreClient>(
      &env_, rpc_.get(), fabric_.get(), cm_nodes_.front(), engine_node_,
      /*client_id=*/1, options_.astore_client);
  if (cm_nodes_.size() > 1) astore_client_->SetCmEndpoints(cm_nodes_);
  VEDB_CHECK(astore_client_->Connect().ok(), "astore connect failed");

  if (options_.use_astore_log) {
    auto log = logstore::AStoreLogStore::Create(&env_, astore_client_.get(),
                                                options_.astore_log);
    VEDB_CHECK(log.ok(), "log create failed: %s",
               log.status().ToString().c_str());
    owned_log_ = std::move(*log);
  } else {
    auto log = logstore::BlobLogStore::Create(&env_, blob_.get(),
                                              engine_node_,
                                              options_.blob_log);
    VEDB_CHECK(log.ok(), "log create failed: %s",
               log.status().ToString().c_str());
    owned_log_ = std::move(*log);
  }
  log_ = owned_log_.get();

  if (options_.enable_ebp) {
    ebp_astore_client_ = std::make_unique<astore::AStoreClient>(
        &env_, rpc_.get(), fabric_.get(), cm_nodes_.front(), engine_node_,
        /*client_id=*/2, EbpClientOptions(options_.astore_client));
    if (cm_nodes_.size() > 1) ebp_astore_client_->SetCmEndpoints(cm_nodes_);
    VEDB_CHECK(ebp_astore_client_->Connect().ok(), "ebp connect failed");
    ebp_ = std::make_unique<ebp::ExtendedBufferPool>(
        &env_, ebp_astore_client_.get(), options_.ebp);
  }

  engine_ = std::make_unique<engine::DBEngine>(
      &env_, engine_node_, log_, pagestore_.get(), ebp_.get(),
      options_.engine);
}

std::vector<astore::AStoreServer*> VedbCluster::astore_servers() {
  std::vector<astore::AStoreServer*> out;
  for (auto& s : astore_servers_) out.push_back(s.get());
  return out;
}

std::vector<astore::ClusterManager*> VedbCluster::cluster_managers() {
  std::vector<astore::ClusterManager*> out;
  for (auto& cm : cms_) out.push_back(cm.get());
  return out;
}

void VedbCluster::StartBackground() {
  if (background_started_) return;
  background_ = std::make_unique<sim::ActorGroup>(env_.clock());
  for (auto& server : astore_servers_) {
    server->StartBackground(background_.get());
  }
  for (auto& cm : cms_) cm->StartBackground();
  pagestore_->StartBackground(background_.get());
  astore_client_->StartBackground(background_.get());
  if (ebp_ != nullptr) {
    ebp_astore_client_->StartBackground(background_.get());
    ebp_->StartBackground(background_.get());
  }
  engine_->StartBackground(background_.get());
  background_started_ = true;
}

void VedbCluster::Shutdown() {
  if (!background_started_) return;
  // Flag everything first, then drain the CMs: any loop not yet flagged
  // would keep running through the drain.
  for (auto& server : astore_servers_) server->Shutdown();
  for (auto& cm : cms_) cm->RequestShutdown();
  pagestore_->Shutdown();
  astore_client_->Shutdown();
  if (ebp_ != nullptr) {
    ebp_astore_client_->Shutdown();
    ebp_->Shutdown();
  }
  engine_->Shutdown();
  for (auto& cm : cms_) cm->Shutdown();
  background_->JoinAll();
  background_.reset();
  background_started_ = false;
}

VedbCluster::~VedbCluster() { Shutdown(); }

Status VedbCluster::CrashAndRecoverEngine(
    const std::function<void(engine::DBEngine*)>& redeclare_catalog) {
  if (!options_.use_astore_log) {
    return Status::NotSupported("crash recovery needs the AStore log");
  }
  const bool was_running = background_started_;
  if (was_running) Shutdown();

  // Drop the engine, its buffer pool, the SDK clients, and the log object:
  // everything on the DBEngine VM dies with the process.
  engine_.reset();
  ebp_.reset();
  owned_log_.reset();
  log_ = nullptr;
  const std::vector<astore::SegmentId> log_segments =
      cluster_manager()->ListSegments(1);
  const std::vector<astore::SegmentId> ebp_segments =
      cluster_manager()->ListSegments(2);
  astore_client_.reset();
  ebp_astore_client_.reset();

  // Restart: fresh SDK clients; recover the SegmentRing (binary search over
  // headers), replay the durable log tail, rebuild indexes from storage,
  // and re-attach the surviving EBP pages.
  astore_client_ = std::make_unique<astore::AStoreClient>(
      &env_, rpc_.get(), fabric_.get(), cm_nodes_.front(), engine_node_, 1,
      options_.astore_client);
  if (cm_nodes_.size() > 1) astore_client_->SetCmEndpoints(cm_nodes_);
  VEDB_RETURN_IF_ERROR(astore_client_->Connect());

  std::vector<astore::LogRecord> tail;
  auto log = logstore::AStoreLogStore::Recover(
      &env_, astore_client_.get(), log_segments, /*from_lsn=*/1,
      options_.astore_log, &tail);
  VEDB_RETURN_IF_ERROR(log.status());
  owned_log_ = std::move(*log);
  log_ = owned_log_.get();

  if (options_.enable_ebp) {
    ebp_astore_client_ = std::make_unique<astore::AStoreClient>(
        &env_, rpc_.get(), fabric_.get(), cm_nodes_.front(), engine_node_, 2,
        EbpClientOptions(options_.astore_client));
    if (cm_nodes_.size() > 1) ebp_astore_client_->SetCmEndpoints(cm_nodes_);
    VEDB_RETURN_IF_ERROR(ebp_astore_client_->Connect());
    ebp_ = std::make_unique<ebp::ExtendedBufferPool>(
        &env_, ebp_astore_client_.get(), options_.ebp);
    VEDB_RETURN_IF_ERROR(ebp_->RecoverFromServers(ebp_segments));
  }

  engine_ = std::make_unique<engine::DBEngine>(
      &env_, engine_node_, log_, pagestore_.get(), ebp_.get(),
      options_.engine);
  redeclare_catalog(engine_.get());
  VEDB_RETURN_IF_ERROR(engine_->Recover(tail));

  if (was_running) StartBackground();
  return Status::OK();
}

}  // namespace vedb::workload
