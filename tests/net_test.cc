#include <gtest/gtest.h>

#include <string>

#include "net/rdma.h"
#include "net/rpc.h"
#include "pmem/pmem_device.h"
#include "sim/env.h"

namespace vedb::net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::NodeConfig client_cfg;
    client_cfg.cpu_cores = 8;
    client_cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
    client_ = env_.AddNode("client", client_cfg);

    sim::NodeConfig server_cfg;
    server_cfg.cpu_cores = 16;
    server_cfg.storage = sim::HardwareProfile::OptanePmem(env_.NextSeed());
    server_ = env_.AddNode("server", server_cfg);
  }

  sim::SimEnvironment env_;
  sim::SimNode* client_ = nullptr;
  sim::SimNode* server_ = nullptr;
};

TEST_F(NetTest, OneSidedWriteThenReadRoundTrip) {
  pmem::PmemDevice pmem(1 << 20, /*ddio=*/false);
  RdmaFabric fabric(&env_);
  MemoryRegionId mr = fabric.RegisterMemory(server_, &pmem);

  ASSERT_TRUE(fabric.Write(client_, mr, 64, Slice("payload")).ok());
  char buf[7];
  ASSERT_TRUE(fabric.Read(client_, mr, 64, 7, buf).ok());
  EXPECT_EQ(std::string(buf, 7), "payload");
}

TEST_F(NetTest, OneSidedOpsBypassServerCpu) {
  pmem::PmemDevice pmem(1 << 20, false);
  RdmaFabric fabric(&env_);
  MemoryRegionId mr = fabric.RegisterMemory(server_, &pmem);
  std::string data(4096, 'x');
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fabric.Write(client_, mr, 0, Slice(data)).ok());
  }
  EXPECT_EQ(server_->cpu()->op_count(), 0u);
  EXPECT_GT(server_->nic()->op_count(), 0u);
}

TEST_F(NetTest, ChainedWriteWriteReadPersists) {
  // AStore's write path: header WRITE + payload WRITE + flush READ chained
  // behind a single doorbell. After the chain, data must be crash-proof.
  pmem::PmemDevice pmem(1 << 20, /*ddio=*/false);
  RdmaFabric fabric(&env_);
  MemoryRegionId mr = fabric.RegisterMemory(server_, &pmem);

  std::vector<RdmaWorkRequest> chain(3);
  chain[0].kind = RdmaWorkRequest::Kind::kWrite;
  chain[0].region = mr;
  chain[0].offset = 0;
  chain[0].write_data = Slice("HDR!");
  chain[1].kind = RdmaWorkRequest::Kind::kWrite;
  chain[1].region = mr;
  chain[1].offset = 4;
  chain[1].write_data = Slice("body-bytes");
  chain[2].kind = RdmaWorkRequest::Kind::kRead;
  chain[2].region = mr;
  chain[2].offset = 0;
  chain[2].read_len = 0;  // flush-only

  ASSERT_TRUE(fabric.PostChain(client_, chain).ok());
  pmem.Crash();
  char buf[14];
  ASSERT_TRUE(pmem.Read(0, 14, buf).ok());
  EXPECT_EQ(std::string(buf, 14), "HDR!body-bytes");
}

TEST_F(NetTest, WriteWithoutFlushIsNotCrashSafe) {
  pmem::PmemDevice pmem(1 << 20, /*ddio=*/false);
  RdmaFabric fabric(&env_);
  MemoryRegionId mr = fabric.RegisterMemory(server_, &pmem);
  ASSERT_TRUE(fabric.Write(client_, mr, 0, Slice("volatile")).ok());
  pmem.Crash();
  char buf[8];
  ASSERT_TRUE(pmem.Read(0, 8, buf).ok());
  EXPECT_NE(std::string(buf, 8), "volatile");
}

TEST_F(NetTest, DeadNodeTimesOut) {
  pmem::PmemDevice pmem(1 << 20, false);
  RdmaFabric fabric(&env_);
  MemoryRegionId mr = fabric.RegisterMemory(server_, &pmem);
  server_->SetAlive(false);
  Timestamp before = env_.clock()->Now();
  Status s = fabric.Write(client_, mr, 0, Slice("x"));
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_GE(env_.clock()->Now() - before, 100 * kMicrosecond);
}

TEST_F(NetTest, UnregisteredRegionRejected) {
  RdmaFabric fabric(&env_);
  MemoryRegionId bogus{12345};
  EXPECT_TRUE(fabric.Write(client_, bogus, 0, Slice("x")).IsInvalidArgument());
}

TEST_F(NetTest, ChainMustTargetOneNode) {
  pmem::PmemDevice p1(1 << 16, false), p2(1 << 16, false);
  RdmaFabric fabric(&env_);
  MemoryRegionId m1 = fabric.RegisterMemory(server_, &p1);
  MemoryRegionId m2 = fabric.RegisterMemory(client_, &p2);
  std::vector<RdmaWorkRequest> chain(2);
  chain[0].region = m1;
  chain[0].write_data = Slice("a");
  chain[1].region = m2;
  chain[1].write_data = Slice("b");
  EXPECT_TRUE(fabric.PostChain(client_, chain).IsInvalidArgument());
}

TEST_F(NetTest, RdmaReadFasterThanRpcRead) {
  // The gap that motivates AStore: a one-sided read completes far faster
  // than an RPC that pays scheduling and server CPU costs.
  pmem::PmemDevice pmem(1 << 20, false);
  RdmaFabric fabric(&env_);
  RpcTransport rpc(&env_);
  MemoryRegionId mr = fabric.RegisterMemory(server_, &pmem);

  rpc.RegisterService(server_, "page.read",
                      [&](Slice, std::string* resp) {
                        server_->storage()->Access(16 * kKiB);
                        resp->assign(16 * kKiB, 'p');
                        return Status::OK();
                      });

  Timestamp t0 = env_.clock()->Now();
  char buf[16 * kKiB];
  ASSERT_TRUE(fabric.Read(client_, mr, 0, sizeof(buf), buf).ok());
  Duration rdma_lat = env_.clock()->Now() - t0;

  t0 = env_.clock()->Now();
  std::string resp;
  ASSERT_TRUE(rpc.Call(client_, server_, "page.read", Slice(""), &resp).ok());
  Duration rpc_lat = env_.clock()->Now() - t0;

  EXPECT_LT(rdma_lat, rpc_lat);
  EXPECT_LT(rdma_lat, 60 * kMicrosecond);  // paper: ~20us for a 16KB page
}

TEST_F(NetTest, RpcRoundTripRunsHandler) {
  RpcTransport rpc(&env_);
  rpc.RegisterService(server_, "echo", [](Slice req, std::string* resp) {
    *resp = "echo:" + req.ToString();
    return Status::OK();
  });
  std::string resp;
  ASSERT_TRUE(rpc.Call(client_, server_, "echo", Slice("hi"), &resp).ok());
  EXPECT_EQ(resp, "echo:hi");
  EXPECT_GT(env_.clock()->Now(), 0u);
  EXPECT_GT(server_->cpu()->op_count(), 0u);  // RPC burns server CPU
}

TEST_F(NetTest, RpcUnknownServiceFails) {
  RpcTransport rpc(&env_);
  std::string resp;
  EXPECT_TRUE(
      rpc.Call(client_, server_, "nope", Slice(""), &resp).IsNotFound());
}

TEST_F(NetTest, RpcDeadServerTimesOut) {
  RpcTransport rpc(&env_);
  rpc.RegisterService(server_, "echo", [](Slice, std::string* r) {
    *r = "x";
    return Status::OK();
  });
  server_->SetAlive(false);
  std::string resp;
  EXPECT_TRUE(
      rpc.Call(client_, server_, "echo", Slice(""), &resp).IsUnavailable());
}

TEST_F(NetTest, CallParallelQuorumFasterThanAll) {
  RpcTransport rpc(&env_);
  sim::NodeConfig cfg;
  cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
  std::vector<sim::SimNode*> servers;
  for (int i = 0; i < 3; ++i) {
    sim::SimNode* n = env_.AddNode("rep" + std::to_string(i), cfg);
    servers.push_back(n);
    rpc.RegisterTimedService(
        n, "append",
        [n](Slice req, std::string* resp, Timestamp start, Timestamp* done) {
          *done = n->storage()->SubmitAt(start, req.size());
          *resp = "ok";
          return Status::OK();
        });
  }
  std::string req(8192, 'd');
  std::vector<std::string> resps;

  Timestamp t0 = env_.clock()->Now();
  auto st_all = rpc.CallParallel(client_, servers, "append", Slice(req),
                                 &resps, /*required_acks=*/0);
  Duration all_lat = env_.clock()->Now() - t0;
  for (auto& s : st_all) EXPECT_TRUE(s.ok());
  EXPECT_EQ(resps.size(), 3u);
  EXPECT_EQ(resps[0], "ok");

  t0 = env_.clock()->Now();
  auto st_q = rpc.CallParallel(client_, servers, "append", Slice(req),
                               &resps, /*required_acks=*/2);
  Duration quorum_lat = env_.clock()->Now() - t0;
  for (auto& s : st_q) EXPECT_TRUE(s.ok());
  EXPECT_LE(quorum_lat, all_lat);
}

TEST_F(NetTest, CallParallelToleratesDeadReplica) {
  RpcTransport rpc(&env_);
  sim::NodeConfig cfg;
  cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
  std::vector<sim::SimNode*> servers;
  for (int i = 0; i < 3; ++i) {
    sim::SimNode* n = env_.AddNode("qrep" + std::to_string(i), cfg);
    servers.push_back(n);
    rpc.RegisterTimedService(
        n, "append",
        [n](Slice req, std::string* resp, Timestamp start, Timestamp* done) {
          *done = n->storage()->SubmitAt(start, req.size());
          *resp = "ok";
          return Status::OK();
        });
  }
  servers[1]->SetAlive(false);
  std::vector<std::string> resps;
  auto statuses = rpc.CallParallel(client_, servers, "append", Slice("data"),
                                   &resps, /*required_acks=*/2);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].IsUnavailable());
  EXPECT_TRUE(statuses[2].ok());
}

TEST_F(NetTest, CallDeadlineCapsDeadServerWait) {
  RpcTransport rpc(&env_);
  server_->SetAlive(false);
  const Timestamp deadline = env_.clock()->Now() + 200 * kMicrosecond;
  RpcCallOptions opts;
  opts.deadline = deadline;
  std::string resp;
  Status s = rpc.Call(client_, server_, "echo", Slice(""), &resp, opts);
  EXPECT_TRUE(s.IsUnavailable());
  // Without the deadline the dead-target path burns the full 1ms timeout;
  // the caller must get control back at the deadline instead.
  EXPECT_EQ(env_.clock()->Now(), deadline);
}

TEST_F(NetTest, CallDeadlineTimesOutSlowHandler) {
  RpcTransport rpc(&env_);
  rpc.RegisterService(server_, "slow", [this](Slice, std::string* resp) {
    server_->cpu()->Access(0, 500 * kMicrosecond);
    *resp = "late";
    return Status::OK();
  });
  const Timestamp deadline = env_.clock()->Now() + 100 * kMicrosecond;
  RpcCallOptions opts;
  opts.deadline = deadline;
  std::string resp;
  Status s = rpc.Call(client_, server_, "slow", Slice(""), &resp, opts);
  EXPECT_TRUE(s.IsTimedOut());
  // The handler runs synchronously on the caller's actor, so its work has
  // already carried virtual time past the deadline; the give-up applies to
  // the response wait and the delivered result, not the handler itself.
  EXPECT_GE(env_.clock()->Now(), deadline);
  EXPECT_TRUE(resp.empty());  // past-deadline responses are dropped

  // Without a deadline the same call completes and delivers its response.
  ASSERT_TRUE(rpc.Call(client_, server_, "slow", Slice(""), &resp).ok());
  EXPECT_EQ(resp, "late");
}

TEST_F(NetTest, CallScatterDeadlineDropsSlowCalls) {
  RpcTransport rpc(&env_);
  rpc.RegisterTimedService(
      server_, "slow",
      [](Slice, std::string* resp, Timestamp start, Timestamp* done) {
        *done = start + 1 * kMillisecond;
        *resp = "late";
        return Status::OK();
      });
  std::vector<RpcTransport::ScatterCall> calls;
  calls.push_back({server_, "slow", "req"});
  RpcCallOptions opts;
  opts.deadline = env_.clock()->Now() + 100 * kMicrosecond;
  std::vector<std::string> resps;
  auto statuses = rpc.CallScatter(client_, calls, &resps, 0, opts);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].IsTimedOut());
  EXPECT_TRUE(resps[0].empty());
  EXPECT_LE(env_.clock()->Now(), opts.deadline);
}

TEST_F(NetTest, FaultInjectionSkipDefersInjection) {
  pmem::PmemDevice pmem(1 << 16, false);
  RdmaFabric fabric(&env_);
  MemoryRegionId mr = fabric.RegisterMemory(server_, &pmem);
  // Fail exactly the third post: skip two, then inject once.
  env_.faults()->Arm("rdma.post", 1.0, Status::IOError("nic fault"),
                     /*remaining=*/1, /*skip=*/2);
  EXPECT_TRUE(fabric.Write(client_, mr, 0, Slice("x")).ok());
  EXPECT_TRUE(fabric.Write(client_, mr, 0, Slice("x")).ok());
  EXPECT_TRUE(fabric.Write(client_, mr, 0, Slice("x")).IsIOError());
  EXPECT_TRUE(fabric.Write(client_, mr, 0, Slice("x")).ok());
}

TEST_F(NetTest, FaultInjectionOnRdmaPost) {
  pmem::PmemDevice pmem(1 << 16, false);
  RdmaFabric fabric(&env_);
  MemoryRegionId mr = fabric.RegisterMemory(server_, &pmem);
  env_.faults()->Arm("rdma.post", 1.0, Status::IOError("nic fault"), 1);
  EXPECT_TRUE(fabric.Write(client_, mr, 0, Slice("x")).IsIOError());
  EXPECT_TRUE(fabric.Write(client_, mr, 0, Slice("x")).ok());
}

}  // namespace
}  // namespace vedb::net
