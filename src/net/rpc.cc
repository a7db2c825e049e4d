#include "net/rpc.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vedb::net {

namespace {

// Every request carries a 16-byte trace-context envelope ahead of the
// payload (the "RPC header"). It is always present — zeroed when tracing is
// off — so traced and untraced runs charge identical NIC time.
std::string Envelope(Slice request) {
  std::string wire;
  obs::EncodeTraceContext(&wire, obs::Tracer::CurrentContext());
  wire.append(request.data(), request.size());
  return wire;
}

// Splits an enveloped request back into (context, payload).
obs::TraceContext StripEnvelope(Slice* enveloped) {
  obs::TraceContext ctx;
  VEDB_CHECK(obs::DecodeTraceContext(enveloped, &ctx),
             "rpc request shorter than its trace envelope");
  return ctx;
}

}  // namespace

void RpcTransport::RecordCall(const std::string& service, Duration latency) {
  ServiceMetrics m;
  {
    vedb::MutexLock lk(&mu_);
    auto it = metrics_.find(service);
    if (it == metrics_.end()) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      it = metrics_
               .emplace(service,
                        ServiceMetrics{
                            reg.GetCounter("net.rpc.calls",
                                           {{"service", service}}),
                            reg.GetHistogram("net.rpc.latency_ns",
                                             {{"service", service}})})
               .first;
    }
    m = it->second;
  }
  m.calls->Add(1);
  m.latency_ns->Observe(latency);
}

void RpcTransport::RegisterService(sim::SimNode* node,
                                   const std::string& service,
                                   RpcHandler handler) {
  vedb::MutexLock lk(&mu_);
  services_[{node->name(), service}] = std::move(handler);
}

void RpcTransport::UnregisterService(sim::SimNode* node,
                                     const std::string& service) {
  vedb::MutexLock lk(&mu_);
  services_.erase({node->name(), service});
}

void RpcTransport::RegisterTimedService(sim::SimNode* node,
                                        const std::string& service,
                                        TimedRpcHandler handler) {
  vedb::MutexLock lk(&mu_);
  timed_services_[{node->name(), service}] = std::move(handler);
}

Duration RpcTransport::SchedJitter() {
  vedb::MutexLock lk(&mu_);
  if (options_.sched_jitter_mean == 0) return 0;
  return static_cast<Duration>(
      rng_.Exponential(static_cast<double>(options_.sched_jitter_mean)));
}

std::vector<Status> RpcTransport::CallScatter(
    sim::SimNode* client, const std::vector<ScatterCall>& calls,
    std::vector<std::string>* responses, int required_acks,
    const RpcCallOptions& opts) {
  const size_t n = calls.size();
  std::vector<Status> statuses(n, Status::OK());
  if (responses != nullptr) responses->assign(n, "");
  if (n == 0) return statuses;
  if (required_acks <= 0 || required_acks > static_cast<int>(n)) {
    required_acks = static_cast<int>(n);
  }

  Status injected = env_->faults()->MaybeFail("rpc.call");
  if (!injected.ok()) {
    for (auto& s : statuses) s = injected;
    return statuses;
  }

  const Timestamp begin = env_->clock()->Now();

  // One client-side syscall covers the batched submission.
  Timestamp t0 = client->cpu()->SubmitAt(begin, 0, options_.client_overhead);

  std::vector<Timestamp> completions(n, 0);
  for (size_t i = 0; i < n; ++i) {
    sim::SimNode* server = calls[i].server;
    const std::string wire_request = Envelope(Slice(calls[i].request));
    if (!server->alive()) {
      statuses[i] = Status::Unavailable("rpc target " + server->name() +
                                        " is down");
      completions[i] = t0 + options_.timeout_latency;
      continue;
    }
    if (!env_->faults()->Reachable(client->name(), server->name())) {
      statuses[i] = Status::Unavailable("rpc target " + server->name() +
                                        " is unreachable (network partition)");
      completions[i] = t0 + options_.timeout_latency;
      continue;
    }
    TimedRpcHandler handler;
    {
      vedb::MutexLock lk(&mu_);
      auto it = timed_services_.find({server->name(), calls[i].service});
      if (it == timed_services_.end()) {
        statuses[i] = Status::NotFound("no timed service " + calls[i].service +
                                       " on " + server->name());
        completions[i] = t0;
        continue;
      }
      handler = it->second;
    }
    // Request path to this server.
    Timestamp t = client->nic()->SubmitAt(t0, wire_request.size());
    t += options_.wire_latency;
    t = server->nic()->SubmitAt(t, wire_request.size());
    t = server->cpu()->SubmitAt(
        t, 0, server->config().rpc_dispatch_cost + SchedJitter());
    // Server work (non-blocking, reports its own completion) under the
    // context stripped off the wire.
    std::string resp;
    Timestamp done = t;
    {
      Slice payload(wire_request);
      obs::TraceContext rx = StripEnvelope(&payload);
      obs::ContextScope server_ctx(rx);
      statuses[i] = handler(payload, &resp, t, &done);
    }
    // Response path.
    Timestamp r = server->nic()->SubmitAt(done, resp.size());
    r += options_.wire_latency;
    r = client->nic()->SubmitAt(r, resp.size());
    completions[i] = r;
    if (responses != nullptr && statuses[i].ok()) {
      (*responses)[i] = std::move(resp);
    }
  }

  if (obs::Tracer* tracer = obs::Tracer::Global()) {
    const obs::TraceContext parent = obs::Tracer::CurrentContext();
    for (size_t i = 0; i < n; ++i) {
      tracer->AddSpan("rpc.call", parent, begin, completions[i],
                      {{"service", calls[i].service},
                       {"server", calls[i].server->name()}});
    }
  }
  for (size_t i = 0; i < n; ++i) {
    RecordCall(calls[i].service, completions[i] - begin);
  }

  // Deadline: the caller stops waiting at `opts.deadline`. Any call whose
  // completion lands past it is reported TimedOut and its response dropped
  // (the server-side work still happened; see RpcCallOptions).
  if (opts.deadline != 0) {
    for (size_t i = 0; i < n; ++i) {
      if (completions[i] > opts.deadline) {
        if (statuses[i].ok()) {
          statuses[i] = Status::TimedOut("rpc deadline exceeded on " +
                                         calls[i].service);
          if (responses != nullptr) (*responses)[i].clear();
        }
        completions[i] = opts.deadline;
      }
    }
  }

  // Wait for the k-th success (or for everything if not enough succeeded).
  std::vector<Timestamp> ok_times;
  Timestamp latest = t0;
  for (size_t i = 0; i < n; ++i) {
    latest = std::max(latest, completions[i]);
    if (statuses[i].ok()) ok_times.push_back(completions[i]);
  }
  Timestamp wake = latest;
  if (static_cast<int>(ok_times.size()) >= required_acks) {
    std::nth_element(ok_times.begin(), ok_times.begin() + required_acks - 1,
                     ok_times.end());
    wake = ok_times[required_acks - 1];
  }
  env_->clock()->SleepUntil(wake);
  return statuses;
}

std::vector<Status> RpcTransport::CallParallel(
    sim::SimNode* client, const std::vector<sim::SimNode*>& servers,
    const std::string& service, Slice request,
    std::vector<std::string>* responses, int required_acks) {
  std::vector<ScatterCall> calls;
  calls.reserve(servers.size());
  for (sim::SimNode* server : servers) {
    calls.push_back(ScatterCall{server, service, request.ToString()});
  }
  return CallScatter(client, calls, responses, required_acks);
}

Status RpcTransport::Call(sim::SimNode* client, sim::SimNode* server,
                          const std::string& service, Slice request,
                          std::string* response, const RpcCallOptions& opts) {
  VEDB_RETURN_IF_ERROR(env_->faults()->MaybeFail("rpc.call"));

  const Timestamp begin = env_->clock()->Now();
  obs::SpanScope span(obs::Tracer::Global(), "rpc.call");
  span.AddTag("service", service);
  span.AddTag("server", server->name());

  if (opts.deadline != 0 && begin >= opts.deadline) {
    return Status::TimedOut("rpc deadline already expired for " + service);
  }

  if (!server->alive()) {
    // A dead target burns the kernel timeout, but never past the deadline.
    Timestamp wake = begin + options_.timeout_latency;
    if (opts.deadline != 0 && opts.deadline < wake) wake = opts.deadline;
    env_->clock()->SleepUntil(wake);
    return Status::Unavailable("rpc target " + server->name() + " is down");
  }
  if (!env_->faults()->Reachable(client->name(), server->name())) {
    // A partitioned target is indistinguishable from a dead one to the
    // caller: same timeout burn, same status.
    Timestamp wake = begin + options_.timeout_latency;
    if (opts.deadline != 0 && opts.deadline < wake) wake = opts.deadline;
    env_->clock()->SleepUntil(wake);
    return Status::Unavailable("rpc target " + server->name() +
                               " is unreachable (network partition)");
  }

  RpcHandler handler;
  {
    vedb::MutexLock lk(&mu_);
    auto it = services_.find({server->name(), service});
    if (it == services_.end()) {
      return Status::NotFound("no service " + service + " on " +
                              server->name());
    }
    handler = it->second;
  }

  Duration sched_delay = 0;
  {
    vedb::MutexLock lk(&mu_);
    if (options_.sched_jitter_mean > 0) {
      sched_delay = static_cast<Duration>(
          rng_.Exponential(static_cast<double>(options_.sched_jitter_mean)));
    }
  }

  // The trace context rides ahead of the payload (see Envelope).
  const std::string wire_request = Envelope(request);

  // Request path: client kernel -> client NIC -> wire -> server NIC ->
  // server CPU (dispatch + scheduling delay).
  Timestamp t = env_->clock()->Now();
  t = client->cpu()->SubmitAt(t, 0, options_.client_overhead);
  t = client->nic()->SubmitAt(t, wire_request.size());
  t += options_.wire_latency;
  t = server->nic()->SubmitAt(t, wire_request.size());
  t = server->cpu()->SubmitAt(t, 0,
                              server->config().rpc_dispatch_cost + sched_delay);
  if (opts.deadline != 0 && t > opts.deadline) {
    // The caller gives up before the handler would even be dispatched, so
    // the handler never runs (no server-side effects for this case).
    env_->clock()->SleepUntil(opts.deadline);
    RecordCall(service, env_->clock()->Now() - begin);
    return Status::TimedOut("rpc deadline exceeded before dispatch of " +
                            service);
  }
  env_->clock()->SleepUntil(t);

  // Handler executes "on the server": it charges whatever devices it uses.
  // The transport strips the envelope and installs the decoded context, so
  // server-side spans attach under this call even though the handler runs
  // on the calling actor's thread.
  std::string resp;
  Status status;
  {
    Slice payload(wire_request);
    obs::TraceContext rx = StripEnvelope(&payload);
    obs::ContextScope server_ctx(rx);
    status = handler(payload, &resp);
  }

  // Response path.
  Timestamp r = env_->clock()->Now();
  r = server->nic()->SubmitAt(r, resp.size());
  r += options_.wire_latency;
  r = client->nic()->SubmitAt(r, resp.size());
  if (opts.deadline != 0 && r > opts.deadline) {
    // Handler already ran — its side effects stand — but the caller stops
    // waiting at the deadline and the response is dropped.
    env_->clock()->SleepUntil(opts.deadline);
    RecordCall(service, env_->clock()->Now() - begin);
    return Status::TimedOut("rpc deadline exceeded awaiting response of " +
                            service);
  }
  env_->clock()->SleepUntil(r);

  RecordCall(service, env_->clock()->Now() - begin);
  if (status.ok() && response != nullptr) *response = std::move(resp);
  return status;
}

}  // namespace vedb::net
