#include "qos/admission.h"

namespace vedb::qos {

void Ticket::Release() {
  if (controller_ == nullptr) return;
  controller_->ReleaseBytes(*tenant_, bytes_);
  controller_ = nullptr;
}

AdmissionController::Tenant::Tenant(sim::VirtualClock* clock,
                                    std::string tenant_name,
                                    const TenantConfig& config)
    : name(std::move(tenant_name)),
      bucket(clock, TokenBucket::Options{config.rate_bytes_per_sec,
                                         config.burst_bytes}) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::LabelSet labels = {{"tenant", name}};
  throttles = reg.GetCounter("qos.throttle", labels);
  admitted_bytes = reg.GetCounter("qos.admitted_bytes", labels);
  rejected = reg.GetCounter("qos.rejected", labels);
  throttle_wait_ns = reg.GetHistogram("qos.throttle_wait_ns", labels);
  tokens_gauge = reg.GetGauge("qos.tokens", labels);
  inflight_gauge = reg.GetGauge("qos.inflight_bytes", labels);
  queued_gauge = reg.GetGauge("qos.queued_bytes", labels);
}

AdmissionController::AdmissionController(sim::VirtualClock* clock,
                                         const Options& options)
    : clock_(clock),
      memory_(clock, GroupedMemoryLimiter::Options{
                         options.total_inflight_bytes}) {}

Status AdmissionController::RegisterTenant(const std::string& tenant,
                                           const TenantConfig& config) {
  vedb::MutexLock lk(&mu_);
  if (tenants_.count(tenant) != 0) {
    return Status::AlreadyExists("tenant already registered: " + tenant);
  }
  tenants_.emplace(tenant,
                   std::make_unique<Tenant>(clock_, tenant, config));
  memory_.RegisterGroup(tenant, config.max_inflight_bytes);
  return Status::OK();
}

AdmissionController::Tenant* AdmissionController::FindTenant(
    const std::string& tenant) const {
  vedb::MutexLock lk(&mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.get();
}

Result<Ticket> AdmissionController::Admit(const std::string& tenant,
                                          uint64_t bytes) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return Status::InvalidArgument("unknown tenant: " + tenant);
  }
  // Rate limit first: the grant is recorded even when delayed, so
  // concurrent producers of one tenant line up behind each other's debt
  // deterministically.
  const Timestamp now = clock_->Now();
  const Timestamp ready = t->bucket.Acquire(bytes);
  if (ready > now) {
    t->throttles->Add(1);
    t->throttle_wait_ns->Observe(ready - now);
    clock_->SleepUntil(ready);
  }
  // Then bound in-flight memory; parks through the virtual clock when the
  // tenant (or the shared pool) is saturated.
  t->queued_gauge->Add(static_cast<int64_t>(bytes));
  const Status mem = memory_.Acquire(tenant, bytes);
  t->queued_gauge->Add(-static_cast<int64_t>(bytes));
  if (!mem.ok()) {
    t->rejected->Add(1);
    return mem;
  }
  t->admitted_bytes->Add(bytes);
  t->inflight_gauge->Add(static_cast<int64_t>(bytes));
  t->tokens_gauge->Set(static_cast<int64_t>(t->bucket.TokensAvailable()));
  return Ticket(this, &t->name, bytes);
}

void AdmissionController::ReleaseBytes(const std::string& tenant,
                                       uint64_t bytes) {
  memory_.Release(tenant, bytes);
  Tenant* t = FindTenant(tenant);
  if (t != nullptr) t->inflight_gauge->Add(-static_cast<int64_t>(bytes));
}

uint64_t AdmissionController::ThrottleCount(const std::string& tenant) const {
  Tenant* t = FindTenant(tenant);
  return t == nullptr ? 0 : t->throttles->value();
}

uint64_t AdmissionController::InflightBytes(const std::string& tenant) const {
  return memory_.InflightBytes(tenant);
}

}  // namespace vedb::qos
