#include "obs/trace.h"

#include <algorithm>

#include "common/coding.h"
#include "sim/clock.h"
#include "sim/race_detector.h"

namespace vedb::obs {

std::atomic<Tracer*> Tracer::global_{nullptr};

namespace {
// Innermost-last stack of active contexts for the calling actor.
const sim::FiberLocal<std::vector<TraceContext>> context_stack;

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}
}  // namespace

void EncodeTraceContext(std::string* dst, const TraceContext& ctx) {
  PutFixed64(dst, ctx.trace_id);
  PutFixed64(dst, ctx.span_id);
}

bool DecodeTraceContext(Slice* in, TraceContext* ctx) {
  if (in->size() < kTraceContextWireSize) return false;
  ctx->trace_id = DecodeFixed64(in->data());
  ctx->span_id = DecodeFixed64(in->data() + 8);
  in->RemovePrefix(kTraceContextWireSize);
  return true;
}

void Tracer::SetGlobal(Tracer* tracer) {
  global_.store(tracer, std::memory_order_release);
}

TraceContext Tracer::CurrentContext() {
  const std::vector<TraceContext>& stack = context_stack.Get();
  return stack.empty() ? TraceContext{} : stack.back();
}

void Tracer::PushContext(const TraceContext& ctx) {
  context_stack.Get().push_back(ctx);
}

void Tracer::PopContext() { context_stack.Get().pop_back(); }

void Tracer::Record(Span span) {
  vedb::MutexLock lk(&mu_);
  sim::RaceAnnotate(&finished_, sizeof(finished_), /*is_write=*/true,
                    "Tracer::Record");
  finished_.push_back(std::move(span));
}

TraceContext Tracer::AddSpan(
    std::string name, TraceContext parent, Timestamp start, Timestamp end,
    std::vector<std::pair<std::string, std::string>> tags) {
  Span span;
  span.trace_id = parent.valid() ? parent.trace_id : NextTraceId();
  span.id = NextSpanId();
  span.parent_id = parent.valid() ? parent.span_id : 0;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  span.tags = std::move(tags);
  TraceContext ctx{span.trace_id, span.id};
  Record(std::move(span));
  return ctx;
}

std::vector<Span> Tracer::FinishedSpans() const {
  std::vector<Span> spans;
  {
    vedb::MutexLock lk(&mu_);
    sim::RaceAnnotate(&finished_, sizeof(finished_), /*is_write=*/false,
                      "Tracer::FinishedSpans");
    spans = finished_;
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
    if (a.start != b.start) return a.start < b.start;
    return a.id < b.id;
  });
  return spans;
}

std::vector<Span> Tracer::TraceSpans(uint64_t trace_id) const {
  std::vector<Span> spans = FinishedSpans();
  spans.erase(std::remove_if(spans.begin(), spans.end(),
                             [&](const Span& s) {
                               return s.trace_id != trace_id;
                             }),
              spans.end());
  return spans;
}

std::string Tracer::ToJson() const {
  std::string out = "[";
  bool first = true;
  for (const Span& s : FinishedSpans()) {
    if (!first) out += ",";
    first = false;
    char buf[256];
    snprintf(buf, sizeof(buf),
             "{\"trace_id\":%llu,\"span_id\":%llu,\"parent_id\":%llu,"
             "\"start_ns\":%llu,\"end_ns\":%llu,\"name\":\"",
             static_cast<unsigned long long>(s.trace_id),
             static_cast<unsigned long long>(s.id),
             static_cast<unsigned long long>(s.parent_id),
             static_cast<unsigned long long>(s.start),
             static_cast<unsigned long long>(s.end));
    out += buf;
    AppendJsonEscaped(&out, s.name);
    out += "\",\"tags\":{";
    bool first_tag = true;
    for (const auto& [k, v] : s.tags) {
      if (!first_tag) out += ",";
      first_tag = false;
      out += "\"";
      AppendJsonEscaped(&out, k);
      out += "\":\"";
      AppendJsonEscaped(&out, v);
      out += "\"";
    }
    out += "}}";
  }
  out += "]";
  return out;
}

void Tracer::Clear() {
  vedb::MutexLock lk(&mu_);
  sim::RaceAnnotate(&finished_, sizeof(finished_), /*is_write=*/true,
                    "Tracer::Clear");
  finished_.clear();
}

SpanScope::SpanScope(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  TraceContext parent = Tracer::CurrentContext();
  span_.trace_id = parent.valid() ? parent.trace_id : tracer_->NextTraceId();
  span_.id = tracer_->NextSpanId();
  span_.parent_id = parent.valid() ? parent.span_id : 0;
  span_.name = std::move(name);
  span_.start = tracer_->clock_->Now();
  ctx_ = TraceContext{span_.trace_id, span_.id};
  Tracer::PushContext(ctx_);
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) return;
  Tracer::PopContext();
  span_.end = tracer_->clock_->Now();
  tracer_->Record(std::move(span_));
}

void SpanScope::AddTag(std::string key, std::string value) {
  if (tracer_ == nullptr) return;
  span_.tags.emplace_back(std::move(key), std::move(value));
}

}  // namespace vedb::obs
