#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

namespace sttbench {
namespace {

thread_local std::vector<std::uint32_t> t_open;  // open span ids, innermost last
thread_local std::uint32_t t_thread = 0;         // 0 = not yet assigned

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::current() { return t_open.empty() ? 0 : t_open.back(); }

std::uint32_t Tracer::open(std::string name, std::uint32_t cause) {
  if (t_thread == 0) t_thread = next_thread_.fetch_add(1) + 1;
  SpanRecord r;
  r.parent = current();
  r.cause = cause;
  r.thread = t_thread;
  r.name = std::move(name);
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::uint32_t>(spans_.size() + 1);
    r.id = id;
    spans_.push_back(std::move(r));
    spans_.back().start_ns = now_ns();
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  const std::uint64_t end = now_ns();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::vector<std::uint64_t> Tracer::self_times(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.duration_ns();
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t d = spans[i].duration_ns();
    self[i] = child_ns[i] >= d ? 0 : d - child_ns[i];
  }
  return self;
}

bool Tracer::children_fit(const std::vector<SpanRecord>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::vector<std::uint64_t> child_self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) child_self[spans[i].parent - 1] += self[i];
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (child_self[i] > spans[i].duration_ns()) return false;
  }
  return true;
}

std::string Tracer::to_json(const std::vector<SpanRecord>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"id\":%u,\"parent\":%u,\"cause\":%u,\"thread\":%u,"
                  "\"start_ns\":%llu,\"end_ns\":%llu,\"self_ns\":%llu,"
                  "\"name\":\"",
                  i == 0 ? "" : ",", s.id, s.parent, s.cause, s.thread,
                  static_cast<unsigned long long>(s.start_ns),
                  static_cast<unsigned long long>(s.end_ns),
                  static_cast<unsigned long long>(self[i]));
    out += buf;
    out += s.name;  // span names are fixed identifiers: no escaping needed
    out += "\"}";
  }
  out += "\n]\n";
  return out;
}

Span::Span(std::string name, std::uint32_t cause) {
  Tracer& t = Tracer::instance();
  if (t.enabled()) id_ = t.open(std::move(name), cause);
}

Span::~Span() {
  if (id_ != 0) Tracer::instance().close(id_);
}

}  // namespace sttbench
