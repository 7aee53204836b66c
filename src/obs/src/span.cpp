#include "pw/obs/span.hpp"

#include <functional>
#include <thread>

namespace pw::obs {

namespace {

thread_local Span* t_current_span = nullptr;

std::uint64_t hashed_thread_id() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

}  // namespace

Span::Span(MetricsRegistry& registry, std::string_view name)
    : registry_(&registry), parent_(t_current_span) {
  // A live parent tracing into a *different* registry contributes neither
  // path prefix nor nesting — the two traces stay independent.
  if (parent_ != nullptr && parent_->registry_ == registry_) {
    path_ = parent_->path_ + "/";
  }
  path_ += name;
  start_s_ = registry_->now_s();
  t_current_span = this;
}

Span::~Span() {
  const double end_s = registry_->now_s();
  registry_->record_span(path_, start_s_, end_s - start_s_,
                         hashed_thread_id());
  t_current_span = parent_;
}

}  // namespace pw::obs
