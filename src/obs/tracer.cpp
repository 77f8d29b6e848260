#include "src/obs/tracer.hpp"

#include <cstring>

namespace paldia::obs {

bool Tracer::reserve(std::size_t n) {
  if (events_.size() + n > config_.event_capacity) {
    dropped_events_ += n;
    return false;
  }
  return true;
}

void Tracer::push(const TraceEvent& event) { events_.push_back(event); }

namespace {

/// Compose the 4-event decomposition of one completed request (parent
/// kRequest span + queue / dispatch / execute kPhase children) into out[0..3].
/// Shared by the per-request and bulk lifecycle paths so they stay
/// event-for-event identical.
void compose_lifecycle(TraceEvent* out, std::int64_t request_id,
                       models::ModelId model, hw::NodeType node,
                       cluster::ShareMode mode, int batch_size, int spatial,
                       int temporal, TimeMs arrival_ms, TimeMs submit_ms,
                       TimeMs start_ms, TimeMs end_ms, DurationMs solo_ms,
                       DurationMs interference_ms, DurationMs cold_ms) {
  TraceEvent event;
  event.mode = mode;
  event.model = static_cast<std::int16_t>(model);
  event.node = static_cast<std::int16_t>(node);
  event.batch_size = batch_size;
  event.spatial = spatial;
  event.temporal = temporal;
  event.id = request_id;

  event.type = TraceEvent::Type::kRequest;
  event.name = "request";
  event.start_ms = arrival_ms;
  event.end_ms = end_ms;
  event.solo_ms = solo_ms;
  event.interference_ms = interference_ms;
  event.cold_ms = cold_ms;
  out[0] = event;

  event.type = TraceEvent::Type::kPhase;
  event.solo_ms = 0.0;
  event.interference_ms = 0.0;
  event.cold_ms = 0.0;

  event.name = "queue";  // gateway wait + batch formation
  event.start_ms = arrival_ms;
  event.end_ms = submit_ms;
  out[1] = event;

  event.name = "dispatch";  // lane / container / cold-start waits on the node
  event.start_ms = submit_ms;
  event.end_ms = start_ms;
  event.cold_ms = cold_ms;
  out[2] = event;

  event.name = "execute";  // device execution (solo + interference stretch)
  event.start_ms = start_ms;
  event.end_ms = end_ms;
  event.solo_ms = solo_ms;
  event.interference_ms = interference_ms;
  event.cold_ms = 0.0;
  out[3] = event;
}

}  // namespace

bool Tracer::sample_keep(std::int64_t request_id, models::ModelId model,
                         TimeMs arrival_ms, TimeMs end_ms) {
  if (sampler_.pass_through()) return true;
  const auto m = static_cast<int>(model);
  const DurationMs slo =
      (m >= 0 && m < models::kModelCount) ? slo_ms_[static_cast<std::size_t>(m)]
                                          : kTimeNever;
  const bool violated = end_ms - arrival_ms > slo;
  if (sampler_.keep(request_id, violated)) return true;
  ++sampled_out_total_;
  return false;
}

void Tracer::record_request_lifecycle(std::int64_t request_id, models::ModelId model,
                                      hw::NodeType node, cluster::ShareMode mode,
                                      int batch_size, int spatial, int temporal,
                                      TimeMs arrival_ms, TimeMs submit_ms,
                                      TimeMs start_ms, TimeMs end_ms,
                                      DurationMs solo_ms, DurationMs interference_ms,
                                      DurationMs cold_ms) {
  if (!sample_keep(request_id, model, arrival_ms, end_ms)) return;
  // Parent + 3 phases are stored atomically so every retained request has a
  // complete, contiguous decomposition (phases sum to end - arrival).
  TraceEvent events[4];
  compose_lifecycle(events, request_id, model, node, mode, batch_size, spatial,
                    temporal, arrival_ms, submit_ms, start_ms, end_ms, solo_ms,
                    interference_ms, cold_ms);
  append_batch(std::span<const TraceEvent>(events, 4), 4);
}

void Tracer::record_batch_lifecycles(const cluster::Request* requests, int count,
                                     models::ModelId model, hw::NodeType node,
                                     cluster::ShareMode mode, int batch_size,
                                     int spatial, int temporal, TimeMs submit_ms,
                                     TimeMs start_ms, TimeMs end_ms,
                                     DurationMs solo_ms, DurationMs interference_ms,
                                     DurationMs cold_ms) {
  if (count <= 0) return;
  scratch_.resize(static_cast<std::size_t>(count) * 4);
  std::size_t kept = 0;
  for (int i = 0; i < count; ++i) {
    if (!sample_keep(requests[i].id.value, model, requests[i].arrival_ms, end_ms)) {
      continue;
    }
    compose_lifecycle(scratch_.data() + kept * 4, requests[i].id.value, model,
                      node, mode, batch_size, spatial, temporal,
                      requests[i].arrival_ms, submit_ms, start_ms, end_ms,
                      solo_ms, interference_ms, cold_ms);
    ++kept;
  }
  if (kept == 0) return;
  append_batch(std::span<const TraceEvent>(scratch_.data(), kept * 4), 4);
}

std::size_t Tracer::append_batch(std::span<const TraceEvent> events,
                                 std::size_t group_size) {
  if (events.empty()) return 0;
  if (group_size == 0) group_size = 1;
  const std::size_t room = events_.size() >= config_.event_capacity
                               ? 0
                               : config_.event_capacity - events_.size();
  // Accept only a leading whole number of groups: byte-for-byte the same
  // retained prefix as per-group reserve() calls hitting the cap in order.
  const std::size_t accepted = std::min(events.size(), room) / group_size * group_size;
  dropped_events_ += events.size() - accepted;
  if (accepted == 0) return 0;
  events_.insert(events_.end(), events.begin(),
                 events.begin() + static_cast<std::ptrdiff_t>(accepted));
  return accepted;
}

void Tracer::record_batch(std::int64_t batch_id, models::ModelId model,
                          hw::NodeType node, cluster::ShareMode mode, int batch_size,
                          TimeMs submit_ms, TimeMs start_ms, TimeMs end_ms,
                          DurationMs solo_ms, DurationMs cold_ms) {
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kBatch;
  event.mode = mode;
  event.model = static_cast<std::int16_t>(model);
  event.node = static_cast<std::int16_t>(node);
  event.batch_size = batch_size;
  event.id = batch_id;
  event.name = "batch";
  event.start_ms = start_ms;
  event.end_ms = end_ms;
  event.solo_ms = solo_ms;
  event.cold_ms = cold_ms;
  event.value = start_ms - submit_ms;  // lane/container wait
  push(event);
}

void Tracer::instant(const char* name, TimeMs now, hw::NodeType node, double value) {
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kInstant;
  event.name = name;
  event.node = static_cast<std::int16_t>(node);
  event.start_ms = event.end_ms = now;
  event.value = value;
  push(event);
}

void Tracer::instant(const char* name, TimeMs now, double value) {
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kInstant;
  event.name = name;
  event.start_ms = event.end_ms = now;
  event.value = value;
  push(event);
}

void Tracer::begin_span(const char* name, TimeMs now) {
  span_stack_.push_back(name);
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kSpanBegin;
  event.name = name;
  event.start_ms = event.end_ms = now;
  push(event);
}

void Tracer::end_span(const char* name, TimeMs now) {
  if (span_stack_.empty() || std::strcmp(span_stack_.back(), name) != 0) {
    ++unbalanced_;
    return;
  }
  span_stack_.pop_back();
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kSpanEnd;
  event.name = name;
  event.start_ms = event.end_ms = now;
  push(event);
}

void Tracer::count(const char* name, double delta) { counters_[name] += delta; }

void Tracer::gauge(const char* name, TimeMs now, double value, int model_tag) {
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kCounter;
  event.name = name;
  event.model = static_cast<std::int16_t>(model_tag);
  event.start_ms = event.end_ms = now;
  event.value = value;
  push(event);
}

void Tracer::sample_counters(TimeMs now) {
  for (const auto& [name, value] : counters_) {  // map order: deterministic
    if (!reserve(1)) return;
    TraceEvent event;
    event.type = TraceEvent::Type::kCounter;
    event.name = nullptr;  // dynamic name: exporters read counter_name
    event.counter_name = name.c_str();
    event.start_ms = event.end_ms = now;
    event.value = value;
    push(event);
  }
}

double Tracer::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

DecisionRecord* Tracer::begin_decision(TimeMs now, hw::NodeType current) {
  if (decisions_.size() >= config_.decision_capacity) {
    ++dropped_decisions_;
    open_decision_ = nullptr;
    return nullptr;
  }
  decisions_.emplace_back();
  open_decision_ = &decisions_.back();
  open_decision_->t_ms = now;
  open_decision_->current = current;
  open_decision_->final_choice = current;
  return open_decision_;
}

void Tracer::end_decision(hw::NodeType final_choice, bool switch_begun) {
  if (open_decision_ == nullptr) return;
  open_decision_->final_choice = final_choice;
  open_decision_->switch_begun = switch_begun;
  open_decision_ = nullptr;
}

void RunTrace::clear_slots() {
  node_names.clear();
  reps.clear();
  rollups.clear();
  profiles.clear();
  healths.clear();
}

void RunTrace::add_slot(const hw::Catalog& catalog) {
  std::vector<std::string> names = catalog.names();
  if (capture_events) reps.push_back(std::make_unique<Tracer>(config));
  if (collect_rollups) {
    rollups.push_back(std::make_unique<RollupAggregator>(rollup_config));
  }
  if (profile) profiles.push_back(std::make_unique<Profiler>());
  if (collect_health) healths.push_back(std::make_unique<HealthEngine>(health_config));
  node_names.push_back(std::move(names));
}

const std::string& RunTrace::node_name(std::size_t rep, int node) const {
  static const std::string kNone;
  if (rep >= node_names.size() || node < 0 ||
      static_cast<std::size_t>(node) >= node_names[rep].size()) {
    return kNone;
  }
  return node_names[rep][static_cast<std::size_t>(node)];
}

std::uint64_t RunTrace::dropped_events() const {
  std::uint64_t total = 0;
  for (const auto& rep : reps) {
    if (rep) total += rep->dropped_events();
  }
  return total;
}

std::uint64_t RunTrace::dropped_decisions() const {
  std::uint64_t total = 0;
  for (const auto& rep : reps) {
    if (rep) total += rep->dropped_decisions();
  }
  return total;
}

std::uint64_t RunTrace::sampled_out() const {
  std::uint64_t total = 0;
  for (const auto& rep : reps) {
    if (rep) total += rep->sampled_out_total();
  }
  return total;
}

}  // namespace paldia::obs
