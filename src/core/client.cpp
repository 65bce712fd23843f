#include "core/client.hpp"

#include <cstring>

#include "common/clock.hpp"

namespace dedicore::core {

Client::Client(std::shared_ptr<NodeRuntime> node, int client_index,
               std::unique_ptr<transport::ClientTransport> transport)
    : node_(std::move(node)),
      client_index_(client_index),
      transport_(std::move(transport)) {
  DEDICORE_CHECK(client_index >= 0, "Client: negative client_index");
  DEDICORE_CHECK(transport_ != nullptr, "Client: null transport");
}

Client::~Client() { stop(); }

std::optional<shm::BlockRef> Client::acquire_block(std::uint64_t size,
                                                   int priority) {
  switch (node_->config.policy()) {
    case BackpressurePolicy::kBlock:
      return transport_->acquire_blocking(size);
    case BackpressurePolicy::kSkipIteration: {
      auto ref = transport_->try_acquire(size);
      if (!ref) skipping_ = true;  // drop the rest of this iteration's output
      return ref;
    }
    case BackpressurePolicy::kAdaptive: {
      // Important variables keep the blocking guarantee; the rest is shed
      // block-by-block under pressure ("select portions of data carrying
      // important scientific value").
      if (priority > 0) return transport_->acquire_blocking(size);
      auto ref = transport_->try_acquire(size);
      if (!ref) ++dropped_blocks_;
      return ref;
    }
  }
  return std::nullopt;
}

Status Client::write(const std::string& variable,
                     std::span<const std::byte> data,
                     std::span<const std::uint64_t> global_offset) {
  Stopwatch timer;
  const VariableSpec& spec = node_->config.variable(variable);
  const LayoutSpec& layout = node_->config.layout_of(spec);
  if (data.size() != layout.byte_size())
    return Status::invalid_argument(
        "write('" + variable + "'): got " + std::to_string(data.size()) +
        " bytes, layout '" + layout.name + "' expects " +
        std::to_string(layout.byte_size()));
  if (global_offset.size() > 4)
    return Status::invalid_argument("global_offset has more than 4 entries");
  if (skipping_)
    return Status::aborted("iteration " + std::to_string(iteration_) +
                           " dropped by skip policy");

  auto ref = acquire_block(data.size(), spec.priority);
  if (!ref) {
    switch (node_->config.policy()) {
      case BackpressurePolicy::kSkipIteration:
        return Status::aborted("segment full; iteration dropped");
      case BackpressurePolicy::kAdaptive:
        return Status::aborted("segment full; low-priority block shed");
      case BackpressurePolicy::kBlock:
        break;
    }
    return Status::closed("transport closed");
  }
  std::memcpy(transport_->view(*ref).data(), data.data(), data.size());

  AllocatedBlock block;
  block.block = *ref;
  block.variable = spec.id;
  for (std::size_t i = 0; i < global_offset.size(); ++i)
    block.global_offset[i] = global_offset[i];
  const Status published = publish_block(block, spec.priority);
  if (published) write_times_.add(timer.elapsed_seconds());
  return published;
}

AllocatedBlock Client::alloc(const std::string& variable,
                             std::span<const std::uint64_t> global_offset) {
  const VariableSpec& spec = node_->config.variable(variable);
  const LayoutSpec& layout = node_->config.layout_of(spec);
  AllocatedBlock out;
  if (skipping_) return out;
  if (global_offset.size() > 4)
    throw ConfigError("alloc: global_offset has more than 4 entries");

  auto ref = acquire_block(layout.byte_size(), spec.priority);
  if (!ref) return out;
  out.block = *ref;
  out.view = transport_->view(*ref);
  out.variable = spec.id;
  for (std::size_t i = 0; i < global_offset.size(); ++i)
    out.global_offset[i] = global_offset[i];
  return out;
}

Status Client::commit(const AllocatedBlock& block) {
  Stopwatch timer;
  if (!block.valid())
    return Status::failed_precondition("commit of an invalid AllocatedBlock");
  const Status published =
      publish_block(block, node_->config.variable(block.variable).priority);
  if (published) write_times_.add(timer.elapsed_seconds());
  return published;
}

Status Client::publish_block(const AllocatedBlock& block, int priority) {
  Event event;
  event.type = EventType::kBlockWritten;
  event.source = client_index_;
  event.iteration = iteration_;
  event.variable = block.variable;
  event.block_id = block_counters_[block.variable]++;
  event.block = block.block;
  for (std::size_t i = 0; i < 4; ++i)
    event.global_offset[i] = block.global_offset[i];

  const BackpressurePolicy policy = node_->config.policy();
  if (policy == BackpressurePolicy::kBlock ||
      (policy == BackpressurePolicy::kAdaptive && priority > 0)) {
    if (!transport_->publish(event)) {
      transport_->abandon(block.block);
      return Status::closed("event channel closed");
    }
  } else if (!transport_->try_publish(event)) {
    transport_->abandon(block.block);
    if (policy == BackpressurePolicy::kAdaptive) {
      ++dropped_blocks_;
      return Status::aborted("event channel full; block shed");
    }
    skipping_ = true;
    return Status::aborted("event channel full; iteration dropped");
  }
  ++writes_;
  bytes_written_ += block.block.size;
  return Status::ok();
}

Status Client::signal(const std::string& event_name) {
  const int id = node_->signal_id(event_name);
  if (id < 0)
    return Status::not_found("no action bound to event '" + event_name + "'");
  Event event;
  event.type = EventType::kUserSignal;
  event.source = client_index_;
  event.iteration = iteration_;
  event.signal_id = static_cast<std::uint32_t>(id);
  if (!transport_->post(event)) return Status::closed("event channel closed");
  return Status::ok();
}

Status Client::end_iteration() {
  Stopwatch timer;
  Event event;
  event.source = client_index_;
  event.iteration = iteration_;
  event.type = skipping_ ? EventType::kIterationSkipped
                         : EventType::kEndIteration;
  if (skipping_) ++skipped_iterations_;
  if (!transport_->post(event)) return Status::closed("event channel closed");
  // The iteration close is the transport's flush point: everything the
  // iteration staged (the MPI backend batches publishes into one wire
  // frame) must be on its way before the simulation resumes computing.
  transport_->flush();

  skipping_ = false;
  block_counters_.clear();
  ++iteration_;
  end_iteration_times_.add(timer.elapsed_seconds());
  return Status::ok();
}

void Client::stop() {
  if (stopped_) return;
  stopped_ = true;
  Event event;
  event.type = EventType::kClientStop;
  event.source = client_index_;
  event.iteration = iteration_;
  transport_->post(event);
  transport_->flush();
}

ClientStats Client::stats() const {
  ClientStats s;
  s.writes = writes_;
  s.bytes_written = bytes_written_;
  s.iterations = static_cast<std::uint64_t>(iteration_);
  s.skipped_iterations = skipped_iterations_;
  s.dropped_blocks = dropped_blocks_;
  s.write_time = write_times_.summary();
  s.end_iteration_time = end_iteration_times_.summary();
  return s;
}

}  // namespace dedicore::core
