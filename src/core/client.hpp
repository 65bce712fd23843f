// Simulation-side API — the calls a simulation inserts around its
// computation loop.  The paper's usability claim is that instrumenting an
// application with Damaris takes "one line per data object":
//
//   client.write("theta", theta_view);          // each output variable
//   client.end_iteration();                     // once per time step
//
// write() costs one shared-memory copy (~the 0.1 s the paper measures at
// CM1's sizes); alloc()/commit() is the zero-copy variant where the
// simulation computes directly into the segment.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "common/stats.hpp"
#include "core/node_runtime.hpp"
#include "transport/transport.hpp"

namespace dedicore::core {

/// Zero-copy write in progress: the simulation fills `view` then commits.
struct AllocatedBlock {
  shm::BlockRef block;
  std::span<std::byte> view;
  VariableId variable = 0;
  std::uint64_t global_offset[4] = {0, 0, 0, 0};
  [[nodiscard]] bool valid() const noexcept { return !block.is_null(); }
};

/// Per-client observability (feeds the variability experiment E2).
struct ClientStats {
  std::uint64_t writes = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t iterations = 0;
  std::uint64_t skipped_iterations = 0;
  std::uint64_t dropped_blocks = 0;  ///< adaptive policy: low-priority sheds
  Summary write_time;        ///< seconds per write() call
  Summary end_iteration_time;
};

class Client {
 public:
  /// `client_index` is this rank's index among its server's clients
  /// (node-local in dedicated-cores mode, world-wide in dedicated-nodes
  /// mode); `transport` is the endpoint toward that server.
  Client(std::shared_ptr<NodeRuntime> node, int client_index,
         std::unique_ptr<transport::ClientTransport> transport);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Copies `data` into the shared segment and notifies the dedicated
  /// core.  `global_offset` (up to 4 entries, optional) places the block
  /// in the variable's global grid.
  ///
  /// Returns OK; ABORTED when the current iteration was dropped by the
  /// skip policy; INVALID_ARGUMENT on size mismatch with the layout.
  Status write(const std::string& variable, std::span<const std::byte> data,
               std::span<const std::uint64_t> global_offset = {});

  template <typename T>
  Status write(const std::string& variable, std::span<const T> values,
               std::span<const std::uint64_t> global_offset = {}) {
    return write(variable, std::as_bytes(values), global_offset);
  }

  /// Zero-copy: reserves the block and returns a writable view into the
  /// segment.  Returns an invalid AllocatedBlock when the iteration is
  /// being skipped.
  AllocatedBlock alloc(const std::string& variable,
                       std::span<const std::uint64_t> global_offset = {});

  /// Publishes a block obtained from alloc().
  Status commit(const AllocatedBlock& block);

  /// Fires a user-defined event (must be bound in <actions>).
  Status signal(const std::string& event);

  /// Closes the iteration: notifies the dedicated core (or reports the
  /// skip) and advances the iteration counter.
  Status end_iteration();

  /// Tells the dedicated core this client is done (sent once; idempotent).
  void stop();

  [[nodiscard]] Iteration iteration() const noexcept { return iteration_; }
  [[nodiscard]] bool iteration_skipped() const noexcept { return skipping_; }
  [[nodiscard]] ClientStats stats() const;

  /// Data-path counters of the underlying transport (shipped bytes etc.).
  [[nodiscard]] transport::TransportStats transport_stats() const {
    return transport_->stats();
  }

 private:
  /// Acquires per the backpressure policy; engages skip mode (or sheds a
  /// low-priority block under the adaptive policy) on failure.
  std::optional<shm::BlockRef> acquire_block(std::uint64_t size, int priority);

  /// Publishes a filled block per the backpressure policy: blocking under
  /// kBlock and for adaptive priority > 0, a try-publish otherwise.  A
  /// refused block is abandoned, then shed (adaptive) or its iteration
  /// skipped (skip_iteration).
  Status publish_block(const AllocatedBlock& block, int priority);

  std::shared_ptr<NodeRuntime> node_;
  int client_index_;
  std::unique_ptr<transport::ClientTransport> transport_;
  Iteration iteration_ = 0;
  bool skipping_ = false;
  bool stopped_ = false;
  std::map<VariableId, std::uint32_t> block_counters_;  ///< per-iteration

  std::uint64_t writes_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t skipped_iterations_ = 0;
  std::uint64_t dropped_blocks_ = 0;
  Histogram write_times_;
  Histogram end_iteration_times_;
};

}  // namespace dedicore::core
