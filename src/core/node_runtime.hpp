// Per-node shared state: the transport fabric (shared-memory segment plus
// event queues), the block indexes, and the bindings that connect
// simulation cores to dedicated cores.
//
// In dedicated-cores mode one NodeRuntime exists per SMP node (created by
// the node's rank 0 during Runtime::initialize and handed to the other
// ranks of the node); with D dedicated cores per node, clients are
// partitioned round-robin across D (queue, index) pairs and the segment is
// shared by the whole node.  In dedicated-nodes mode every rank owns its
// private NodeRuntime: I/O ranks carry a fabric (residency for blocks
// received over MPI) and one index; client ranks carry neither.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "common/fault.hpp"
#include "core/block_index.hpp"
#include "core/configuration.hpp"
#include "core/emit_stage.hpp"
#include "core/scheduler.hpp"
#include "core/types.hpp"
#include "fsim/filesystem.hpp"
#include "storage/posix_backend.hpp"
#include "storage/sharded_backend.hpp"
#include "storage/sim_backend.hpp"
#include "storage/write_behind.hpp"
#include "transport/shm_transport.hpp"

namespace dedicore::core {

struct NodeRuntime {
  /// What this NodeRuntime backs: a whole SMP node (dedicated-cores mode),
  /// a dedicated I/O rank, or a client rank in dedicated-nodes mode.
  enum class Role { kSmpNode, kIoNode, kClientOnly };

  /// Dedicated-cores mode: shared fabric with one queue+index per
  /// dedicated core of the node.
  NodeRuntime(Configuration config_in, int node_id_in,
              fsim::FileSystem* fs_in, std::shared_ptr<IoScheduler> sched)
      : NodeRuntime(std::move(config_in), node_id_in, fs_in, std::move(sched),
                    Role::kSmpNode) {}

  NodeRuntime(Configuration config_in, int node_id_in,
              fsim::FileSystem* fs_in, std::shared_ptr<IoScheduler> sched,
              Role role_in)
      : config(std::move(config_in)),
        node_id(node_id_in),
        role(role_in),
        fs(fs_in),
        scheduler(std::move(sched)) {
    // One seeded injector per node, shared by every component with an
    // injection point; null (all probes skipped) on healthy runs.
    if (!config.faults().empty()) {
      faults = std::make_shared<fault::FaultInjector>(
          fault::effective_seed(config.faults().seed));
      for (const auto& spec : config.faults().faults) faults->arm(spec);
    }
    switch (role) {
      case Role::kSmpNode:
        servers_ = std::max(1, config.dedicated_cores());
        fabric = std::make_shared<transport::ShmFabric>(
            config.buffer_size(), servers_, config.queue_capacity());
        break;
      case Role::kIoNode:
        // Residency only: blocks received over MPI are re-homed here, so
        // no local event queues are needed.
        servers_ = 1;
        fabric = std::make_shared<transport::ShmFabric>(
            config.buffer_size(), /*queue_count=*/0, config.queue_capacity());
        break;
      case Role::kClientOnly:
        servers_ = 0;
        break;
    }
    indexes.reserve(static_cast<std::size_t>(servers_));
    for (int s = 0; s < servers_; ++s)
      indexes.push_back(std::make_unique<BlockIndex>());
    // Distinct event names bound in the configuration, for signal ids.
    for (const auto& action : config.actions()) {
      if (std::find(signal_names.begin(), signal_names.end(), action.event) ==
          signal_names.end())
        signal_names.push_back(action.event);
    }
    // Persistence: one StorageBackend per node, selected by the
    // configuration (both deployment modes flow through here).  The sim
    // backend wraps the experiment-wide simulator and keeps its modelled,
    // synchronous semantics; the posix backend writes real files and gets
    // an async write-behind queue drained by this node's server workers.
    if (role != Role::kClientOnly) {
      // The emit-path transform stage (codec resolution + adaptive skip)
      // sits in front of whichever backend is selected; it is shared by
      // every server of the node, so its counters are node-wide.
      emit = std::make_shared<EmitStage>(config);
      if (config.storage().backend == "posix") {
        if (!config.storage().roots.empty()) {
          // Sharded multi-root layout: chunking + placement + per-chunk
          // integrity over one PosixBackend per root.  Root i probes the
          // posix.* fault points with target i, so a plan can fail one
          // root of many.  The write-behind queue splits image jobs into
          // chunk jobs, so the node's server workers drain roots in
          // parallel.
          std::vector<std::filesystem::path> roots;
          for (const auto& root : config.storage().roots)
            roots.emplace_back(root);
          storage::ShardedOptions opts;
          if (config.storage().chunk_size > 0)
            opts.chunk_size = config.storage().chunk_size;
          opts.placement = storage::placement_policy_from_name(
              config.storage().placement);
          opts.placement_seed = config.storage().placement_seed;
          opts.replication = config.storage().replication;
          storage = std::make_shared<storage::ShardedBackend>(
              std::move(roots), opts, faults);
        } else {
          storage = std::make_shared<storage::PosixBackend>(
              std::filesystem::path(config.storage().path), faults);
        }
        const std::uint64_t budget = config.storage().write_behind_bytes > 0
                                         ? config.storage().write_behind_bytes
                                         : config.buffer_size();
        write_behind = std::make_shared<storage::WriteBehind>(
            *storage, budget, config.storage().retries, faults);
      } else if (fs != nullptr) {
        storage = std::make_shared<storage::SimBackend>(*fs);
      }
    }
  }

  /// Which dedicated core serves a given client index (cores mode).
  [[nodiscard]] int server_of_client(int client_index) const noexcept {
    return client_index % std::max(1, servers_);
  }

  /// How many clients a given dedicated core serves (cores mode).
  [[nodiscard]] int clients_of_server(int server_index) const noexcept {
    const int clients = config.clients_per_node();
    const int servers = std::max(1, servers_);  // 0 on kClientOnly ranks
    return clients / servers + (clients % servers > server_index ? 1 : 0);
  }

  /// Signal id for an event name; -1 when the name is not bound.
  [[nodiscard]] int signal_id(const std::string& event) const noexcept {
    for (std::size_t i = 0; i < signal_names.size(); ++i)
      if (signal_names[i] == event) return static_cast<int>(i);
    return -1;
  }

  /// The local block store (segment stats, pressure fixtures).  Aborts on
  /// dedicated-nodes client ranks, which have no local block residency.
  [[nodiscard]] shm::Segment& segment() noexcept {
    DEDICORE_CHECK(fabric != nullptr, "NodeRuntime: no fabric on this rank");
    return fabric->segment;
  }

  Configuration config;
  int node_id = 0;
  Role role = Role::kSmpNode;
  fsim::FileSystem* fs = nullptr;
  std::shared_ptr<IoScheduler> scheduler;
  /// The node's seeded fault injector; null (no faults armed) on healthy
  /// runs.  Shared by the transports, the storage backend, and the
  /// write-behind queue so one plan drives every injection point.
  std::shared_ptr<fault::FaultInjector> faults;
  /// Emit-path transform stage: per-variable codec resolution, adaptive
  /// store-raw decisions, and the node-wide compression counters.  Null
  /// only on dedicated-nodes client ranks.
  std::shared_ptr<EmitStage> emit;
  /// Persistence target of this node's storage-flavoured plugins and
  /// writers; null on dedicated-nodes client ranks (and on nodes built
  /// with neither a simulator nor a posix configuration).
  std::shared_ptr<storage::StorageBackend> storage;
  /// Async image queue in front of `storage`; non-null only for the posix
  /// backend.  Server workers drain it (see core::Server), and its byte
  /// budget turns a slow disk into pipeline backpressure.
  std::shared_ptr<storage::WriteBehind> write_behind;
  /// Segment + queues; shared across the node's ranks in cores mode,
  /// private to an I/O rank in nodes mode, null on nodes-mode clients.
  std::shared_ptr<transport::ShmFabric> fabric;
  std::vector<std::unique_ptr<BlockIndex>> indexes;
  std::vector<std::string> signal_names;

 private:
  int servers_ = 1;
};

}  // namespace dedicore::core
