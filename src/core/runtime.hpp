// Per-rank entry point of the middleware — the equivalent of
// damaris_initialize() in the original system.
//
// Given the world communicator and the XML configuration, initialize():
//  * carves per-node communicators (cores_per_node consecutive ranks);
//  * designates the last `dedicated_cores` ranks of each node as servers
//    and the rest as clients;
//  * builds one NodeRuntime per node (segment + queues + indexes), created
//    by the node's first rank and shared with its peers;
//  * creates the global I/O scheduler on world rank 0 and shares it;
//  * hands each rank its role object.
//
// Typical use inside a simulation's main:
//
//   auto rt = core::Runtime::initialize(config, world, fs);
//   if (rt.is_server()) { rt.run_server(); return; }
//   auto& client = rt.client();
//   for (int step = 0; step < n; ++step) {
//     compute(rt.client_comm());
//     client.write("theta", data);
//     client.end_iteration();
//   }
//   rt.finalize();
#pragma once

#include <memory>

#include "core/client.hpp"
#include "core/configuration.hpp"
#include "core/node_runtime.hpp"
#include "core/server.hpp"
#include "fsim/filesystem.hpp"
#include "minimpi/minimpi.hpp"

namespace dedicore::core {

class Runtime {
 public:
  /// Collective over `world` (all ranks must call it with an identical
  /// configuration).  world.size() must be a multiple of cores_per_node.
  /// `scheduler` may be pre-built (shared across an experiment); by
  /// default it is constructed from the configuration on rank 0.
  static Runtime initialize(const Configuration& config, minimpi::Comm& world,
                            fsim::FileSystem& fs,
                            std::shared_ptr<IoScheduler> scheduler = nullptr);

  Runtime(Runtime&&) = default;

  [[nodiscard]] bool is_server() const noexcept { return server_ != nullptr; }
  [[nodiscard]] int node_id() const noexcept { return node_->node_id; }

  /// Client-side handle; aborts when called on a server rank.
  [[nodiscard]] Client& client();

  /// Communicator spanning only the computation cores — the simulation
  /// runs its own collectives on this, never on world (the dedicated
  /// cores are invisible to it).  Invalid on server ranks.
  [[nodiscard]] minimpi::Comm& client_comm() noexcept { return client_comm_; }

  /// Runs the dedicated-core event loop; returns when all of this
  /// server's clients called finalize()/stop().  Server ranks only.
  void run_server();

  /// The event loop's statistics: a copy, complete once run_server
  /// returned (see Server::stats).
  [[nodiscard]] ServerStats server_stats() const;
  [[nodiscard]] Server& server();

  /// Shared node state (segment stats, config) — both roles.
  [[nodiscard]] NodeRuntime& node() noexcept { return *node_; }
  [[nodiscard]] const std::shared_ptr<NodeRuntime>& node_ptr() const noexcept {
    return node_;
  }

  /// Client ranks: send the stop event (idempotent).  Must be called
  /// before the world's threads join so servers terminate.
  void finalize();

 private:
  Runtime() = default;

  static Runtime initialize_cores_mode(const Configuration& config,
                                       minimpi::Comm& world,
                                       fsim::FileSystem& fs,
                                       std::shared_ptr<IoScheduler> scheduler);
  static Runtime initialize_nodes_mode(const Configuration& config,
                                       minimpi::Comm& world,
                                       fsim::FileSystem& fs,
                                       std::shared_ptr<IoScheduler> scheduler);

  std::shared_ptr<NodeRuntime> node_;
  std::unique_ptr<Client> client_;
  std::unique_ptr<Server> server_;
  minimpi::Comm client_comm_;
};

}  // namespace dedicore::core
