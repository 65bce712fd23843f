#include "core/runtime.hpp"

#include <unordered_map>

#include "common/fault.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "transport/mpi_transport.hpp"
#include "transport/shm_transport.hpp"

namespace dedicore::core {

namespace {

/// Same-address-space handoff: a creator publishes a shared_ptr under an
/// id, peers fetch it by id received through the communicator.
class HandoffRegistry {
 public:
  std::uint64_t publish(std::shared_ptr<void> object) {
    MutexLock lock(mutex_);
    const std::uint64_t id = next_id_++;
    objects_.emplace(id, std::move(object));
    return id;
  }

  std::shared_ptr<void> fetch(std::uint64_t id) {
    MutexLock lock(mutex_);
    auto it = objects_.find(id);
    DEDICORE_CHECK(it != objects_.end(), "handoff: unknown id");
    return it->second;
  }

  void retire(std::uint64_t id) {
    MutexLock lock(mutex_);
    objects_.erase(id);
  }

  static HandoffRegistry& instance() {
    static HandoffRegistry r;
    return r;
  }

 private:
  /// Leaf lock: each registry method is a self-contained critical section.
  Mutex mutex_{"runtime.handoff"};
  std::unordered_map<std::uint64_t, std::shared_ptr<void>> objects_
      DEDICORE_GUARDED_BY(mutex_);
  std::uint64_t next_id_ DEDICORE_GUARDED_BY(mutex_) = 1;
};

/// Creator (rank 0 of `comm`) publishes, everyone ends up with the object.
template <typename T>
std::shared_ptr<T> share_over(minimpi::Comm& comm, std::shared_ptr<T> object) {
  std::uint64_t id = 0;
  if (comm.rank() == 0) id = HandoffRegistry::instance().publish(object);
  id = comm.bcast_value(id, 0);
  std::shared_ptr<T> out =
      std::static_pointer_cast<T>(HandoffRegistry::instance().fetch(id));
  comm.barrier();  // everyone holds a reference now
  if (comm.rank() == 0) HandoffRegistry::instance().retire(id);
  return out;
}

}  // namespace

/// Dedicated-cores mode (the paper's design): the last `dedicated_cores`
/// ranks of every node serve their node mates over shared memory.
Runtime Runtime::initialize_cores_mode(const Configuration& config,
                                       minimpi::Comm& world,
                                       fsim::FileSystem& fs,
                                       std::shared_ptr<IoScheduler> scheduler) {
  const int cpn = config.cores_per_node();
  if (world.size() % cpn != 0)
    throw ConfigError("world size " + std::to_string(world.size()) +
                      " is not a multiple of cores_per_node " +
                      std::to_string(cpn));

  const int node_id = world.rank() / cpn;
  const int node_rank = world.rank() % cpn;
  minimpi::Comm node_comm = world.split_by_node(cpn);

  // The node's first rank builds the shared state.
  std::shared_ptr<NodeRuntime> node;
  if (node_comm.rank() == 0)
    node = std::make_shared<NodeRuntime>(config, node_id, &fs, scheduler);
  node = share_over(node_comm, std::move(node));

  Runtime rt;
  rt.node_ = node;

  const bool is_client = node_rank < config.clients_per_node();
  // Clients get color 0 so the simulation can run world-like collectives
  // among computation cores only; servers get their own color.
  rt.client_comm_ = world.split(is_client ? 0 : 1, world.rank());

  if (is_client) {
    rt.client_ = std::make_unique<Client>(
        node, node_rank,
        std::make_unique<transport::ShmClientTransport>(
            node->fabric, node->server_of_client(node_rank), node_rank,
            node->faults));
  } else {
    const int server_index = node_rank - config.clients_per_node();
    rt.server_ = std::make_unique<Server>(
        node, server_index,
        std::make_unique<transport::ShmServerTransport>(node->fabric,
                                                        server_index),
        node->clients_of_server(server_index),
        config.effective_server_workers());
  }
  return rt;
}

/// Dedicated-nodes mode: the last `dedicated_nodes` ranks of the *world*
/// act as I/O nodes; every other rank computes and ships its blocks over
/// MPI to the I/O rank serving it (round-robin).
Runtime Runtime::initialize_nodes_mode(const Configuration& config,
                                       minimpi::Comm& world,
                                       fsim::FileSystem& fs,
                                       std::shared_ptr<IoScheduler> scheduler) {
  const int io_ranks = config.dedicated_nodes();
  // Configuration::validate() can only check dedicated_nodes > 0 — the
  // world size is a wiring-time fact.  Reject partitions with zero (or
  // negative) compute ranks here, on every rank, before any split: a
  // partial failure would leave the survivors deadlocked in collectives.
  if (io_ranks >= world.size())
    throw ConfigError(
        "dedicated_mode=nodes: dedicated_nodes=" + std::to_string(io_ranks) +
        " must be smaller than the world size (" +
        std::to_string(world.size()) +
        "); this run would have no compute ranks left");
  const int clients = world.size() - io_ranks;
  // Count of client ranks c in [0, clients) with c % io_ranks == server;
  // 0 when there are fewer clients than I/O ranks (such a server's run()
  // returns immediately).
  const auto clients_of = [&](int server) {
    return (clients - server + io_ranks - 1) / io_ranks;
  };

  // Credit sizing checks run on EVERY rank, against the most-loaded
  // server (server 0 takes the ceiling of the round-robin), so either the
  // whole world proceeds or the whole world throws — client-only throws
  // would strand the server ranks in run_server() waiting for stops.
  const std::uint64_t min_share =
      config.buffer_size() / static_cast<std::uint64_t>(clients_of(0));
  if (min_share == 0)
    throw ConfigError(
        "dedicated_mode=nodes: <buffer size> (" +
        std::to_string(config.buffer_size()) +
        " bytes) is smaller than the number of clients per I/O node (" +
        std::to_string(clients_of(0)) +
        "), leaving a zero-byte credit share; grow the buffer");
  // A block can never exceed the client's credit budget (in cores mode
  // the whole shared segment is the bound); surface that as the
  // configuration error it is instead of a permanent write failure.
  for (const LayoutSpec& layout : config.layouts()) {
    const std::uint64_t layout_aligned =
        (layout.byte_size() + 7) & ~std::uint64_t{7};
    if (layout_aligned > min_share)
      throw ConfigError(
          "dedicated_mode=nodes: layout '" + layout.name + "' (" +
          std::to_string(layout.byte_size()) +
          " bytes) exceeds the per-client credit share (" +
          std::to_string(min_share) +
          " bytes = buffer / clients-per-io-node); grow <buffer size> or "
          "add I/O nodes");
  }

  Runtime rt;
  const bool is_server = world.rank() >= clients;
  rt.client_comm_ = world.split(is_server ? 1 : 0, world.rank());

  if (is_server) {
    const int server = world.rank() - clients;
    // node_id = server index: output paths stay distinct per I/O node.
    auto node = std::make_shared<NodeRuntime>(config, server, &fs, scheduler,
                                              NodeRuntime::Role::kIoNode);
    rt.node_ = node;
    // A dedicated I/O rank models a whole I/O *node*: run a pool of
    // server workers (default: cores_per_node, matching the model layer's
    // full-width I/O nodes) draining the one MPI transport concurrently.
    rt.server_ = std::make_unique<Server>(
        node, /*server_index=*/0,
        std::make_unique<transport::MpiServerTransport>(world, node->fabric),
        clients_of(server), config.effective_server_workers());
  } else {
    auto node = std::make_shared<NodeRuntime>(config, world.rank(), &fs,
                                              scheduler,
                                              NodeRuntime::Role::kClientOnly);
    rt.node_ = node;
    const int server = world.rank() % io_ranks;
    // Each client gets an equal share of its server's segment as flow
    // credit — the distributed analogue of the shared bounded segment
    // (validated against the worst-case server above).
    const std::uint64_t share =
        config.buffer_size() / static_cast<std::uint64_t>(clients_of(server));
    rt.client_ = std::make_unique<Client>(
        node, world.rank(),
        std::make_unique<transport::MpiClientTransport>(
            world, clients + server, share, node->faults));
  }
  return rt;
}

Runtime Runtime::initialize(const Configuration& config, minimpi::Comm& world,
                            fsim::FileSystem& fs,
                            std::shared_ptr<IoScheduler> scheduler) {
  config.validate();
  // Every rank checks the fault-seed override before the first collective:
  // a malformed value then fails the whole world, not just the ranks that
  // build a NodeRuntime while their peers wait in share_over.
  if (!config.faults().empty())
    (void)fault::effective_seed(config.faults().seed);

  // Global scheduler: built by world rank 0 unless provided.
  if (world.rank() == 0 && scheduler == nullptr)
    scheduler = make_scheduler(config.storage().scheduler,
                               config.storage().max_concurrent_nodes);
  scheduler = share_over(world, std::move(scheduler));

  return config.dedicated_mode() == DedicatedMode::kNodes
             ? initialize_nodes_mode(config, world, fs, std::move(scheduler))
             : initialize_cores_mode(config, world, fs, std::move(scheduler));
}

Client& Runtime::client() {
  DEDICORE_CHECK(client_ != nullptr, "Runtime::client on a server rank");
  return *client_;
}

void Runtime::run_server() {
  DEDICORE_CHECK(server_ != nullptr, "Runtime::run_server on a client rank");
  server_->run();
}

ServerStats Runtime::server_stats() const {
  DEDICORE_CHECK(server_ != nullptr, "Runtime::server_stats on a client rank");
  return server_->stats();
}

Server& Runtime::server() {
  DEDICORE_CHECK(server_ != nullptr, "Runtime::server on a client rank");
  return *server_;
}

void Runtime::finalize() {
  if (client_ != nullptr) client_->stop();
}

}  // namespace dedicore::core
