// Transport conformance suite: the contract in transport/transport.hpp,
// exercised identically against both backends —
//   * ShmTransport: shared segment + bounded queues (dedicated cores),
//   * MpiTransport: payload shipping + credit flow control (dedicated
//     nodes).
// Covered: per-client FIFO ordering, backpressure primitives (try_acquire
// refusal, acquire_blocking wakeup on release), close/drain, no lost or
// duplicated blocks, payload integrity, and the backpressure *policy*
// semantics end-to-end through Runtime in both deployment modes.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "framework/test_infra.hpp"
#include "minimpi/minimpi.hpp"
#include "transport/mpi_transport.hpp"
#include "transport/shm_transport.hpp"

namespace dedicore {
namespace {

using transport::ClientTransport;
using transport::Event;
using transport::EventType;
using transport::ServerTransport;

enum class Backend { kShm, kMpi };

const char* backend_name(Backend b) {
  return b == Backend::kShm ? "shm" : "mpi";
}

struct HarnessOptions {
  int clients = 1;
  std::uint64_t capacity = 1 << 20;
  std::size_t queue_capacity = 256;
};

using ClientBody = std::function<void(ClientTransport&, int client_index)>;
using ServerBody = std::function<void(ServerTransport&)>;

/// Runs `client_body` on `clients` concurrent producers and `server_body`
/// on one consumer, wired through the chosen backend.  For the MPI backend
/// each client's credit budget is its equal share of `capacity`, matching
/// what Runtime::initialize hands out.
void run_backend(Backend backend, const HarnessOptions& options,
                 const ClientBody& client_body, const ServerBody& server_body) {
  if (backend == Backend::kShm) {
    auto fabric = std::make_shared<transport::ShmFabric>(
        options.capacity, /*queue_count=*/1, options.queue_capacity);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(options.clients) + 1);
    for (int c = 0; c < options.clients; ++c) {
      threads.emplace_back([&, c] {
        transport::ShmClientTransport client(fabric, 0);
        client_body(client, c);
      });
    }
    threads.emplace_back([&] {
      transport::ShmServerTransport server(fabric, 0);
      server_body(server);
    });
    for (auto& t : threads) t.join();
  } else {
    const int world_size = options.clients + 1;
    const std::uint64_t share =
        options.capacity / static_cast<std::uint64_t>(options.clients);
    minimpi::run_world(world_size, [&](minimpi::Comm& world) {
      if (world.rank() < options.clients) {
        transport::MpiClientTransport client(world, options.clients, share);
        client_body(client, world.rank());
      } else {
        auto fabric = std::make_shared<transport::ShmFabric>(
            options.capacity, /*queue_count=*/0, options.queue_capacity);
        transport::MpiServerTransport server(world, fabric);
        server_body(server);
      }
    });
  }
}

/// Fills a block with a recognizable pattern and publishes it.
void publish_block(ClientTransport& client, const shm::BlockRef& ref,
                   int source, std::uint32_t block_id, std::uint64_t stamp) {
  auto view = client.view(ref);
  for (std::size_t i = 0; i < view.size(); ++i)
    view[i] = static_cast<std::byte>((stamp + i) & 0xff);
  Event event;
  event.type = EventType::kBlockWritten;
  event.source = source;
  event.block_id = block_id;
  event.block = ref;
  ASSERT_TRUE(client.publish(event));
}

bool block_matches(ServerTransport& server, const Event& event,
                   std::uint64_t stamp) {
  const auto view = server.view(event.block);
  for (std::size_t i = 0; i < view.size(); ++i)
    if (view[i] != static_cast<std::byte>((stamp + i) & 0xff)) return false;
  return true;
}

void post_stop(ClientTransport& client, int source) {
  Event stop;
  stop.type = EventType::kClientStop;
  stop.source = source;
  ASSERT_TRUE(client.post(stop));
}

// ---------------------------------------------------------------------------
// Ordering
// ---------------------------------------------------------------------------

TEST(TransportConformanceTest, PerClientFifoOrderingPreserved) {
  for (Backend backend : {Backend::kShm, Backend::kMpi}) {
    SCOPED_TRACE(backend_name(backend));
    constexpr int kClients = 3;
    constexpr std::uint32_t kBlocks = 16;
    constexpr std::uint64_t kBlockSize = 256;

    HarnessOptions options;
    options.clients = kClients;
    options.capacity = 1 << 20;  // roomy: this test is about ordering

    run_backend(
        backend, options,
        [&](ClientTransport& client, int c) {
          for (std::uint32_t b = 0; b < kBlocks; ++b) {
            auto ref = client.acquire_blocking(kBlockSize);
            ASSERT_TRUE(ref.has_value());
            publish_block(client, *ref, c, b, c * 1000 + b);
          }
          post_stop(client, c);
        },
        [&](ServerTransport& server) {
          std::map<int, std::uint32_t> next_id;
          int stops = 0;
          while (stops < kClients) {
            auto event = server.next_event();
            ASSERT_TRUE(event.has_value());
            if (event->type == EventType::kClientStop) {
              // FIFO: a client's stop arrives after all its blocks.
              EXPECT_EQ(next_id[event->source], kBlocks);
              ++stops;
              continue;
            }
            ASSERT_EQ(event->type, EventType::kBlockWritten);
            // Blocks of one client arrive in publish order.
            EXPECT_EQ(event->block_id, next_id[event->source]);
            EXPECT_TRUE(block_matches(server, *event,
                                      event->source * 1000 + event->block_id));
            ++next_id[event->source];
            server.release(event->block);
          }
        });
  }
}

// ---------------------------------------------------------------------------
// Backpressure primitives
// ---------------------------------------------------------------------------

TEST(TransportConformanceTest, TryAcquireFailsWhenExhaustedAndRecoversOnAbandon) {
  for (Backend backend : {Backend::kShm, Backend::kMpi}) {
    SCOPED_TRACE(backend_name(backend));
    constexpr std::uint64_t kBlockSize = 1024;

    HarnessOptions options;
    options.clients = 1;
    options.capacity = 2 * kBlockSize;

    run_backend(
        backend, options,
        [&](ClientTransport& client, int c) {
          auto a = client.try_acquire(kBlockSize);
          auto b = client.try_acquire(kBlockSize);
          ASSERT_TRUE(a.has_value());
          ASSERT_TRUE(b.has_value());
          // The bounded resource is spent: refusal, not blocking.
          EXPECT_FALSE(client.try_acquire(kBlockSize).has_value());
          EXPECT_GE(client.stats().acquire_failures, 1u);
          // Returning a block restores the budget.
          client.abandon(*a);
          auto c2 = client.try_acquire(kBlockSize);
          EXPECT_TRUE(c2.has_value());
          if (c2) client.abandon(*c2);
          client.abandon(*b);
          post_stop(client, c);
        },
        [&](ServerTransport& server) {
          auto event = server.next_event();
          ASSERT_TRUE(event.has_value());
          EXPECT_EQ(event->type, EventType::kClientStop);
        });
  }
}

TEST(TransportConformanceTest, AcquireBlockingWakesWhenServerReleases) {
  for (Backend backend : {Backend::kShm, Backend::kMpi}) {
    SCOPED_TRACE(backend_name(backend));
    constexpr std::uint64_t kBlockSize = 1024;

    HarnessOptions options;
    options.clients = 1;
    options.capacity = 2 * kBlockSize;

    run_backend(
        backend, options,
        [&](ClientTransport& client, int c) {
          auto a = client.acquire_blocking(kBlockSize);
          auto b = client.acquire_blocking(kBlockSize);
          ASSERT_TRUE(a.has_value());
          ASSERT_TRUE(b.has_value());
          publish_block(client, *a, c, 0, 7);
          // Full: this can only complete once the server releases block 0
          // (segment space frees on shm, credit returns on mpi).
          auto blocked = client.acquire_blocking(kBlockSize);
          ASSERT_TRUE(blocked.has_value());
          client.abandon(*blocked);
          client.abandon(*b);
          post_stop(client, c);
        },
        [&](ServerTransport& server) {
          int stops = 0;
          while (stops < 1) {
            auto event = server.next_event();
            ASSERT_TRUE(event.has_value());
            if (event->type == EventType::kClientStop) {
              ++stops;
            } else {
              EXPECT_TRUE(block_matches(server, *event, 7));
              server.release(event->block);
            }
          }
          const auto stats = server.stats();
          if (stats.blocks_received_remote > 0) {  // mpi backend
            EXPECT_EQ(stats.bytes_received_remote, kBlockSize);
          }
        });
  }
}

// ---------------------------------------------------------------------------
// No loss, no duplication, payload integrity
// ---------------------------------------------------------------------------

TEST(TransportConformanceTest, NoBlockIsLostOrDuplicated) {
  for (Backend backend : {Backend::kShm, Backend::kMpi}) {
    SCOPED_TRACE(backend_name(backend));
    constexpr int kClients = 4;
    constexpr std::uint32_t kBlocks = 32;

    HarnessOptions options;
    options.clients = kClients;
    options.capacity = 4 << 20;

    run_backend(
        backend, options,
        [&](ClientTransport& client, int c) {
          for (std::uint32_t b = 0; b < kBlocks; ++b) {
            // Varying sizes exercise the allocator / wire path.
            const std::uint64_t size = 64 + 32 * (b % 7);
            auto ref = client.acquire_blocking(size);
            ASSERT_TRUE(ref.has_value());
            publish_block(client, *ref, c, b, c * 10000 + b * 13);
          }
          post_stop(client, c);
        },
        [&](ServerTransport& server) {
          std::map<std::pair<int, std::uint32_t>, int> seen;
          int stops = 0;
          while (stops < kClients) {
            auto event = server.next_event();
            ASSERT_TRUE(event.has_value());
            if (event->type == EventType::kClientStop) {
              ++stops;
              continue;
            }
            EXPECT_TRUE(block_matches(
                server, *event, event->source * 10000 + event->block_id * 13));
            ++seen[{event->source, event->block_id}];
            server.release(event->block);
          }
          ASSERT_EQ(seen.size(),
                    static_cast<std::size_t>(kClients) * kBlocks);  // none lost
          for (const auto& [key, count] : seen) EXPECT_EQ(count, 1);  // none duplicated
        });
  }
}

// ---------------------------------------------------------------------------
// Batching: FIFO and exactly-once must hold across flush boundaries
// ---------------------------------------------------------------------------

TEST(TransportConformanceTest, BatchingPreservesFifoAndExactlyOnceAcrossFlushBoundaries) {
  for (Backend backend : {Backend::kShm, Backend::kMpi}) {
    SCOPED_TRACE(backend_name(backend));
    constexpr int kClients = 2;
    constexpr int kIterations = 4;
    constexpr std::uint32_t kBlocksPerIteration = 6;
    constexpr std::uint64_t kBlockSize = 512;

    HarnessOptions options;
    options.clients = kClients;
    options.capacity = 1 << 20;

    std::vector<transport::TransportStats> client_stats(kClients);
    run_backend(
        backend, options,
        [&](ClientTransport& client, int c) {
          for (int it = 0; it < kIterations; ++it) {
            for (std::uint32_t b = 0; b < kBlocksPerIteration; ++b) {
              const std::uint32_t id =
                  static_cast<std::uint32_t>(it) * kBlocksPerIteration + b;
              auto ref = client.acquire_blocking(kBlockSize);
              ASSERT_TRUE(ref.has_value());
              auto view = client.view(*ref);
              const std::uint64_t stamp = c * 100000 + id * 7;
              for (std::size_t i = 0; i < view.size(); ++i)
                view[i] = static_cast<std::byte>((stamp + i) & 0xff);
              Event event;
              event.type = EventType::kBlockWritten;
              event.source = c;
              event.iteration = it;
              event.block_id = id;
              event.block = *ref;
              ASSERT_TRUE(client.publish(event));
              // A mid-iteration flush boundary: everything published so
              // far ships now, the rest of the iteration ships later —
              // the server must not be able to tell the difference.
              if (b == 2) client.flush();
            }
            Event end;
            end.type = EventType::kEndIteration;
            end.source = c;
            end.iteration = it;
            ASSERT_TRUE(client.post(end));  // the natural flush point
          }
          post_stop(client, c);
          client_stats[static_cast<std::size_t>(c)] = client.stats();
        },
        [&](ServerTransport& server) {
          std::map<int, std::uint32_t> next_id;
          std::map<int, std::vector<shm::BlockRef>> held;
          int stops = 0;
          while (stops < kClients) {
            auto event = server.next_event();
            ASSERT_TRUE(event.has_value());
            switch (event->type) {
              case EventType::kBlockWritten: {
                // FIFO across every flush boundary: ids strictly
                // sequential per client, each seen exactly once.
                ASSERT_EQ(event->block_id, next_id[event->source]);
                ++next_id[event->source];
                EXPECT_TRUE(block_matches(
                    server, *event,
                    event->source * 100000 + event->block_id * 7));
                held[event->source].push_back(event->block);
                break;
              }
              case EventType::kEndIteration: {
                // An iteration's blocks all precede its close event.
                ASSERT_EQ(next_id[event->source] % kBlocksPerIteration, 0u);
                // Release like a real server: end of the plugin pipeline
                // (on MPI this exercises frame-granular credit return).
                for (const auto& ref : held[event->source])
                  server.release(ref);
                held[event->source].clear();
                break;
              }
              case EventType::kClientStop:
                EXPECT_EQ(next_id[event->source],
                          kIterations * kBlocksPerIteration);
                ++stops;
                break;
              default:
                FAIL() << "unexpected event type";
            }
          }
        });

    for (int c = 0; c < kClients; ++c) {
      const auto& stats = client_stats[static_cast<std::size_t>(c)];
      EXPECT_EQ(stats.events_sent,
                static_cast<std::uint64_t>(kIterations) *
                        (kBlocksPerIteration + 1) + 1);
      if (backend == Backend::kMpi) {
        EXPECT_EQ(stats.blocks_shipped,
                  static_cast<std::uint64_t>(kIterations) * kBlocksPerIteration);
        // The aggregation claim: at most two frames per iteration (the
        // explicit mid-iteration flush + the close) plus the stop frame —
        // far fewer wire messages than events.
        EXPECT_GT(stats.wire_messages, 0u);
        EXPECT_LE(stats.wire_messages,
                  static_cast<std::uint64_t>(kIterations) * 2 + 1);
        EXPECT_LT(stats.wire_messages, stats.events_sent);
      } else {
        EXPECT_EQ(stats.blocks_shipped, 0u);  // zero-copy: nothing serialized
        EXPECT_EQ(stats.wire_messages, 0u);   // nothing crosses a wire
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent consumers: a worker pool draining one ServerTransport must
// preserve the whole contract — per-client FIFO, exactly-once — via the
// client→worker pinning rule (client c is observed only by worker c mod N).
// ---------------------------------------------------------------------------

TEST(TransportConformanceTest, ConcurrentConsumersPreserveFifoAndExactlyOnce) {
  for (Backend backend : {Backend::kShm, Backend::kMpi}) {
    SCOPED_TRACE(backend_name(backend));
    constexpr int kClients = 5;
    constexpr int kWorkers = 3;
    constexpr std::uint32_t kBlocks = 48;
    constexpr std::uint64_t kBlockSize = 192;

    HarnessOptions options;
    options.clients = kClients;
    options.capacity = 4 << 20;  // roomy: this test is about ordering

    // What each worker observed, in its own arrival order.
    std::vector<std::vector<Event>> per_worker(kWorkers);

    run_backend(
        backend, options,
        [&](ClientTransport& client, int c) {
          for (std::uint32_t b = 0; b < kBlocks; ++b) {
            auto ref = client.acquire_blocking(kBlockSize);
            ASSERT_TRUE(ref.has_value());
            publish_block(client, *ref, c, b, c * 1000 + b);
            // Occasional explicit flush boundaries (MPI) interleave frames
            // from different clients at the server's single recv point.
            if (b % 7 == 3) client.flush();
          }
          post_stop(client, c);
        },
        [&](ServerTransport& server) {
          server.set_worker_count(kWorkers);
          std::atomic<int> stops{0};
          std::vector<std::thread> workers;
          workers.reserve(kWorkers);
          for (int w = 0; w < kWorkers; ++w) {
            workers.emplace_back([&, w] {
              auto& seen = per_worker[static_cast<std::size_t>(w)];
              while (auto event = server.next_event(w)) {
                seen.push_back(*event);
                if (event->type == EventType::kBlockWritten) {
                  EXPECT_TRUE(block_matches(
                      server, *event,
                      event->source * 1000 + event->block_id));
                  server.release(event->block);
                } else if (event->type == EventType::kClientStop) {
                  // Ordered shutdown: the worker that consumes the final
                  // stop ends the stream; the others drain and see
                  // nullopt.  Mirrors core::Server's worker lifecycle.
                  if (stops.fetch_add(1) + 1 == kClients)
                    server.end_of_stream();
                }
              }
            });
          }
          for (auto& t : workers) t.join();
        });

    // Every client's stream lands on exactly its pinned worker, in FIFO
    // order, stop last, nothing lost, nothing duplicated.
    std::size_t total_events = 0;
    for (int w = 0; w < kWorkers; ++w) {
      std::map<int, std::uint32_t> next_id;
      std::map<int, bool> stopped;
      for (const Event& event : per_worker[static_cast<std::size_t>(w)]) {
        EXPECT_EQ(event.source % kWorkers, w) << "client not pinned";
        EXPECT_FALSE(stopped[event.source]) << "event after its client's stop";
        if (event.type == EventType::kClientStop) {
          EXPECT_EQ(next_id[event.source], kBlocks);
          stopped[event.source] = true;
        } else {
          ASSERT_EQ(event.type, EventType::kBlockWritten);
          EXPECT_EQ(event.block_id, next_id[event.source]++) << "FIFO broken";
        }
        ++total_events;
      }
    }
    EXPECT_EQ(total_events,
              static_cast<std::size_t>(kClients) * (kBlocks + 1));
  }
}

// ---------------------------------------------------------------------------
// Work stealing: one hot client carrying ~90% of the events over a 4-worker
// pool.  Under static pinning that client's worker serializes the pool;
// with stealing on, ownership of the hot client migrates to idle workers.
// The contract that must survive the migrations:
//  * exactly-once — every (client, block) delivered exactly once, payload
//    intact;
//  * per-client delivery order — each worker observes any client's blocks
//    with strictly increasing ids (its view is a subsequence of the
//    client's FIFO stream);
//  * control barrier — when a client's stop is handed out, every block
//    that client published has already been fully processed (the demux
//    holds controls back while earlier events of that client are in
//    flight on any worker);
//  * and at least one steal actually happened (the pool did not quietly
//    fall back to pinning).
// ---------------------------------------------------------------------------

TEST(TransportConformanceTest, SkewedClientStealingKeepsFifoAndExactlyOnce) {
  for (Backend backend : {Backend::kShm, Backend::kMpi}) {
    SCOPED_TRACE(backend_name(backend));
    constexpr int kClients = 8;
    constexpr int kWorkers = 4;
    constexpr std::uint32_t kHotBlocks = 126;  // client 0: 126 of 140 = 90%
    constexpr std::uint32_t kColdBlocks = 2;
    constexpr std::uint64_t kBlockSize = 256;

    HarnessOptions options;
    options.clients = kClients;
    options.capacity = 4 << 20;

    const auto blocks_of = [](int c) {
      return c == 0 ? kHotBlocks : kColdBlocks;
    };

    std::vector<std::vector<Event>> per_worker(kWorkers);
    std::array<std::atomic<std::uint32_t>, kClients> processed{};
    std::atomic<std::uint64_t> observed_steals{0};

    run_backend(
        backend, options,
        [&](ClientTransport& client, int c) {
          const std::uint32_t blocks = blocks_of(c);
          for (std::uint32_t b = 0; b < blocks; ++b) {
            auto ref = client.acquire_blocking(kBlockSize);
            ASSERT_TRUE(ref.has_value());
            publish_block(client, *ref, c, b, c * 1000 + b);
            if (b % 11 == 5) client.flush();
          }
          post_stop(client, c);
        },
        [&](ServerTransport& server) {
          transport::WorkerPoolOptions steal_on;
          steal_on.steal = true;
          steal_on.steal_threshold = 2;
          server.set_worker_count(kWorkers, steal_on);
          std::atomic<int> stops{0};
          std::vector<std::thread> workers;
          workers.reserve(kWorkers);
          for (int w = 0; w < kWorkers; ++w) {
            workers.emplace_back([&, w] {
              auto& seen = per_worker[static_cast<std::size_t>(w)];
              while (auto event = server.next_event(w)) {
                seen.push_back(*event);
                if (event->type == EventType::kBlockWritten) {
                  EXPECT_TRUE(block_matches(
                      server, *event,
                      event->source * 1000 + event->block_id));
                  server.release(event->block);
                  // Counted while the event is in flight — the control
                  // barrier below is exactly the promise that these
                  // increments happen-before the stop's delivery.
                  processed[static_cast<std::size_t>(event->source)]
                      .fetch_add(1);
                } else if (event->type == EventType::kClientStop) {
                  EXPECT_EQ(
                      processed[static_cast<std::size_t>(event->source)]
                          .load(),
                      blocks_of(event->source))
                      << "stop overtook an in-flight block of client "
                      << event->source;
                  if (stops.fetch_add(1) + 1 == kClients)
                    server.end_of_stream();
                }
              }
            });
          }
          for (auto& t : workers) t.join();
          observed_steals.store(server.stats().steals);
        });

    // Exactly-once across the pool, and per-(worker, client) ids strictly
    // increasing — each worker's view is a subsequence of the client FIFO.
    std::map<std::pair<int, std::uint32_t>, int> deliveries;
    for (int w = 0; w < kWorkers; ++w) {
      std::map<int, std::uint32_t> last_id;
      for (const Event& event : per_worker[static_cast<std::size_t>(w)]) {
        if (event.type != EventType::kBlockWritten) continue;
        ++deliveries[{event.source, event.block_id}];
        auto [it, first] = last_id.try_emplace(event.source, event.block_id);
        if (!first) {
          EXPECT_GT(event.block_id, it->second)
              << "client " << event.source << " reordered on worker " << w;
          it->second = event.block_id;
        }
      }
    }
    std::size_t total_blocks = 0;
    for (int c = 0; c < kClients; ++c) total_blocks += blocks_of(c);
    EXPECT_EQ(deliveries.size(), total_blocks);
    for (const auto& [key, count] : deliveries)
      EXPECT_EQ(count, 1) << "client " << key.first << " block " << key.second;
    EXPECT_GT(observed_steals.load(), 0u) << "hot client was never stolen";
  }
}

// ---------------------------------------------------------------------------
// Client death: client 3 is killed mid-iteration (blocks published, its
// iteration never closed, one block acquired but never published) under a
// 4-worker stealing pool.  The fault-tolerance contract:
//  * the abort is a gated control — every block the corpse published is
//    fully processed before kClientAborted is handed out;
//  * reclaim_client() frees what the corpse still held (shm: the liveness
//    ledger's unpublished block; mpi: credits for its blocks are swallowed
//    instead of being sent to a dead rank);
//  * the survivors are untouched: per-client FIFO and exactly-once hold
//    across the steal migrations, and the run terminates normally;
//  * afterwards nothing leaks — on shm the segment is back to empty.
// ---------------------------------------------------------------------------

TEST(TransportConformanceTest, ClientDeathMidIterationReclaimsAndSurvivorsComplete) {
  constexpr int kClients = 8;
  constexpr int kWorkers = 4;
  constexpr int kVictim = 3;
  constexpr std::uint32_t kBlocks = 24;        // survivors
  constexpr std::uint32_t kVictimBlocks = 3;   // published before death
  constexpr std::uint64_t kBlockSize = 256;
  constexpr std::uint64_t kCapacity = 4 << 20;

  const auto client_body = [&](ClientTransport& client, int c) {
    if (c == kVictim) {
      // Acquired but never published: only post-mortem reclaim (the shm
      // liveness ledger) can free this one.
      auto orphan = client.acquire_blocking(kBlockSize);
      ASSERT_TRUE(orphan.has_value());
      for (std::uint32_t b = 0; b < kVictimBlocks; ++b) {
        auto ref = client.acquire_blocking(kBlockSize);
        ASSERT_TRUE(ref.has_value());
        publish_block(client, *ref, c, b, c * 1000 + b);
      }
      client.flush();  // published work is on the wire before the death
      client.die();    // SIGKILL: no end_iteration, no stop, no cleanup
      EXPECT_TRUE(client.dead());
      // The corpse runs no code — whatever a zombie thread might still
      // attempt must be refused, not crash.
      EXPECT_FALSE(client.acquire_blocking(kBlockSize).has_value());
      Event late;
      late.type = EventType::kClientStop;
      late.source = c;
      EXPECT_FALSE(client.post(late));
      return;
    }
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      auto ref = client.acquire_blocking(kBlockSize);
      ASSERT_TRUE(ref.has_value());
      publish_block(client, *ref, c, b, c * 1000 + b);
      if (b % 7 == 3) client.flush();
    }
    post_stop(client, c);
  };

  struct Observed {
    std::vector<std::vector<Event>> per_worker;
    std::uint64_t clients_aborted = 0;
    std::uint64_t blocks_reclaimed = 0;
    std::uint64_t credits_reclaimed = 0;
  };

  const auto server_body = [&](ServerTransport& server, Observed& observed) {
    transport::WorkerPoolOptions steal_on;
    steal_on.steal = true;
    steal_on.steal_threshold = 2;
    server.set_worker_count(kWorkers, steal_on);
    std::atomic<int> finished{0};  // stops + aborts
    std::mutex held_mutex;
    std::vector<shm::BlockRef> victim_held;
    std::array<std::atomic<std::uint32_t>, kClients> processed{};
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        auto& seen = observed.per_worker[static_cast<std::size_t>(w)];
        while (auto event = server.next_event(w)) {
          seen.push_back(*event);
          switch (event->type) {
            case EventType::kBlockWritten:
              EXPECT_TRUE(block_matches(
                  server, *event, event->source * 1000 + event->block_id));
              if (event->source == kVictim) {
                // Mid-iteration: a real server holds blocks until the
                // iteration closes — the victim's never does.
                std::lock_guard<std::mutex> lock(held_mutex);
                victim_held.push_back(event->block);
              } else {
                server.release(event->block);
              }
              processed[static_cast<std::size_t>(event->source)].fetch_add(1);
              break;
            case EventType::kClientAborted: {
              EXPECT_EQ(event->source, kVictim);
              // The abort is gated like a stop: every block the corpse
              // published was processed before it was handed out.
              EXPECT_EQ(
                  processed[static_cast<std::size_t>(kVictim)].load(),
                  kVictimBlocks)
                  << "abort overtook an in-flight block of the dead client";
              // Reclaim FIRST (mark dead), then drop the partial
              // iteration — on mpi the credits for these blocks must be
              // swallowed, not shipped to the corpse.  The second call
              // checks the contract's idempotence: one death, one count.
              server.reclaim_client(event->source);
              server.reclaim_client(event->source);
              std::vector<shm::BlockRef> drop;
              {
                std::lock_guard<std::mutex> lock(held_mutex);
                drop.swap(victim_held);
              }
              for (const auto& ref : drop) server.release(ref);
              if (finished.fetch_add(1) + 1 == kClients)
                server.end_of_stream();
              break;
            }
            case EventType::kClientStop:
              EXPECT_NE(event->source, kVictim) << "the dead spoke";
              EXPECT_EQ(
                  processed[static_cast<std::size_t>(event->source)].load(),
                  kBlocks);
              if (finished.fetch_add(1) + 1 == kClients)
                server.end_of_stream();
              break;
            default:
              ADD_FAILURE() << "unexpected event type";
          }
        }
      });
    }
    for (auto& t : workers) t.join();
    const auto stats = server.stats();
    observed.clients_aborted = stats.clients_aborted;
    observed.blocks_reclaimed = stats.blocks_reclaimed;
    observed.credits_reclaimed = stats.credits_reclaimed;
  };

  const auto verify_survivors = [&](const Observed& observed) {
    // Exactly-once and per-(worker, client) FIFO subsequences, steal
    // migrations notwithstanding; the victim contributes at most its
    // pre-death blocks, exactly once each.
    std::map<std::pair<int, std::uint32_t>, int> deliveries;
    for (int w = 0; w < kWorkers; ++w) {
      std::map<int, std::uint32_t> last_id;
      for (const Event& event :
           observed.per_worker[static_cast<std::size_t>(w)]) {
        if (event.type != EventType::kBlockWritten) continue;
        ++deliveries[{event.source, event.block_id}];
        auto [it, first] = last_id.try_emplace(event.source, event.block_id);
        if (!first) {
          EXPECT_GT(event.block_id, it->second)
              << "client " << event.source << " reordered on worker " << w;
          it->second = event.block_id;
        }
      }
    }
    EXPECT_EQ(deliveries.size(),
              static_cast<std::size_t>(kClients - 1) * kBlocks + kVictimBlocks);
    for (const auto& [key, count] : deliveries)
      EXPECT_EQ(count, 1) << "client " << key.first << " block " << key.second;
    EXPECT_EQ(observed.clients_aborted, 1u);
  };

  {
    SCOPED_TRACE("shm");
    auto fabric = std::make_shared<transport::ShmFabric>(
        kCapacity, /*queue_count=*/1, /*queue_capacity=*/256);
    Observed observed;
    observed.per_worker.resize(kWorkers);
    std::vector<std::thread> threads;
    threads.reserve(kClients + 1);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        transport::ShmClientTransport client(fabric, 0, /*client_index=*/c);
        client_body(client, c);
      });
    }
    threads.emplace_back([&] {
      transport::ShmServerTransport server(fabric, 0);
      server_body(server, observed);
    });
    for (auto& t : threads) t.join();
    verify_survivors(observed);
    // The liveness ledger reclaimed the acquired-but-unpublished block...
    EXPECT_EQ(observed.blocks_reclaimed, 1u);
    // ...and with every published block released too, nothing pins the
    // segment: a leaked byte here is a permanent leak in a real node.
    EXPECT_EQ(fabric->segment.used(), 0u);
  }
  {
    SCOPED_TRACE("mpi");
    Observed observed;
    observed.per_worker.resize(kWorkers);
    const std::uint64_t share = kCapacity / kClients;
    minimpi::run_world(kClients + 1, [&](minimpi::Comm& world) {
      if (world.rank() < kClients) {
        transport::MpiClientTransport client(world, kClients, share);
        client_body(client, world.rank());
      } else {
        auto fabric = std::make_shared<transport::ShmFabric>(
            kCapacity, /*queue_count=*/0, /*queue_capacity=*/256);
        transport::MpiServerTransport server(world, fabric);
        server_body(server, observed);
      }
    });
    verify_survivors(observed);
    // The victim's held blocks were released after reclaim_client: their
    // frame credits were swallowed instead of being sent to the corpse.
    EXPECT_GT(observed.credits_reclaimed, 0u);
  }
}

// ---------------------------------------------------------------------------
// Zombie controls: once a client's abort has been consumed, controls of
// that client still sitting in (or later reaching) the demux are
// cancelled — nothing must ever wait on a barrier whose client is dead —
// while its stray blocks still flow so the server can release them.
// ---------------------------------------------------------------------------

TEST(TransportConformanceTest, DemuxCancelsZombieControlsAfterAbort) {
  auto fabric = std::make_shared<transport::ShmFabric>(1 << 16, 1, 64);
  transport::ShmServerTransport server(fabric, 0);

  const auto make_block = [&](std::uint32_t id) {
    auto ref = fabric->segment.try_allocate(128);
    EXPECT_TRUE(ref.has_value());
    Event event;
    event.type = EventType::kBlockWritten;
    event.source = 0;
    event.block_id = id;
    event.block = *ref;
    return event;
  };

  // A node monitor's view of a crashed client: a legitimate block, then
  // the injected abort — and then stragglers that raced the monitor (a
  // control that must be cancelled, a block that must still flow).
  ASSERT_TRUE(fabric->queues[0]->push(make_block(0)));
  Event abort_event;
  abort_event.type = EventType::kClientAborted;
  abort_event.source = 0;
  ASSERT_TRUE(fabric->queues[0]->push(abort_event));
  Event zombie_control;
  zombie_control.type = EventType::kEndIteration;
  zombie_control.source = 0;
  ASSERT_TRUE(fabric->queues[0]->push(zombie_control));
  ASSERT_TRUE(fabric->queues[0]->push(make_block(1)));
  Event stop;
  stop.type = EventType::kClientStop;
  stop.source = 1;
  ASSERT_TRUE(fabric->queues[0]->push(stop));

  server.set_worker_count(2);
  std::atomic<int> dead_client_events{0};
  std::atomic<int> stops{0};
  std::atomic<bool> zombie_control_delivered{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      while (auto event = server.next_event(w)) {
        if (event->source == 0) {
          if (event->type == EventType::kEndIteration)
            zombie_control_delivered.store(true);
          if (event->type == EventType::kBlockWritten)
            server.release(event->block);
          ++dead_client_events;
        } else if (event->type == EventType::kClientStop) {
          ++stops;
        }
        // Expected stream: block 0, abort, block 1 (flows), stop — the
        // zombie end-iteration is cancelled, never handed to a worker.
        if (stops.load() == 1 && dead_client_events.load() >= 3)
          server.end_of_stream();
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_FALSE(zombie_control_delivered.load())
      << "a dead client's control reached a worker";
  EXPECT_EQ(dead_client_events.load(), 3);
  EXPECT_EQ(server.stats().controls_cancelled, 1u);
  EXPECT_EQ(fabric->segment.used(), 0u);
}

// ---------------------------------------------------------------------------
// Credit accounting: a request larger than the whole budget must fail fast
// on BOTH acquire flavors (the blocking one used to be able to wait forever
// on credit that could never cover it — this test hangs, and times the
// suite out, on a regression).
// ---------------------------------------------------------------------------

TEST(TransportConformanceTest, MpiAcquireFlavorsAgreeOnCanNeverFit) {
  constexpr std::uint64_t kBudget = 4096;
  minimpi::run_world(2, [&](minimpi::Comm& world) {
    if (world.rank() == 0) {
      transport::MpiClientTransport client(world, 1, kBudget);
      EXPECT_FALSE(client.try_acquire(kBudget + 1).has_value());
      EXPECT_FALSE(client.acquire_blocking(kBudget + 1).has_value());
      EXPECT_GE(client.stats().acquire_failures, 2u);
      // The budget itself still fits on both paths.
      auto a = client.try_acquire(kBudget);
      ASSERT_TRUE(a.has_value());
      client.abandon(*a);
      auto b = client.acquire_blocking(kBudget);
      ASSERT_TRUE(b.has_value());
      client.abandon(*b);
      post_stop(client, 0);
    } else {
      auto fabric =
          std::make_shared<transport::ShmFabric>(kBudget, /*queue_count=*/0, 8);
      transport::MpiServerTransport server(world, fabric);
      auto event = server.next_event();
      ASSERT_TRUE(event.has_value());
      EXPECT_EQ(event->type, EventType::kClientStop);
    }
  });
}

// ---------------------------------------------------------------------------
// Close / drain (shm: an explicit close exists; both: stop-drain protocol)
// ---------------------------------------------------------------------------

TEST(TransportConformanceTest, ShmCloseDrainsThenRefuses) {
  auto fabric = std::make_shared<transport::ShmFabric>(1 << 16, 1, 8);
  transport::ShmClientTransport client(fabric, 0);
  transport::ShmServerTransport server(fabric, 0);

  for (std::uint32_t b = 0; b < 3; ++b) {
    auto ref = client.try_acquire(128);
    ASSERT_TRUE(ref.has_value());
    Event event;
    event.type = EventType::kBlockWritten;
    event.source = 0;
    event.block_id = b;
    event.block = *ref;
    ASSERT_TRUE(client.publish(event));
  }
  server.close_intake();

  // Published events drain in order after close...
  for (std::uint32_t b = 0; b < 3; ++b) {
    auto event = server.next_event();
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->block_id, b);
    server.release(event->block);
  }
  // ...then the transport reports end-of-stream,
  EXPECT_FALSE(server.next_event().has_value());
  // and further publishes are refused rather than silently dropped.
  auto ref = client.try_acquire(128);
  ASSERT_TRUE(ref.has_value());
  Event late;
  late.type = EventType::kBlockWritten;
  late.block = *ref;
  EXPECT_FALSE(client.publish(late));
  EXPECT_STATUS(client.try_publish(late), StatusCode::kClosed);
  EXPECT_FALSE(client.post(late));
  client.abandon(*ref);
}

// ---------------------------------------------------------------------------
// Backpressure *policy* semantics end-to-end, in both deployment modes
// ---------------------------------------------------------------------------

/// Adaptive policy through the full Runtime: a buffer sized to 1.5 blocks
/// admits each iteration's priority-1 block and deterministically refuses
/// the priority-0 block on top of it (the precious block stays resident
/// until the iteration completes server-side).  The same invariant must
/// hold whether the bound is a shared segment (cores) or a credit budget
/// (nodes).
void run_adaptive_policy_scenario(core::DedicatedMode mode) {
  const std::uint64_t block_bytes = 8 * 8 * 8 * sizeof(double);
  core::Configuration cfg;
  cfg.set_simulation_name("policy");
  cfg.set_architecture(2, 1);
  cfg.set_dedicated_mode(mode, 1);
  cfg.set_buffer(block_bytes + block_bytes / 2, 64,
                 core::BackpressurePolicy::kAdaptive);
  core::LayoutSpec layout;
  layout.name = "grid";
  layout.extents = {8, 8, 8};
  cfg.add_layout(layout);
  core::VariableSpec precious;
  precious.name = "precious";
  precious.layout = "grid";
  precious.priority = 1;
  cfg.add_variable(precious);
  core::VariableSpec bulk;
  bulk.name = "bulk";
  bulk.layout = "grid";
  cfg.add_variable(bulk);
  core::ActionSpec store;
  store.event = "end_iteration";
  store.plugin = "store";
  cfg.add_action(store);
  cfg.validate();

  constexpr int kIterations = 6;
  fsim::StorageConfig storage;
  storage.ost_count = 2;
  storage.ost_bandwidth = 400e6;
  storage.jitter_sigma = 0.0;
  storage.spike_probability = 0.0;
  storage.interference_on_rate = 0.0;
  fsim::TimeScale scale;
  scale.real_per_sim = 1e-3;
  fsim::FileSystem fs(storage, scale);

  std::uint64_t precious_failures = 0, dropped = 0, remote_blocks = 0;
  std::vector<double> field(8 * 8 * 8, 1.5);
  minimpi::run_world(2, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      remote_blocks = rt.server().transport_stats().blocks_received_remote;
      return;
    }
    core::Client& client = rt.client();
    for (int it = 0; it < kIterations; ++it) {
      if (!client.write("precious", std::span<const double>(field)).is_ok())
        ++precious_failures;
      (void)client.write("bulk", std::span<const double>(field));
      ASSERT_OK(client.end_iteration());
    }
    rt.finalize();
    dropped = client.stats().dropped_blocks;
  });

  EXPECT_EQ(precious_failures, 0u);
  EXPECT_EQ(dropped, static_cast<std::uint64_t>(kIterations));
  if (mode == core::DedicatedMode::kNodes) {
    EXPECT_EQ(remote_blocks, static_cast<std::uint64_t>(kIterations));
  } else {
    EXPECT_EQ(remote_blocks, 0u);
  }
}

TEST(TransportPolicyTest, IoNodesWithoutClientsTerminate) {
  // More I/O ranks than clients: world of 4 with dedicated_nodes=3 leaves
  // a single client, served by I/O rank 0 only.  Servers 1 and 2 must see
  // client_count == 0 and return from run() immediately instead of
  // blocking forever on an event that never comes.
  core::Configuration cfg;
  cfg.set_simulation_name("sparse");
  cfg.set_architecture(2, 1);
  cfg.set_dedicated_mode(core::DedicatedMode::kNodes, 3);
  cfg.set_buffer(1 << 20, 64, core::BackpressurePolicy::kBlock);
  core::LayoutSpec layout;
  layout.name = "grid";
  layout.extents = {8};
  cfg.add_layout(layout);
  core::VariableSpec v;
  v.name = "field";
  v.layout = "grid";
  cfg.add_variable(v);
  core::ActionSpec store;
  store.event = "end_iteration";
  store.plugin = "store";
  cfg.add_action(store);
  cfg.validate();

  fsim::StorageConfig storage;
  storage.jitter_sigma = 0.0;
  storage.spike_probability = 0.0;
  storage.interference_on_rate = 0.0;
  fsim::FileSystem fs(storage, fsim::TimeScale{1e-3, 0.01});

  std::atomic<int> servers_done{0};
  minimpi::run_world(4, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();  // must return even with zero clients
      ++servers_done;
      return;
    }
    std::vector<double> field(8, 2.0);
    ASSERT_OK(rt.client().write("field", std::span<const double>(field)));
    ASSERT_OK(rt.client().end_iteration());
    rt.finalize();
  });
  EXPECT_EQ(servers_done.load(), 3);
  EXPECT_EQ(fs.file_count(), 1u);  // only server 0 had work
}

TEST(TransportPolicyTest, AdaptivePolicyHoldsOnShmBackend) {
  run_adaptive_policy_scenario(core::DedicatedMode::kCores);
}

TEST(TransportPolicyTest, AdaptivePolicyHoldsOnMpiBackend) {
  run_adaptive_policy_scenario(core::DedicatedMode::kNodes);
}

}  // namespace
}  // namespace dedicore
