// Hot-path benchmark: the data-plane costs, section by section, timed on
// the wall clock.  (The speedups of sections 1-2 over the designs they
// replaced are recorded in the BENCH_hotpath.json trajectory.)
//
//   1. allocator churn  — concurrent allocate/free against a fragmented
//      segment (shm::Segment's size-segregated best-fit);
//   2. queue throughput — N producers / 1 consumer through the two-lock
//      BoundedQueue (single-event and batched push_all/pop_all paths);
//   3. MPI batching     — wire messages per (client, iteration) through
//      MpiTransport, against the analytic pre-PR count of one message per
//      block plus one per control event;
//   4. server worker scaling — event throughput of one ShmServerTransport
//      drained by a pool of N concurrent next_event() consumers (the
//      dedicated-I/O-rank worker pool), each block paying a 10 us spin that
//      stands in for indexing + plugins.  --workers N,N,... selects the
//      sweep (default 1,2,4,8).
//   5. posix storage backend — real-disk emit throughput of h5lite-sized
//      images through storage::PosixBackend into a scratch directory
//      (removed afterwards): the synchronous create/write/fsync/close path
//      vs. the write-behind queue drained by worker threads.
//   6. emit-path compression — bench_sparetime-style CM1 loads driven
//      through the real pipeline (Runtime + store plugin + EmitStage +
//      write-behind + posix backend), once raw and once with xor+lzs:
//      bytes-to-disk, achieved ratio, dedicated-core codec time as a share
//      of worker time (the §IV.D spare-cycle claim), and the raw MB/s
//      retired per wall second.  A per-codec table adds compress MB/s and
//      ratio on a smooth field and on noise, and decompress MB/s.
//   7. skewed clients + work stealing — the same worker pool fed a
//      pathological client mix (one client producing >= 75 % of the
//      events) twice: once with static client->worker pinning and once
//      with ownership-token work stealing.  A twin run attaches a real
//      posix write-behind queue and asserts that *parked* workers drained
//      it (idle_drains > 0).
//   8. client death — throughput retained while a client dies mid-stream
//      and its segment blocks are reclaimed.
//   9. sharded multi-root storage — aggregate write throughput of the
//      chunking + placement + integrity stack over 1/2/4 posix roots,
//      drained chunk-granularly by the write-behind pool.  Structural
//      gates: the 4-root layout must spread bytes (roots x balance >=
//      1.5x), a 4-root twin must read back byte-identical to a single-root
//      run, a flipped bit must surface as DATA_LOSS, and replication=2
//      must recover it.
//  10. runtime engines — minimpi barrier/allreduce rounds per second and
//      point-to-point round trips, and the DES engine's event rate (the
//      engines under the examples, the tests and the model layer).
//
// Sections 4, 7 and 8 share one driver, run_pool(), which asserts
// exactly-once delivery per (client, block) on every run.
//
// Modes: default is a full run sized for stable numbers, which needs at
// least 4 hardware threads (the pool and multi-root numbers are parallel
// wall-clock measurements) and exits with status 2 on a narrower host;
// --smoke shrinks everything to a CTest-friendly few seconds on any host
// (registered with label bench-smoke so the harness cannot bit-rot);
// --json FILE emits the machine-readable result consumed by
// scripts/run_bench.sh, which appends it to BENCH_hotpath.json — the
// perf-regression trajectory.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <filesystem>

#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "core/runtime.hpp"
#include "des/engine.hpp"
#include "fsim/filesystem.hpp"
#include "minimpi/minimpi.hpp"
#include "shm/bounded_queue.hpp"
#include "shm/segment.hpp"
#include "sim/cm1_proxy.hpp"
#include "sim/workload.hpp"
#include "storage/posix_backend.hpp"
#include "storage/sharded_backend.hpp"
#include "storage/write_behind.hpp"
#include "transport/message.hpp"
#include "transport/mpi_transport.hpp"
#include "transport/shm_transport.hpp"

namespace {

using dedicore::Rng;
using dedicore::transport::Event;
using dedicore::transport::EventType;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Prints "FAIL: <message>" and exits non-zero — how every gate of the
/// bench reports a violation.
[[noreturn]] __attribute__((format(printf, 1, 2))) void fail(
    const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::fputs("FAIL: ", stderr);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::exit(1);
}

/// `n` seeded pseudo-random bytes: incompressible image content.
std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_below(256));
  return out;
}

// ---------------------------------------------------------------------------
// 1. Allocator churn
// ---------------------------------------------------------------------------

struct ChurnConfig {
  std::uint64_t capacity = 1ull << 26;
  int fragment_pins = 4096;       ///< small pinned blocks fragmenting the front
  std::uint64_t pin_bytes = 2048; ///< size of each pin (and of each hole)
  int ops_per_thread = 100000;    ///< allocate/free pairs per thread
  int pool_size = 16;             ///< live blocks each thread cycles through
};

/// Drives `ops_per_thread` allocate/free pairs per thread against a
/// fragmented allocator.  Returns allocate+free operations per second.
///
/// The fragmentation models a long-running server's segment: thousands of
/// small live blocks with freed holes between them at low offsets.  The
/// churn allocates blocks larger than any hole, so a first-fit scan would
/// walk the entire hole band on every allocation; the size-segregated
/// index jumps past all of them in one lower_bound.
double run_allocator_churn(const ChurnConfig& cfg, int threads) {
  dedicore::shm::Segment segment(cfg.capacity);

  std::vector<dedicore::shm::BlockRef> pins;
  for (int i = 0; i < cfg.fragment_pins; ++i) {
    auto ref = segment.try_allocate(cfg.pin_bytes);
    if (!ref) break;
    pins.push_back(*ref);
  }
  for (std::size_t i = 0; i < pins.size(); i += 2) segment.deallocate(pins[i]);

  const auto start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0x9E3779B9u + static_cast<std::uint64_t>(t));
      std::vector<dedicore::shm::BlockRef> pool;
      pool.reserve(static_cast<std::size_t>(cfg.pool_size));
      for (int op = 0; op < cfg.ops_per_thread; ++op) {
        if (pool.size() < static_cast<std::size_t>(cfg.pool_size)) {
          // Larger than every hole.
          const std::uint64_t size = (8ull << 10) + rng.next_below(24 << 10);
          if (auto ref = segment.try_allocate(size)) {
            pool.push_back(*ref);
            continue;
          }
        }
        if (!pool.empty()) {
          const std::size_t pick = rng.next_below(pool.size());
          segment.deallocate(pool[pick]);
          pool[pick] = pool.back();
          pool.pop_back();
        }
      }
      for (const auto& ref : pool) segment.deallocate(ref);
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = seconds_since(start);

  for (std::size_t i = 1; i < pins.size(); i += 2) segment.deallocate(pins[i]);
  return static_cast<double>(threads) * cfg.ops_per_thread / elapsed;
}

// ---------------------------------------------------------------------------
// 2. Queue throughput
// ---------------------------------------------------------------------------

struct QueueConfig {
  std::size_t capacity = 4096;
  int events_per_producer = 200000;
  std::size_t batch = 64;
};

/// N producers, one consumer draining bursts with pop_all — what
/// ShmServerTransport::next_event does.  Unbatched producers push per event
/// (the ShmTransport shape: a publish is per block); batched ones push_all
/// `cfg.batch` events (an iteration's worth) in one critical section.
double run_queue(const QueueConfig& cfg, int producers, bool batched) {
  dedicore::shm::BoundedQueue<Event> queue(cfg.capacity);
  const long total =
      static_cast<long>(producers) * cfg.events_per_producer;
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&] {
      std::vector<Event> burst(batched ? cfg.batch : 1);
      for (Event& event : burst) event.type = EventType::kBlockWritten;
      int sent = 0;
      while (sent < cfg.events_per_producer) {
        if (!batched) {
          (void)queue.push(burst[0]);
          ++sent;
          continue;
        }
        const std::size_t n =
            std::min(cfg.batch,
                     static_cast<std::size_t>(cfg.events_per_producer - sent));
        (void)queue.push_all(std::span<Event>(burst.data(), n));
        sent += static_cast<int>(n);
      }
    });
  }
  long received = 0;
  std::vector<Event> sink;
  while (received < total) {
    sink.clear();
    received += static_cast<long>(queue.pop_all(sink));
  }
  for (auto& t : threads) t.join();
  return static_cast<double>(total) / seconds_since(start);
}

// ---------------------------------------------------------------------------
// 3. MPI wire messages per iteration
// ---------------------------------------------------------------------------

struct MpiBatchConfig {
  int clients = 3;
  int iterations = 32;
  int blocks_per_iteration = 8;
  std::uint64_t block_bytes = 4096;
};

struct MpiBatchResult {
  double wire_per_client_iteration = 0;       ///< measured, batched
  double unbatched_per_client_iteration = 0;  ///< analytic pre-PR count
  double events_per_wire_message = 0;         ///< aggregation factor
};

MpiBatchResult run_mpi_batching(const MpiBatchConfig& cfg) {
  namespace transport = dedicore::transport;
  namespace minimpi = dedicore::minimpi;

  std::vector<transport::TransportStats> client_stats(
      static_cast<std::size_t>(cfg.clients));
  // Two iterations of credit headroom: the server releases iteration k's
  // blocks when its close event lands, so a client producing iteration
  // k+1 never stalls (and never has to split an iteration across frames).
  const std::uint64_t share = static_cast<std::uint64_t>(
      2 * cfg.blocks_per_iteration + 2) * (cfg.block_bytes + 64);

  minimpi::run_world(cfg.clients + 1, [&](minimpi::Comm& world) {
    if (world.rank() < cfg.clients) {
      transport::MpiClientTransport client(world, cfg.clients, share);
      for (int it = 0; it < cfg.iterations; ++it) {
        // A simulation computes between outputs — which is when the
        // server catches up and credit flows back.  Without this pause
        // the client outruns its credit and iterations split into
        // partial frames, measuring a client no real deployment has.
        if (it > 0) std::this_thread::sleep_for(std::chrono::microseconds(500));
        for (int b = 0; b < cfg.blocks_per_iteration; ++b) {
          auto ref = client.acquire_blocking(cfg.block_bytes);
          Event event;
          event.type = EventType::kBlockWritten;
          event.source = world.rank();
          event.iteration = it;
          event.block_id = static_cast<std::uint32_t>(b);
          event.block = *ref;
          client.publish(event);
        }
        Event end;
        end.type = EventType::kEndIteration;
        end.source = world.rank();
        end.iteration = it;
        client.post(end);  // the flush point: ships the iteration's frame
      }
      Event stop;
      stop.type = EventType::kClientStop;
      stop.source = world.rank();
      client.post(stop);
      client_stats[static_cast<std::size_t>(world.rank())] = client.stats();
    } else {
      auto fabric = std::make_shared<transport::ShmFabric>(
          static_cast<std::uint64_t>(cfg.clients) * share, 0, 0);
      transport::MpiServerTransport server(world, fabric);
      // Minimal server loop: release blocks when their iteration closes,
      // mirroring core::Server::complete_iteration.
      std::vector<std::vector<dedicore::shm::BlockRef>> held(
          static_cast<std::size_t>(cfg.clients));
      int stops = 0;
      while (stops < cfg.clients) {
        auto event = server.next_event();
        if (!event) break;
        const auto source = static_cast<std::size_t>(event->source);
        switch (event->type) {
          case EventType::kBlockWritten:
            held[source].push_back(event->block);
            break;
          case EventType::kEndIteration:
            for (const auto& ref : held[source]) server.release(ref);
            held[source].clear();
            break;
          case EventType::kClientStop:
            ++stops;
            break;
          default:
            break;
        }
      }
    }
  });

  std::uint64_t wire = 0, events = 0;
  for (const auto& s : client_stats) {
    wire += s.wire_messages;
    events += s.events_sent;
  }
  MpiBatchResult result;
  const double client_iterations =
      static_cast<double>(cfg.clients) * cfg.iterations;
  result.wire_per_client_iteration = static_cast<double>(wire) / client_iterations;
  // Pre-PR wiring shipped one message per published block and one per
  // control event: blocks + end-iteration per iteration, plus one stop.
  result.unbatched_per_client_iteration =
      static_cast<double>(cfg.blocks_per_iteration) + 1.0 +
      1.0 / cfg.iterations;
  result.events_per_wire_message =
      static_cast<double>(events) / static_cast<double>(wire);
  return result;
}

// ---------------------------------------------------------------------------
// The pool driver (sections 4, 7 and 8)
// ---------------------------------------------------------------------------

/// One load on the server worker pool: every client publishes its blocks
/// into one ShmServerTransport, and `workers` concurrent next_event()
/// consumers drain it.
struct PoolLoad {
  std::vector<int> blocks;  ///< block count of each client
  int workers = 4;
  dedicore::transport::WorkerPoolOptions options;
  /// Per-block pipeline cost (indexing + plugins), spun for real; 0 releases
  /// each block at once.
  double service_seconds = 10e-6;
  /// Client killed by a seeded client.die fault on the publish after its
  /// kill_after-th block, or -1 for a healthy run.
  int victim = -1;
  int kill_after = 0;
  /// Installed as the pool's idle hook when set.
  dedicore::storage::WriteBehind* idle_drain = nullptr;
};

struct PoolResult {
  double events_per_sec = 0.0;  ///< blocks, stops and aborts per wall second
  std::uint64_t steals = 0;
  std::uint64_t idle_drains = 0;
  std::uint64_t blocks_reclaimed = 0;
  double reclaim_ms = 0.0;  ///< death -> reclaim complete (wall)
};

/// Runs `load` and returns its throughput.  Exits the bench on any
/// violation — the throughput claim is worthless without the exactly-once
/// one: a block delivered other than once, a phantom delivery from a dead
/// client, a missing or duplicate stop, a wrong abort count, a death with
/// nothing reclaimed, or segment bytes left allocated at the end.
PoolResult run_pool(const PoolLoad& load) {
  namespace transport = dedicore::transport;
  constexpr std::uint64_t kBlockBytes = 2048;
  auto fabric = std::make_shared<transport::ShmFabric>(
      /*capacity=*/1ull << 26, /*queue_count=*/1, /*queue_capacity=*/4096);
  transport::ShmServerTransport server(fabric, 0);
  server.set_worker_count(load.workers, load.options);
  if (load.idle_drain != nullptr)
    server.set_idle_hook(
        [wb = load.idle_drain] { return wb->try_drain_one(); });

  const bool kill = load.victim >= 0;
  std::shared_ptr<dedicore::fault::FaultInjector> faults;
  if (kill) {
    faults = std::make_shared<dedicore::fault::FaultInjector>(1);
    dedicore::fault::FaultSpec spec;
    spec.point = "client.die";
    spec.target = load.victim;
    spec.after = static_cast<std::uint64_t>(load.kill_after);
    faults->arm(spec);
  }

  const int clients = static_cast<int>(load.blocks.size());
  // Per-(client, block) delivery counters: a total-only check would let a
  // loss paired with a duplication cancel out and pass the gate.
  std::vector<std::size_t> first_block(static_cast<std::size_t>(clients) + 1,
                                       0);
  for (int c = 0; c < clients; ++c)
    first_block[static_cast<std::size_t>(c) + 1] =
        first_block[static_cast<std::size_t>(c)] +
        static_cast<std::size_t>(load.blocks[static_cast<std::size_t>(c)]);
  std::vector<std::atomic<int>> delivered(first_block.back());
  std::vector<std::atomic<int>> stopped(static_cast<std::size_t>(clients));
  std::atomic<int> strays{0};  // events naming no client or block of the load
  std::atomic<int> finished{0};  // clients whose stop or abort was consumed
  std::atomic<double> death_at{-1.0};  // wall seconds since start
  std::atomic<double> reclaimed_at{-1.0};

  const auto start = Clock::now();
  const auto client_finished = [&] {
    if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == clients)
      server.end_of_stream();
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients + load.workers));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      transport::ShmClientTransport client(fabric, 0, c, faults);
      for (int i = 0; i < load.blocks[static_cast<std::size_t>(c)]; ++i) {
        auto ref = client.acquire_blocking(kBlockBytes);
        if (!ref) return;
        Event event;
        event.type = EventType::kBlockWritten;
        event.source = c;
        event.block_id = static_cast<std::uint32_t>(i);
        event.block = *ref;
        if (!client.publish(event)) {
          // The armed fault fired: the client is dead.  No abandon, no
          // stop — the acquired block stays in the liveness ledger for
          // the server's reclaim, as after a real SIGKILL.
          death_at.store(seconds_since(start), std::memory_order_release);
          return;
        }
      }
      Event stop;
      stop.type = EventType::kClientStop;
      stop.source = c;
      client.post(stop);
    });
  }
  for (int w = 0; w < load.workers; ++w) {
    threads.emplace_back([&, w] {
      while (auto event = server.next_event(w)) {
        const auto source = static_cast<std::size_t>(event->source);
        if (event->source < 0 || event->source >= clients) {
          strays.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        switch (event->type) {
          case EventType::kBlockWritten:
            if (first_block[source] + event->block_id <
                first_block[source + 1])
              delivered[first_block[source] + event->block_id].fetch_add(
                  1, std::memory_order_relaxed);
            else
              strays.fetch_add(1, std::memory_order_relaxed);
            dedicore::spin_seconds(load.service_seconds);
            server.release(event->block);
            break;
          case EventType::kClientStop:
            stopped[source].fetch_add(1, std::memory_order_relaxed);
            client_finished();
            break;
          case EventType::kClientAborted:
            server.reclaim_client(event->source);
            reclaimed_at.store(seconds_since(start), std::memory_order_release);
            client_finished();
            break;
          default:
            strays.fetch_add(1, std::memory_order_relaxed);
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = seconds_since(start);

  // Exactly-once over everything that was actually published: every block
  // of a survivor and its stop, the victim's first kill_after blocks and
  // nothing after them.
  long expected = 0, wrong = strays.load();
  for (int c = 0; c < clients; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    const bool dead = c == load.victim;
    const int published = dead ? load.kill_after : load.blocks[cs];
    expected += published + (dead ? 0 : 1);
    for (int i = 0; i < load.blocks[cs]; ++i)
      if (delivered[first_block[cs] + static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed) != (i < published ? 1 : 0))
        ++wrong;
    if (stopped[cs].load(std::memory_order_relaxed) != (dead ? 0 : 1)) ++wrong;
  }
  if (wrong != 0)
    fail("pool: %ld delivery violations over %ld published events "
         "(workers=%d, steal=%d, victim=%d)",
         wrong, expected, load.workers, load.options.steal ? 1 : 0,
         load.victim);
  const auto stats = server.stats();
  if (stats.clients_aborted != (kill ? 1u : 0u) ||
      (kill && stats.blocks_reclaimed < 1))
    fail("reclaim saw %llu aborts, %llu blocks",
         static_cast<unsigned long long>(stats.clients_aborted),
         static_cast<unsigned long long>(stats.blocks_reclaimed));
  if (fabric->segment.used() != 0)
    fail("%llu segment bytes left allocated",
         static_cast<unsigned long long>(fabric->segment.used()));

  PoolResult result;
  // Every client ends with one terminal event: its stop or its abort.
  result.events_per_sec = static_cast<double>(expected + (kill ? 1 : 0)) /
                          elapsed;
  result.steals = stats.steals;
  result.idle_drains = stats.idle_drains;
  result.blocks_reclaimed = stats.blocks_reclaimed;
  if (kill)
    result.reclaim_ms =
        (reclaimed_at.load() - death_at.load()) * 1e3;  // wall milliseconds
  return result;
}

// ---------------------------------------------------------------------------
// 4. Server worker scaling
// ---------------------------------------------------------------------------

struct WorkerRow {
  int workers;
  double events_per_sec;
  double speedup;  ///< vs the first (narrowest) entry of the sweep
};

/// 8 uniform clients on a pinned pool of each width in `sweep` — the
/// pinning cap: a pool wider than the client count stops scaling.
std::vector<WorkerRow> run_worker_scaling(const std::vector<int>& sweep,
                                          int blocks_per_client) {
  std::vector<WorkerRow> rows;
  for (int workers : sweep) {
    PoolLoad load;
    load.blocks.assign(8, blocks_per_client);
    load.workers = workers;
    WorkerRow row;
    row.workers = workers;
    row.events_per_sec = run_pool(load).events_per_sec;
    row.speedup =
        rows.empty() ? 1.0 : row.events_per_sec / rows.front().events_per_sec;
    rows.push_back(row);
    std::printf(
        "server worker scaling, %d worker(s): %.2fM ev/s (%.2fx vs %d)\n",
        workers, row.events_per_sec / 1e6, row.speedup, rows.front().workers);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// 5. Posix storage backend (real disk, not modelled)
// ---------------------------------------------------------------------------

/// Enqueues `files` copies of `image` while `drainers` threads drain the
/// queue, as server workers do; returns the wall seconds until it is empty.
double write_behind_seconds(dedicore::storage::WriteBehind& queue,
                            int drainers, int files,
                            const std::vector<std::byte>& image) {
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  std::atomic<bool> done{false};
  for (int d = 0; d < drainers; ++d) {
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire))
        if (queue.drain_some(4) == 0) std::this_thread::yield();
    });
  }
  for (int i = 0; i < files; ++i)
    queue.enqueue({"node0/it" + std::to_string(i) + ".h5l", 0, image});
  queue.drain_all();
  done.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return seconds_since(start);
}

struct PosixBenchConfig {
  int files = 64;                          ///< h5lite-sized images emitted
  std::uint64_t image_bytes = 1ull << 20;  ///< 1 MiB per image
  std::uint64_t budget_bytes = 8ull << 20; ///< write-behind byte budget
  int drainers = 2;                        ///< stand-in server workers
};

struct PosixBenchResult {
  double sync_mb_per_sec = 0.0;          ///< create/write/fsync/close inline
  double write_behind_mb_per_sec = 0.0;  ///< enqueue + concurrent drain
  double enqueue_block_seconds = 0.0;    ///< producer stalls (backpressure)
};

/// Emits `files` images through PosixBackend into a fresh scratch
/// directory under the system temp dir, once synchronously and once
/// through a WriteBehind queue drained by `drainers` threads, verifying
/// every byte landed.  The scratch directory is removed afterwards.
PosixBenchResult run_posix_backend(const PosixBenchConfig& cfg) {
  namespace fs = std::filesystem;
  namespace storage = dedicore::storage;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("dedicore_bench_posix_" + std::to_string(::getpid()));
  PosixBenchResult result;

  const std::vector<std::byte> image = random_bytes(cfg.image_bytes, 0xC0FFEE);
  const double total_mb = static_cast<double>(cfg.files) *
                          static_cast<double>(cfg.image_bytes) / 1e6;

  {
    storage::PosixBackend backend(scratch / "sync");
    const auto start = Clock::now();
    for (int i = 0; i < cfg.files; ++i) {
      const auto status = storage::write_image(
          backend, "node0/it" + std::to_string(i) + ".h5l", image);
      if (!status.is_ok())
        fail("posix sync write: %s", status.to_string().c_str());
    }
    result.sync_mb_per_sec = total_mb / seconds_since(start);
    if (backend.stats().bytes_written !=
        static_cast<std::uint64_t>(cfg.files) * cfg.image_bytes)
      fail("posix sync byte accounting");
  }

  {
    storage::PosixBackend backend(scratch / "wb");
    storage::WriteBehind queue(backend, cfg.budget_bytes);
    result.write_behind_mb_per_sec =
        total_mb / write_behind_seconds(queue, cfg.drainers, cfg.files, image);
    result.enqueue_block_seconds = queue.stats().enqueue_block_seconds;
    const auto stats = queue.stats();
    if (stats.jobs_written != static_cast<std::uint64_t>(cfg.files) ||
        stats.jobs_failed != 0)
      fail("write-behind drained %llu/%d jobs",
           static_cast<unsigned long long>(stats.jobs_written), cfg.files);
  }

  std::error_code ec;
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup
  return result;
}

// ---------------------------------------------------------------------------
// 6. Emit-path compression (real pipeline, real disk)
// ---------------------------------------------------------------------------

struct CompressionBenchConfig {
  int iterations = 16;
  std::uint64_t grid = 24;  ///< per-core CM1 block edge (nx = ny = nz)
  int cores_per_node = 4;   ///< 3 clients + 1 dedicated core
};

struct CompressionBenchRow {
  std::string codec;
  std::uint64_t raw_bytes = 0;      ///< payload entering the emit stage
  std::uint64_t bytes_to_disk = 0;  ///< posix file bytes actually written
  double achieved_ratio = 0.0;      ///< EmitStats raw/stored (1.0 = raw)
  double compress_seconds = 0.0;    ///< dedicated-core time inside codecs
  /// Share of total server-worker time spent compressing — the §IV.D
  /// claim is that this fits inside the 92–99 % idle budget.
  double spare_time_utilization = 0.0;
  double effective_mb_per_sec = 0.0;  ///< raw payload MB per wall second
  double wall_seconds = 0.0;
};

/// One full CM1 run through the real pipeline — Runtime, store plugin,
/// EmitStage, write-behind, PosixBackend into a scratch directory — with
/// the given storage codec.  The smooth advection–diffusion fields are the
/// compressible shape the paper measured at 600%.
CompressionBenchRow run_compression(const CompressionBenchConfig& cfg,
                                    const std::string& codec) {
  namespace fs = std::filesystem;
  namespace core = dedicore::core;
  namespace sim = dedicore::sim;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("dedicore_bench_compress_" + std::to_string(::getpid()) + "_" +
       (codec == "xor+lzs" ? "xorlzs" : codec));

  sim::Cm1WorkloadOptions options;
  options.nx = options.ny = options.nz = cfg.grid;
  options.cores_per_node = cfg.cores_per_node;
  options.codec = codec;
  core::Configuration config = sim::make_cm1_configuration(options);
  // Retarget storage at the real disk: this section measures measured
  // bytes-to-disk, not modelled time.
  core::StorageSpec storage_spec = config.storage();
  storage_spec.backend = "posix";
  storage_spec.path = scratch.string();
  config.set_storage(storage_spec);
  config.validate();

  // Unused sink: the posix backend never touches the simulator.
  dedicore::fsim::StorageConfig sim_storage;
  sim_storage.jitter_sigma = 0.0;
  sim_storage.spike_probability = 0.0;
  sim_storage.interference_on_rate = 0.0;
  dedicore::fsim::FileSystem unused_fs(sim_storage,
                                       dedicore::fsim::TimeScale{1e-4, 0.01});

  CompressionBenchRow row;
  row.codec = codec;
  const auto start = Clock::now();
  dedicore::minimpi::run_world(cfg.cores_per_node, [&](auto& world) {
    core::Runtime rt = core::Runtime::initialize(config, world, unused_fs);
    if (rt.is_server()) {
      rt.run_server();
      const core::ServerStats stats = rt.server_stats();
      const core::EmitStats emit = rt.node().emit->stats();
      row.raw_bytes = emit.raw_bytes;
      row.achieved_ratio = emit.achieved_ratio();
      row.compress_seconds = emit.compress_seconds;
      const double worker_time = stats.idle_seconds + stats.busy_seconds;
      row.spare_time_utilization =
          worker_time > 0.0 ? emit.compress_seconds / worker_time : 0.0;
      return;
    }
    sim::Cm1Proxy proxy(sim::make_cm1_proxy_config(
        options, rt.client_comm().rank(), rt.client_comm().size()));
    for (int it = 0; it < cfg.iterations; ++it) {
      proxy.step();
      for (const auto& [name, bytes] : proxy.field_bytes()) {
        const auto status = rt.client().write(name, bytes);
        if (!status.is_ok())
          fail("compression bench write: %s", status.to_string().c_str());
      }
      if (const auto status = rt.client().end_iteration(); !status.is_ok())
        fail("compression bench end_iteration: %s", status.to_string().c_str());
    }
    rt.finalize();
  });
  row.wall_seconds = seconds_since(start);

  dedicore::storage::PosixBackend disk(scratch);
  for (const std::string& file : disk.list_files())
    row.bytes_to_disk += disk.file_size(file);
  row.effective_mb_per_sec =
      static_cast<double>(row.raw_bytes) / 1e6 / row.wall_seconds;

  std::error_code ec;
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup
  return row;
}

struct CodecRow {
  std::string codec;
  std::string data;  ///< "smooth" (a 256 Ki-double field) or "noise" (1 MiB)
  double compress_mb_per_sec = 0.0;
  double ratio = 0.0;  ///< input bytes / compressed bytes
  double decompress_mb_per_sec = 0.0;  ///< 0 where not measured
};

/// Calls `op` until `min_seconds` have passed (at least once) and returns
/// calls per second.
template <typename Op>
double calls_per_second(Op&& op, double min_seconds) {
  const auto start = Clock::now();
  long calls = 0;
  double elapsed = 0.0;
  do {
    op();
    ++calls;
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds);
  return static_cast<double>(calls) / elapsed;
}

/// Each codec alone on the two data classes that bound what a dedicated
/// core can absorb: a smooth simulation field and incompressible noise.
/// Decompression is timed for xor and xor+lzs on the smooth field.  Exits
/// the bench unless every codec round-trips every input byte-identically.
std::vector<CodecRow> run_codec_table(double min_seconds) {
  namespace compress = dedicore::compress;
  std::vector<double> field(256 * 1024);
  for (std::size_t i = 0; i < field.size(); ++i)
    field[i] = 300.0 + 3.0 * std::sin(0.01 * static_cast<double>(i));
  std::vector<std::byte> smooth(field.size() * sizeof(double));
  std::memcpy(smooth.data(), field.data(), smooth.size());
  const std::vector<std::byte> noise = random_bytes(1 << 20, 99);

  const std::pair<const char*, const std::vector<std::byte>&> inputs[] = {
      {"smooth", smooth}, {"noise", noise}};
  std::vector<CodecRow> rows;
  for (const auto& [data, input] : inputs) {
    const double mb = static_cast<double>(input.size()) / 1e6;
    for (const char* name : {"rle", "xor", "lzs", "xor+lzs"}) {
      const compress::Codec* codec = compress::find_codec(name);
      std::vector<std::byte> packed;
      CodecRow row;
      row.codec = name;
      row.data = data;
      row.compress_mb_per_sec =
          mb * calls_per_second([&] { packed = codec->compress(input); },
                                min_seconds);
      row.ratio = static_cast<double>(input.size()) /
                  static_cast<double>(packed.size());
      std::vector<std::byte> raw;
      const auto unpack = [&] {
        raw = codec->decompress(packed, input.size());
      };
      if (row.data == "smooth" && row.codec.starts_with("xor"))
        row.decompress_mb_per_sec = mb * calls_per_second(unpack, min_seconds);
      else
        unpack();
      if (raw != input)
        fail("codec %s does not round-trip %s data", name, data);
      rows.push_back(row);
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// 7. Skewed clients + work stealing
// ---------------------------------------------------------------------------

struct SkewConfig {
  int clients = 8;
  int workers = 4;
  int hot_blocks = 30000;  ///< client 0 — ~78 % of all events
  int cold_blocks = 1200;  ///< each of the other seven clients
  int steal_threshold = 2;
  int posix_jobs = 24;     ///< write-behind images of the posix twin
  std::uint64_t posix_image_bytes = 256 * 1024;
};

struct SkewSummary {
  double pinned_events_per_sec = 0.0;
  double steal_events_per_sec = 0.0;
  double speedup = 0.0;
  std::uint64_t steals = 0;          ///< observed in the steal-on run
  std::uint64_t posix_jobs = 0;      ///< write-behind jobs in the twin run
  std::uint64_t posix_idle_drains = 0;  ///< drained by *parked* workers
};

/// Client 0 produces the bulk of the events, and the pool runs with static
/// pinning (client c -> worker c mod N) and then with ownership-token work
/// stealing.  Under pinning the hot client's events serialize on one worker
/// no matter how wide the pool is; stealing migrates its backlog to
/// whoever is idle.  The posix twin reruns the stealing pool with no
/// service cost and a real write-behind queue as its idle hook; the jobs
/// are enqueued before the pool starts, so idle_drains counts writes done
/// by parked workers (not the enqueuer, not the final flush).  Exits the
/// bench if the pinned run steals, the stealing run does not, or the
/// parked workers drained nothing.
SkewSummary run_skewed_clients(const SkewConfig& cfg) {
  namespace fs = std::filesystem;
  namespace storage = dedicore::storage;
  PoolLoad load;
  load.blocks.assign(static_cast<std::size_t>(cfg.clients), cfg.cold_blocks);
  load.blocks[0] = cfg.hot_blocks;
  load.workers = cfg.workers;
  load.options.steal_threshold = cfg.steal_threshold;

  SkewSummary skew;
  load.options.steal = false;
  const PoolResult pinned = run_pool(load);
  load.options.steal = true;
  const PoolResult stealing = run_pool(load);
  skew.pinned_events_per_sec = pinned.events_per_sec;
  skew.steal_events_per_sec = stealing.events_per_sec;
  skew.speedup = stealing.events_per_sec / pinned.events_per_sec;
  skew.steals = stealing.steals;
  std::printf(
      "skewed clients, %d clients (hot %d / cold %d) on %d workers: "
      "pinned %.2fM ev/s, stealing %.2fM ev/s (%.2fx), %llu steals\n",
      cfg.clients, cfg.hot_blocks, cfg.cold_blocks, cfg.workers,
      skew.pinned_events_per_sec / 1e6, skew.steal_events_per_sec / 1e6,
      skew.speedup, static_cast<unsigned long long>(skew.steals));
  // A steal-free stealing run would compare two identically-assigned pools.
  if (pinned.steals != 0)
    fail("pinned run reported %llu steals",
         static_cast<unsigned long long>(pinned.steals));
  if (skew.steals == 0)
    fail("stealing run observed no steals");

  const fs::path scratch =
      fs::temp_directory_path() /
      ("dedicore_bench_skew_" + std::to_string(::getpid()));
  storage::PosixBackend backend(scratch);
  storage::WriteBehind queue(backend, /*budget_bytes=*/8ull << 20);
  const std::vector<std::byte> image =
      random_bytes(cfg.posix_image_bytes, 0xBEEF);
  // Fits inside the budget, so none of these enqueues blocks: the whole
  // backlog is waiting before the first worker parks.
  for (int i = 0; i < cfg.posix_jobs; ++i)
    queue.enqueue({"skew/it" + std::to_string(i) + ".h5l", 0, image});
  load.service_seconds = 0.0;
  load.idle_drain = &queue;
  skew.posix_idle_drains = run_pool(load).idle_drains;
  queue.drain_all();  // whatever the idle path did not get to
  const auto wb = queue.stats();
  skew.posix_jobs = wb.jobs_written;
  std::error_code ec;
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup
  std::printf(
      "skewed clients posix twin: %llu write-behind jobs, %llu drained by "
      "parked workers\n",
      static_cast<unsigned long long>(skew.posix_jobs),
      static_cast<unsigned long long>(skew.posix_idle_drains));
  if (wb.jobs_written != static_cast<std::uint64_t>(cfg.posix_jobs) ||
      wb.jobs_failed != 0)
    fail("skew posix twin wrote %llu/%d jobs",
         static_cast<unsigned long long>(wb.jobs_written), cfg.posix_jobs);
  if (skew.posix_idle_drains == 0)
    fail("no write-behind job was drained from the idle path");
  return skew;
}

// ---------------------------------------------------------------------------
// 8. Fault tolerance: time-to-reclaim and throughput retained when one of
//    the clients is killed mid-run
// ---------------------------------------------------------------------------

struct DeathBenchConfig {
  int clients = 8;
  int workers = 4;
  int blocks_per_client = 6000;
  int kill_after = 1500;  ///< victim events that land before the death
  int victim = 3;
  int steal_threshold = 2;
};

struct DeathBenchResult {
  double healthy_events_per_sec = 0.0;
  double faulty_events_per_sec = 0.0;
  double throughput_retained = 0.0;  ///< faulty rate / healthy rate
  double reclaim_ms = 0.0;  ///< death observed -> reclaim complete (wall)
  std::uint64_t blocks_reclaimed = 0;
};

/// The uniform stream on a stealing pool, healthy and then with the victim
/// killed mid-acquire, so its unpublished block is left to the liveness
/// ledger exactly as a SIGKILL would leave it.  The survivors run to
/// completion; the pool must consume the abort, reclaim the orphan, and
/// terminate without the victim's stop (run_pool checks all of it).
DeathBenchResult run_client_death(const DeathBenchConfig& cfg) {
  PoolLoad load;
  load.blocks.assign(static_cast<std::size_t>(cfg.clients),
                     cfg.blocks_per_client);
  load.workers = cfg.workers;
  load.options.steal = true;
  load.options.steal_threshold = cfg.steal_threshold;
  DeathBenchResult death;
  death.healthy_events_per_sec = run_pool(load).events_per_sec;
  load.victim = cfg.victim;
  load.kill_after = cfg.kill_after;
  const PoolResult faulty = run_pool(load);
  death.faulty_events_per_sec = faulty.events_per_sec;
  death.throughput_retained =
      death.faulty_events_per_sec / death.healthy_events_per_sec;
  death.reclaim_ms = faulty.reclaim_ms;
  death.blocks_reclaimed = faulty.blocks_reclaimed;
  std::printf(
      "client death, %d clients on %d workers, victim killed after %d of %d "
      "events: healthy %.2fM ev/s, faulty %.2fM ev/s (%.3f retained), "
      "reclaim in %.2fms, %llu block(s) reclaimed\n",
      cfg.clients, cfg.workers, cfg.kill_after, cfg.blocks_per_client,
      death.healthy_events_per_sec / 1e6, death.faulty_events_per_sec / 1e6,
      death.throughput_retained, death.reclaim_ms,
      static_cast<unsigned long long>(death.blocks_reclaimed));
  return death;
}

// ---------------------------------------------------------------------------
// 9. Sharded multi-root storage (chunking + placement + integrity)
// ---------------------------------------------------------------------------

struct ShardedBenchConfig {
  int files = 32;
  std::uint64_t image_bytes = 1ull << 20;  ///< 1 MiB per image
  std::uint64_t chunk_bytes = 256 << 10;   ///< 4 chunks per image
  std::uint64_t budget_bytes = 8ull << 20;
  int drainers = 4;  ///< stand-in server workers (>= widest root sweep)
};

struct ShardedBenchRow {
  int roots = 0;
  double mb_per_sec = 0.0;  ///< aggregate write MB/s
  double speedup = 0.0;     ///< vs the 1-root row
  /// total physical bytes / (roots * busiest root's bytes): 1.0 is a
  /// perfect spread.  roots * balance is the makespan speedup the layout
  /// supports, independent of the disk — the structural gate.
  double placement_balance = 0.0;
};

struct ShardedBenchResult {
  std::vector<ShardedBenchRow> rows;
  bool twin_identical = false;
  bool corruption_detected = false;
  bool replication_recovered = false;
};

/// Emits `files` images through a ShardedBackend over `roots` posix roots
/// via a chunk-granular WriteBehind drained by `drainers` threads, then
/// verifies every image reads back and reports aggregate MB/s plus the
/// placement balance.
ShardedBenchRow run_sharded_roots(const ShardedBenchConfig& cfg, int roots) {
  namespace fs = std::filesystem;
  namespace storage = dedicore::storage;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("dedicore_bench_sharded_" + std::to_string(::getpid()) + "_" +
       std::to_string(roots));
  std::vector<fs::path> root_paths;
  for (int r = 0; r < roots; ++r)
    root_paths.push_back(scratch / ("root" + std::to_string(r)));

  storage::ShardedOptions opts;
  opts.chunk_size = cfg.chunk_bytes;
  opts.placement = storage::PlacementPolicy::kBalanced;
  storage::ShardedBackend backend(root_paths, opts);
  storage::WriteBehind queue(backend, cfg.budget_bytes);

  const std::vector<std::byte> image = random_bytes(cfg.image_bytes, 0xD15C);
  const double total_mb = static_cast<double>(cfg.files) *
                          static_cast<double>(cfg.image_bytes) / 1e6;

  const double elapsed =
      write_behind_seconds(queue, cfg.drainers, cfg.files, image);

  const auto wb = queue.stats();
  if (wb.jobs_failed != 0 ||
      backend.file_count() != static_cast<std::size_t>(cfg.files))
    fail("sharded(%d roots) published %zu/%d images, %llu failed jobs",
         roots, backend.file_count(), cfg.files,
         static_cast<unsigned long long>(wb.jobs_failed));

  ShardedBenchRow row;
  row.roots = roots;
  std::uint64_t physical = 0, busiest = 0;
  for (const auto& rs : backend.root_stats()) {
    physical += rs.bytes_written;
    busiest = std::max(busiest, rs.bytes_written);
  }
  row.placement_balance =
      static_cast<double>(physical) /
      (static_cast<double>(roots) * static_cast<double>(busiest));
  row.mb_per_sec = total_mb / elapsed;

  std::error_code ec;
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup
  return row;
}

/// Flips one bit in the first byte of img.h5l's chunk 0 under `root`.
void flip_chunk0(const std::filesystem::path& root) {
  std::fstream io(root / "img.h5l.chunk-0",
                  std::ios::in | std::ios::out | std::ios::binary);
  char c = 0;
  io.read(&c, 1);
  c = static_cast<char>(c ^ 0x01);
  io.seekp(0);
  io.write(&c, 1);
}

/// Structural integrity gates, independent of scale: the
/// sharded twin reads back byte-identical to a single-root posix run of
/// the same images, a flipped bit in a chunk surfaces as DATA_LOSS, and
/// replication=2 serves the exact original bytes past the corrupt copy.
ShardedBenchResult run_sharded_integrity(const ShardedBenchConfig& cfg,
                                         ShardedBenchResult result) {
  namespace fs = std::filesystem;
  namespace storage = dedicore::storage;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("dedicore_bench_sharded_twin_" + std::to_string(::getpid()));
  const int files = std::min(cfg.files, 4);

  std::vector<std::byte> image = random_bytes(cfg.image_bytes, 0xBEEF);

  {
    // Twin: one single-root posix backend, one 4-root sharded stack.
    storage::PosixBackend single(scratch / "single");
    std::vector<fs::path> roots;
    for (int r = 0; r < 4; ++r)
      roots.push_back(scratch / "sharded" / ("root" + std::to_string(r)));
    storage::ShardedOptions opts;
    opts.chunk_size = cfg.chunk_bytes;
    storage::ShardedBackend sharded(roots, opts);
    result.twin_identical = true;
    for (int i = 0; i < files; ++i) {
      const std::string path = "it" + std::to_string(i) + ".h5l";
      image[static_cast<std::size_t>(i)] = static_cast<std::byte>(i);
      if (!storage::write_image(single, path, image).is_ok() ||
          !storage::write_image(sharded, path, image).is_ok())
        fail("sharded twin write");
      const auto a = single.read_file(path);
      const auto b = sharded.read_file(path);
      result.twin_identical =
          result.twin_identical && a.has_value() && b.has_value() && *a == *b;
    }
  }
  {
    // Corruption without replication: DATA_LOSS, never silent garbage.
    std::vector<fs::path> roots = {scratch / "c" / "r0", scratch / "c" / "r1"};
    storage::ShardedOptions opts;
    opts.chunk_size = cfg.chunk_bytes;
    storage::ShardedBackend backend(roots, opts);
    if (!storage::write_image(backend, "img.h5l", image).is_ok())
      fail("sharded corruption-probe write");
    for (const auto& root : roots)
      if (fs::exists(root / "img.h5l.chunk-0")) flip_chunk0(root);
    std::vector<std::byte> back;
    result.corruption_detected =
        backend.read_image("img.h5l", &back).code() ==
        dedicore::StatusCode::kDataLoss;
  }
  {
    // Same corruption with replication=2: recovered, byte-identical.
    std::vector<fs::path> roots = {scratch / "r" / "r0", scratch / "r" / "r1"};
    storage::ShardedOptions opts;
    opts.chunk_size = cfg.chunk_bytes;
    opts.replication = 2;
    storage::ShardedBackend backend(roots, opts);
    if (!storage::write_image(backend, "img.h5l", image).is_ok())
      fail("sharded replication-probe write");
    // Corrupt one copy; if the read path served chunk 0 from the *other*
    // replica first (placement-dependent), restore it and corrupt that
    // one instead, so the recovery actually exercises the fall-through.
    std::vector<std::byte> back;
    bool degraded = false;
    flip_chunk0(roots[0]);
    dedicore::Status read = backend.read_image("img.h5l", &back, &degraded);
    if (read.is_ok() && !degraded) {
      flip_chunk0(roots[0]);  // restore
      flip_chunk0(roots[1]);
      degraded = false;
      read = backend.read_image("img.h5l", &back, &degraded);
    }
    result.replication_recovered =
        read.is_ok() && back == image && degraded &&
        backend.counters().corrupt_chunks_detected > 0;
  }

  std::error_code ec;
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup
  return result;
}

// ---------------------------------------------------------------------------
// 10. Runtime engines: minimpi and the DES engine
// ---------------------------------------------------------------------------

struct EngineBenchConfig {
  int collective_rounds = 2000;
  int p2p_rounds = 20000;
  int des_events = 1000000;
};

struct CollectiveRow {
  int ranks = 0;
  double barrier_rounds_per_sec = 0.0;
  double allreduce_rounds_per_sec = 0.0;
};

struct EngineBenchResult {
  std::vector<CollectiveRow> collectives;
  double p2p_round_trip_us = 0.0;
  double des_events_per_sec = 0.0;
};

/// Rounds of `op` per second on `ranks` minimpi ranks, timed on rank 0
/// from a common barrier (thread start-up is not part of it).
template <typename Op>
double rounds_per_second(int ranks, int rounds, Op op) {
  double elapsed = 0.0;
  dedicore::minimpi::run_world(ranks, [&](dedicore::minimpi::Comm& world) {
    world.barrier();
    const auto start = Clock::now();
    for (int i = 0; i < rounds; ++i) op(world);
    if (world.rank() == 0) elapsed = seconds_since(start);
  });
  return static_cast<double>(rounds) / elapsed;
}

/// Exits the bench on a wrong allreduce sum, a wrong ping-pong payload, or
/// a DES run that does not execute exactly the events it was given.
EngineBenchResult run_engines(const EngineBenchConfig& cfg) {
  namespace minimpi = dedicore::minimpi;
  EngineBenchResult result;
  std::atomic<int> wrong{0};
  for (int ranks : {2, 4, 8}) {
    CollectiveRow row;
    row.ranks = ranks;
    row.barrier_rounds_per_sec =
        rounds_per_second(ranks, cfg.collective_rounds,
                          [](minimpi::Comm& world) { world.barrier(); });
    row.allreduce_rounds_per_sec = rounds_per_second(
        ranks, cfg.collective_rounds, [&](minimpi::Comm& world) {
          if (world.allreduce_value(world.rank(), std::plus<int>()) !=
              world.size() * (world.size() - 1) / 2)
            wrong.fetch_add(1, std::memory_order_relaxed);
        });
    result.collectives.push_back(row);
    std::printf(
        "minimpi, %d ranks: barrier %.0fk rounds/s, allreduce %.0fk rounds/s\n",
        ranks, row.barrier_rounds_per_sec / 1e3,
        row.allreduce_rounds_per_sec / 1e3);
  }

  int round = 0;
  result.p2p_round_trip_us =
      1e6 / rounds_per_second(2, cfg.p2p_rounds, [&](minimpi::Comm& world) {
        if (world.rank() == 0) {
          world.send_value(round, 1, 1);
          if (world.recv_value<int>(1, 2) != round + 1)
            wrong.fetch_add(1, std::memory_order_relaxed);
          ++round;
        } else {
          world.send_value(world.recv_value<int>(0, 1) + 1, 0, 2);
        }
      });

  dedicore::des::Engine engine;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < cfg.des_events) engine.schedule_in(1.0, tick);
  };
  engine.schedule_in(1.0, tick);
  const auto start = Clock::now();
  engine.run();
  result.des_events_per_sec =
      static_cast<double>(engine.events_executed()) / seconds_since(start);
  std::printf(
      "minimpi point-to-point: %.2f us per round trip; DES engine: %.2fM "
      "events/s\n",
      result.p2p_round_trip_us, result.des_events_per_sec / 1e6);

  if (wrong.load() != 0 || fired != cfg.des_events ||
      engine.events_executed() != static_cast<std::uint64_t>(cfg.des_events))
    fail("runtime engines: %d wrong collective/p2p results, DES ran %d "
         "callbacks / %llu events of %d",
         wrong.load(), fired,
         static_cast<unsigned long long>(engine.events_executed()),
         cfg.des_events);
  return result;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct AllocatorRow {
  int threads;
  double ops_per_sec;
};

struct QueueRow {
  int producers;
  double events_per_sec;
  double batch_events_per_sec;
};

struct BenchConfig {
  ChurnConfig churn;
  QueueConfig queue;
  MpiBatchConfig mpi;
  std::vector<int> worker_sweep = {1, 2, 4, 8};
  int worker_blocks_per_client = 30000;
  PosixBenchConfig posix;
  CompressionBenchConfig compression;
  double codec_min_seconds = 0.1;  ///< timing window per codec table cell
  SkewConfig skew;
  DeathBenchConfig death;
  ShardedBenchConfig sharded;
  EngineBenchConfig engines;
};

struct BenchResult {
  std::vector<AllocatorRow> allocator;
  std::vector<QueueRow> queue;
  MpiBatchResult mpi;
  std::vector<WorkerRow> workers;
  PosixBenchResult posix;
  std::vector<CompressionBenchRow> compression;
  std::vector<CodecRow> codecs;
  SkewSummary skew;
  DeathBenchResult death;
  ShardedBenchResult sharded;
  EngineBenchResult engines;
};

// Every pool and multi-root number is a wall-clock measurement; the mode
// fields keep trajectory points self-describing next to the older modeled
// ones.
constexpr const char* kWallClock = "wall_clock";

/// `value` in fixed notation with `digits` decimals.
std::string fixed(double value, int digits) {
  char text[64];
  std::snprintf(text, sizeof text, "%.*f", digits, value);
  return text;
}

const char* comma(std::size_t i, std::size_t n) { return i + 1 < n ? "," : ""; }

const char* boolean(bool value) { return value ? "true" : "false"; }

std::string format_json(bool smoke, const BenchConfig& cfg,
                        const BenchResult& r) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"hotpath\",\n  \"mode\": \""
      << (smoke ? "smoke" : "full") << "\",\n  \"allocator_churn\": [\n";
  for (std::size_t i = 0; i < r.allocator.size(); ++i)
    out << "    {\"threads\": " << r.allocator[i].threads
        << ", \"ops_per_sec\": " << fixed(r.allocator[i].ops_per_sec, 1) << "}"
        << comma(i, r.allocator.size()) << "\n";
  out << "  ],\n  \"queue_throughput\": [\n";
  for (std::size_t i = 0; i < r.queue.size(); ++i)
    out << "    {\"producers\": " << r.queue[i].producers
        << ", \"events_per_sec\": " << fixed(r.queue[i].events_per_sec, 1)
        << ", \"batch_events_per_sec\": "
        << fixed(r.queue[i].batch_events_per_sec, 1) << "}"
        << comma(i, r.queue.size()) << "\n";
  out << "  ],\n  \"server_worker_scaling_mode\": \"" << kWallClock
      << "\",\n  \"server_worker_scaling\": [\n";
  for (std::size_t i = 0; i < r.workers.size(); ++i)
    out << "    {\"workers\": " << r.workers[i].workers
        << ", \"events_per_sec\": " << fixed(r.workers[i].events_per_sec, 1)
        << ", \"speedup\": " << fixed(r.workers[i].speedup, 2) << "}"
        << comma(i, r.workers.size()) << "\n";
  out << "  ],\n  \"skewed_clients\": {\n    \"clients\": " << cfg.skew.clients
      << ", \"workers\": " << cfg.skew.workers
      << ", \"hot_blocks\": " << cfg.skew.hot_blocks
      << ", \"cold_blocks\": " << cfg.skew.cold_blocks
      << ",\n    \"mode\": \"" << kWallClock
      << "\",\n    \"pinned_events_per_sec\": "
      << fixed(r.skew.pinned_events_per_sec, 1)
      << ",\n    \"steal_events_per_sec\": "
      << fixed(r.skew.steal_events_per_sec, 1)
      << ",\n    \"speedup\": " << fixed(r.skew.speedup, 2)
      << ", \"steals\": " << r.skew.steals
      << ",\n    \"posix_idle_drain_jobs\": " << r.skew.posix_jobs
      << ", \"posix_idle_drains\": " << r.skew.posix_idle_drains << "\n  },\n";
  out << "  \"mpi_batching\": {\n    \"clients\": " << cfg.mpi.clients
      << ", \"iterations\": " << cfg.mpi.iterations
      << ", \"blocks_per_iteration\": " << cfg.mpi.blocks_per_iteration
      << ",\n    \"wire_messages_per_client_iteration\": "
      << fixed(r.mpi.wire_per_client_iteration, 3)
      << ",\n    \"unbatched_wire_messages_per_client_iteration\": "
      << fixed(r.mpi.unbatched_per_client_iteration, 3)
      << ",\n    \"events_per_wire_message\": "
      << fixed(r.mpi.events_per_wire_message, 3) << "\n  },\n";
  out << "  \"posix_backend\": {\n    \"files\": " << cfg.posix.files
      << ", \"image_bytes\": " << cfg.posix.image_bytes
      << ", \"drainers\": " << cfg.posix.drainers
      << ",\n    \"sync_mb_per_sec\": " << fixed(r.posix.sync_mb_per_sec, 1)
      << ",\n    \"write_behind_mb_per_sec\": "
      << fixed(r.posix.write_behind_mb_per_sec, 1)
      << ",\n    \"enqueue_block_seconds\": "
      << fixed(r.posix.enqueue_block_seconds, 4) << "\n  },\n";
  out << "  \"sharded_backend\": {\n    \"files\": " << cfg.sharded.files
      << ", \"image_bytes\": " << cfg.sharded.image_bytes
      << ", \"chunk_bytes\": " << cfg.sharded.chunk_bytes
      << ", \"drainers\": " << cfg.sharded.drainers << ",\n    \"mode\": \""
      << kWallClock << "\",\n    \"roots\": [\n";
  for (std::size_t i = 0; i < r.sharded.rows.size(); ++i) {
    const auto& row = r.sharded.rows[i];
    out << "      {\"roots\": " << row.roots
        << ", \"mb_per_sec\": " << fixed(row.mb_per_sec, 1)
        << ", \"speedup\": " << fixed(row.speedup, 2)
        << ", \"placement_balance\": " << fixed(row.placement_balance, 2)
        << "}" << comma(i, r.sharded.rows.size()) << "\n";
  }
  out << "    ],\n    \"twin_identical\": " << boolean(r.sharded.twin_identical)
      << ", \"corruption_detected\": "
      << boolean(r.sharded.corruption_detected)
      << ", \"replication_recovered\": "
      << boolean(r.sharded.replication_recovered) << "\n  },\n";
  out << "  \"compression\": {\n    \"iterations\": "
      << cfg.compression.iterations << ", \"grid\": " << cfg.compression.grid
      << ", \"cores_per_node\": " << cfg.compression.cores_per_node
      << ",\n    \"runs\": [\n";
  for (std::size_t i = 0; i < r.compression.size(); ++i) {
    const auto& row = r.compression[i];
    out << "      {\"codec\": \"" << row.codec << "\", \"raw_bytes\": "
        << row.raw_bytes << ", \"bytes_to_disk\": " << row.bytes_to_disk
        << ", \"achieved_ratio\": " << fixed(row.achieved_ratio, 2)
        << ",\n       \"compress_seconds\": " << fixed(row.compress_seconds, 4)
        << ", \"spare_time_utilization\": "
        << fixed(row.spare_time_utilization, 4)
        << ", \"effective_mb_per_sec\": " << fixed(row.effective_mb_per_sec, 1)
        << "}" << comma(i, r.compression.size()) << "\n";
  }
  out << "    ],\n    \"codecs\": [\n";
  for (std::size_t i = 0; i < r.codecs.size(); ++i) {
    const auto& row = r.codecs[i];
    out << "      {\"codec\": \"" << row.codec << "\", \"data\": \"" << row.data
        << "\", \"compress_mb_per_sec\": " << fixed(row.compress_mb_per_sec, 1)
        << ", \"ratio\": " << fixed(row.ratio, 2)
        << ", \"decompress_mb_per_sec\": "
        << fixed(row.decompress_mb_per_sec, 1) << "}"
        << comma(i, r.codecs.size()) << "\n";
  }
  out << "    ]\n  },\n  \"client_death\": {\n    \"clients\": "
      << cfg.death.clients << ", \"workers\": " << cfg.death.workers
      << ", \"blocks_per_client\": " << cfg.death.blocks_per_client
      << ", \"kill_after\": " << cfg.death.kill_after << ",\n    \"mode\": \""
      << kWallClock << "\",\n    \"healthy_events_per_sec\": "
      << fixed(r.death.healthy_events_per_sec, 1)
      << ",\n    \"faulty_events_per_sec\": "
      << fixed(r.death.faulty_events_per_sec, 1)
      << ",\n    \"throughput_retained\": "
      << fixed(r.death.throughput_retained, 3)
      << ",\n    \"reclaim_ms\": " << fixed(r.death.reclaim_ms, 3)
      << ", \"blocks_reclaimed\": " << r.death.blocks_reclaimed << "\n  },\n";
  out << "  \"runtime_engines\": {\n    \"collective_rounds\": "
      << cfg.engines.collective_rounds
      << ", \"p2p_rounds\": " << cfg.engines.p2p_rounds
      << ", \"des_events\": " << cfg.engines.des_events
      << ",\n    \"collectives\": [\n";
  for (std::size_t i = 0; i < r.engines.collectives.size(); ++i) {
    const auto& row = r.engines.collectives[i];
    out << "      {\"ranks\": " << row.ranks << ", \"barrier_rounds_per_sec\": "
        << fixed(row.barrier_rounds_per_sec, 1)
        << ", \"allreduce_rounds_per_sec\": "
        << fixed(row.allreduce_rounds_per_sec, 1) << "}"
        << comma(i, r.engines.collectives.size()) << "\n";
  }
  out << "    ],\n    \"p2p_round_trip_us\": "
      << fixed(r.engines.p2p_round_trip_us, 2) << ", \"des_events_per_sec\": "
      << fixed(r.engines.des_events_per_sec, 1) << "\n  }\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      // Comma-separated sweep, e.g. --workers 1,2,4,8.
      cfg.worker_sweep.clear();
      std::string list = argv[++i];
      std::stringstream items(list);
      std::string item;
      while (std::getline(items, item, ',')) {
        const int workers = std::atoi(item.c_str());
        if (workers < 1) {
          std::cerr << "bench_hotpath: bad --workers entry '" << item << "'\n";
          return 2;
        }
        cfg.worker_sweep.push_back(workers);
      }
      if (cfg.worker_sweep.empty()) {
        std::cerr << "bench_hotpath: empty --workers sweep\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_hotpath [--smoke] [--json FILE] "
                   "[--workers N,N,...]\n";
      return 2;
    }
  }

  // The pool, stealing and multi-root numbers of a full run are parallel
  // wall-clock measurements: on fewer than 4 hardware threads they would
  // measure the scheduler, not the code.
  const unsigned threads = std::thread::hardware_concurrency();
  if (!smoke && threads < 4) {
    std::fprintf(stderr,
                 "bench_hotpath: a full run needs at least 4 hardware "
                 "threads for its wall-clock pool and multi-root sections; "
                 "this host reports %u (use --smoke for the structural "
                 "gates alone)\n",
                 threads);
    return 2;
  }

  if (smoke) {
    cfg.churn.capacity = 1ull << 24;
    cfg.churn.fragment_pins = 512;
    cfg.churn.ops_per_thread = 5000;
    cfg.queue.events_per_producer = 20000;
    cfg.mpi.iterations = 8;
    cfg.worker_blocks_per_client = 4000;
    cfg.skew.hot_blocks = 4000;
    cfg.skew.cold_blocks = 160;
    cfg.skew.posix_jobs = 6;
    cfg.skew.posix_image_bytes = 64 * 1024;
    cfg.posix.files = 8;
    cfg.posix.image_bytes = 256 * 1024;
    cfg.posix.budget_bytes = 1ull << 20;
    cfg.sharded.files = 6;
    cfg.sharded.image_bytes = 256 * 1024;
    cfg.sharded.chunk_bytes = 64 * 1024;
    cfg.sharded.budget_bytes = 1ull << 20;
    cfg.compression.iterations = 4;
    cfg.compression.grid = 16;
    cfg.codec_min_seconds = 0.0;
    cfg.death.blocks_per_client = 600;
    cfg.death.kill_after = 150;
    cfg.engines.collective_rounds = 200;
    cfg.engines.p2p_rounds = 2000;
    cfg.engines.des_events = 100000;
  }

  BenchResult r;
  for (int threads : {1, 4}) {
    AllocatorRow row;
    row.threads = threads;
    row.ops_per_sec = run_allocator_churn(cfg.churn, threads);
    r.allocator.push_back(row);
    std::printf("allocator churn, %d thread(s): %.2fM ops/s\n", threads,
                row.ops_per_sec / 1e6);
  }

  for (int producers : {1, 2, 4}) {
    QueueRow row;
    row.producers = producers;
    row.events_per_sec = run_queue(cfg.queue, producers, /*batched=*/false);
    row.batch_events_per_sec =
        run_queue(cfg.queue, producers, /*batched=*/true);
    r.queue.push_back(row);
    std::printf(
        "queue throughput, %d producer(s): push+pop_all %.2fM ev/s, "
        "push_all+pop_all %.2fM ev/s\n",
        producers, row.events_per_sec / 1e6, row.batch_events_per_sec / 1e6);
  }

  r.workers =
      run_worker_scaling(cfg.worker_sweep, cfg.worker_blocks_per_client);

  r.skew = run_skewed_clients(cfg.skew);
  // Full runs only — smoke workloads are too small for throughput ratios:
  // under the skewed mix stealing must beat pinning by at least 1.5x.
  if (!smoke && r.skew.speedup < 1.5)
    fail("stealing speedup %.2fx under skew is below 1.5x", r.skew.speedup);

  r.mpi = run_mpi_batching(cfg.mpi);
  std::printf(
      "mpi batching: %.3f wire msgs per (client, iteration) for %d blocks "
      "(unbatched design: %.3f), %.1f events per wire message\n",
      r.mpi.wire_per_client_iteration, cfg.mpi.blocks_per_iteration,
      r.mpi.unbatched_per_client_iteration, r.mpi.events_per_wire_message);
  // The structural win (frame batching) must hold at any scale; the O(1)
  // bound is checked in full runs only.
  if (!smoke && r.mpi.wire_per_client_iteration > 2.0)
    fail("wire messages per iteration did not collapse to O(1)");
  if (r.mpi.wire_per_client_iteration >= r.mpi.unbatched_per_client_iteration)
    fail("batching sent no fewer messages than the unbatched design");

  r.posix = run_posix_backend(cfg.posix);
  std::printf(
      "posix backend: sync %.1f MB/s, write-behind (%d drainers) %.1f MB/s, "
      "producer blocked %.3fs on the %.0f MiB budget\n",
      r.posix.sync_mb_per_sec, cfg.posix.drainers,
      r.posix.write_behind_mb_per_sec, r.posix.enqueue_block_seconds,
      static_cast<double>(cfg.posix.budget_bytes) / (1 << 20));

  for (int roots : {1, 2, 4}) {
    ShardedBenchRow row = run_sharded_roots(cfg.sharded, roots);
    row.speedup = r.sharded.rows.empty()
                      ? 1.0
                      : row.mb_per_sec / r.sharded.rows.front().mb_per_sec;
    r.sharded.rows.push_back(row);
    std::printf(
        "sharded backend, %d root(s): %.1f MB/s aggregate (%.2fx vs 1 root), "
        "placement balance %.2f\n",
        roots, row.mb_per_sec, row.speedup, row.placement_balance);
  }
  r.sharded = run_sharded_integrity(cfg.sharded, std::move(r.sharded));
  std::printf(
      "sharded integrity: twin %s, corruption %s, replication-2 recovery "
      "%s\n",
      r.sharded.twin_identical ? "byte-identical" : "MISMATCH",
      r.sharded.corruption_detected ? "detected" : "MISSED",
      r.sharded.replication_recovered ? "byte-identical" : "FAILED");
  // Structural gates, any scale.  The scaling gate uses roots x balance —
  // the makespan speedup the *layout* supports — so a full run on a
  // single-disk host cannot fail it on hardware it does not have.
  {
    const ShardedBenchRow& widest = r.sharded.rows.back();
    const double layout_speedup =
        static_cast<double>(widest.roots) * widest.placement_balance;
    if (layout_speedup < 1.5)
      fail("4-root placement supports only %.2fx over one root (balance %.2f)",
           layout_speedup, widest.placement_balance);
  }
  if (!r.sharded.twin_identical || !r.sharded.corruption_detected ||
      !r.sharded.replication_recovered)
    fail("sharded integrity gates");

  for (const std::string codec : {"none", "xor+lzs"}) {
    r.compression.push_back(run_compression(cfg.compression, codec));
    const auto& row = r.compression.back();
    std::printf(
        "compression (%s): %.1f MB raw -> %.1f MB on disk (%.2fx), codec "
        "time %.3fs (%.1f%% of worker time), %.1f raw MB/s retired\n",
        row.codec.c_str(), static_cast<double>(row.raw_bytes) / 1e6,
        static_cast<double>(row.bytes_to_disk) / 1e6, row.achieved_ratio,
        row.compress_seconds, row.spare_time_utilization * 100.0,
        row.effective_mb_per_sec);
  }
  // Any scale: the xor+lzs twin must put fewer bytes on the real disk than
  // the raw twin of the same workload.
  if (r.compression[1].bytes_to_disk >= r.compression[0].bytes_to_disk ||
      r.compression[1].achieved_ratio <= 1.0)
    fail("compression did not shrink bytes-to-disk (%llu raw vs %llu "
         "compressed)",
         static_cast<unsigned long long>(r.compression[0].bytes_to_disk),
         static_cast<unsigned long long>(r.compression[1].bytes_to_disk));
  r.codecs = run_codec_table(cfg.codec_min_seconds);
  for (const CodecRow& row : r.codecs) {
    std::printf("codec %-7s on %-6s: compress %7.1f MB/s (%.2fx)",
                row.codec.c_str(), row.data.c_str(), row.compress_mb_per_sec,
                row.ratio);
    if (row.decompress_mb_per_sec > 0.0)
      std::printf(", decompress %.1f MB/s", row.decompress_mb_per_sec);
    std::printf("\n");
  }

  r.death = run_client_death(cfg.death);
  // Full runs only: a faulty run that keeps less than half the healthy
  // throughput means the reclaim path is stalling the survivors.
  if (!smoke && r.death.throughput_retained < 0.5)
    fail("only %.3f of healthy throughput retained with a dead client",
         r.death.throughput_retained);

  r.engines = run_engines(cfg.engines);

  const std::string json = format_json(smoke, cfg, r);
  if (!json_path.empty()) {
    if (json_path == "-") {
      std::cout << json;
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "bench_hotpath: cannot write " << json_path << "\n";
        return 1;
      }
      out << json;
      std::printf("wrote %s\n", json_path.c_str());
    }
  }
  return 0;
}
