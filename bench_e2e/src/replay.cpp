#include "replay.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "core/client.hpp"
#include "core/emit_stage.hpp"
#include "core/node_runtime.hpp"
#include "core/scheduler.hpp"
#include "h5lite/h5lite.hpp"
#include "minimpi/minimpi.hpp"
#include "storage/posix_backend.hpp"
#include "storage/sharded_backend.hpp"
#include "storage/write_behind.hpp"
#include "transport/mpi_transport.hpp"
#include "transport/shm_transport.hpp"

namespace bench {

namespace {

using namespace dedicore;

/// Records one call's duration, in microseconds, under a stage name.
class StageClock {
 public:
  explicit StageClock(ReplayResult& result) : result_(result) {}
  void add(const char* stage, std::int64_t ns) {
    result_.stages[stage].add(static_cast<double>(ns) / 1e3);
  }
  bool enabled = true;

 private:
  ReplayResult& result_;
};

/// Forwards to the real client transport and times each call Client makes
/// into it; the copy is the interval between view() handing out the block
/// and publish() taking it back.
class TimedClientTransport final : public transport::ClientTransport {
 public:
  TimedClientTransport(std::unique_ptr<transport::ClientTransport> inner,
                       StageClock& clock, ReplayResult& result)
      : inner_(std::move(inner)), clock_(clock), result_(result) {}

  std::optional<shm::BlockRef> try_acquire(std::uint64_t size) override {
    return timed("transport.acquire_us", [&] { return inner_->try_acquire(size); });
  }
  std::optional<shm::BlockRef> acquire_blocking(std::uint64_t size) override {
    return timed("transport.acquire_us", [&] { return inner_->acquire_blocking(size); });
  }
  std::span<std::byte> view(const shm::BlockRef& block) override {
    auto out = inner_->view(block);
    view_ns_ = now_ns();
    view_bytes_ = block.size;
    return out;
  }
  void abandon(const shm::BlockRef& block) override { inner_->abandon(block); }
  bool publish(const transport::Event& event) override {
    note_copy();
    return timed("transport.publish_us", [&] { return inner_->publish(event); });
  }
  Status try_publish(const transport::Event& event) override {
    note_copy();
    return timed("transport.publish_us", [&] { return inner_->try_publish(event); });
  }
  /// The iteration close on the transport: post() plus flush() (which
  /// ships the MPI frame) are reported together as transport.flush_us.
  bool post(const transport::Event& event) override {
    const std::int64_t t = now_ns();
    const bool ok = inner_->post(event);
    post_ns_ = now_ns() - t;
    return ok;
  }
  void flush() override {
    const std::int64_t t = now_ns();
    inner_->flush();
    if (clock_.enabled) clock_.add("transport.flush_us", post_ns_ + now_ns() - t);
  }
  void die() override { inner_->die(); }
  [[nodiscard]] bool dead() const override { return inner_->dead(); }
  [[nodiscard]] transport::TransportStats stats() const override { return inner_->stats(); }

 private:
  template <typename F>
  auto timed(const char* stage, F&& call) -> decltype(call()) {
    const std::int64_t t = now_ns();
    auto out = call();
    if (clock_.enabled) clock_.add(stage, now_ns() - t);
    return out;
  }
  void note_copy() {
    const std::int64_t ns = now_ns() - view_ns_;
    if (clock_.enabled && view_ns_ != 0 && ns > 0)
      result_.copy_mb_s.add(static_cast<double>(view_bytes_) / 1e6 /
                            (static_cast<double>(ns) * 1e-9));
    view_ns_ = 0;
  }

  std::unique_ptr<transport::ClientTransport> inner_;
  StageClock& clock_;
  ReplayResult& result_;
  std::int64_t view_ns_ = 0;
  std::uint64_t view_bytes_ = 0;
  std::int64_t post_ns_ = 0;
};

/// Times `call` into `stage` and returns its result.
template <typename F>
auto time_stage(StageClock& clock, const char* stage, std::int64_t* total_ns, F&& call) {
  const std::int64_t t = now_ns();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    const std::int64_t ns = now_ns() - t;
    clock.add(stage, ns);
    if (total_ns != nullptr) *total_ns += ns;
  } else {
    auto out = call();
    const std::int64_t ns = now_ns() - t;
    clock.add(stage, ns);
    if (total_ns != nullptr) *total_ns += ns;
    return out;
  }
}

/// The file-per-process writer's steps (h5lite build, posix write_image)
/// on the window's fields, one thread per rank in lockstep as in the
/// baseline, so the posix writes contend for the disk as they do there.
void replay_fpp(const Workload& w, std::uint64_t seed, int first, int iterations,
                const fs::path& dir, ReplayResult& result) {
  struct RankTimes {
    Samples build_us, write_us, step_ms;
    bool ok = true;
  };
  const core::Configuration config = make_config(w, Mode::kFilePerProcess, w.clients, dir, "store");
  const core::LayoutSpec& layout = config.layout("block");
  const std::vector<std::uint64_t> extents = w.extents();
  storage::PosixBackend backend(dir / "fpp");
  Inputs inputs(w, seed, first + iterations);
  std::vector<RankTimes> times(static_cast<std::size_t>(w.clients));
  minimpi::run_world(w.clients, [&](minimpi::Comm& world) {
    const int rank = world.rank();
    RankTimes& mine = times[static_cast<std::size_t>(rank)];
    for (int it = 0; it < first + iterations; ++it) {
      inputs.compute(rank, it, /*spin=*/false);
      if (it < first) continue;
      world.barrier();
      const std::int64_t t = now_ns();
      h5lite::FileBuilder fb;
      fb.set_attribute(h5lite::FileBuilder::kRoot, "rank", std::int64_t{rank});
      fb.set_attribute(h5lite::FileBuilder::kRoot, "iteration", std::int64_t{it});
      for (int v = 0; v < w.var_count(); ++v)
        fb.add_dataset(h5lite::FileBuilder::kRoot, w.var_name(v), layout.dtype, extents,
                       inputs.field(rank, v));
      const std::vector<std::byte> image = std::move(fb).finalize();
      const std::int64_t built = now_ns();
      mine.ok &= storage::write_image(backend, fpp_output_path(rank, it), image).is_ok();
      const std::int64_t written = now_ns();
      mine.build_us.add(static_cast<double>(built - t) / 1e3);
      mine.write_us.add(static_cast<double>(written - built) / 1e3);
      mine.step_ms.add(static_cast<double>(written - t) / 1e6);
    }
  });
  for (const RankTimes& r : times) {
    result.stages["h5lite.build_us"].append(r.build_us);
    result.stages["storage.posix.write_image_us"].append(r.write_us);
    result.fpp_step_ms.append(r.step_ms);
    result.attempted += r.step_ms.count();
    if (!r.ok) ++result.failed;
  }
}

}  // namespace

ReplayResult run_replay(const Workload& w, std::uint64_t seed, int first, int iterations,
                        const fs::path& dir) {
  ReplayResult result;
  StageClock clock(result);
  // File-per-process workloads replay the dedicated-core path on their own
  // inputs too, so every layer is timed on every workload.
  const Mode mode = w.mode == Mode::kNodes ? Mode::kNodes : Mode::kCores;
  const core::Configuration config = make_config(w, mode, w.clients, dir / "damaris", "store");
  auto scheduler = std::make_shared<core::GreedyScheduler>();

  std::shared_ptr<core::NodeRuntime> server_node;
  std::shared_ptr<core::NodeRuntime> client_node;
  std::unique_ptr<transport::ServerTransport> server;
  std::vector<std::unique_ptr<transport::ClientTransport>> endpoints;
  if (mode == Mode::kCores) {
    server_node = std::make_shared<core::NodeRuntime>(config, 0, nullptr, scheduler);
    client_node = server_node;
    server = std::make_unique<transport::ShmServerTransport>(server_node->fabric, 0);
    for (int c = 0; c < w.clients; ++c)
      endpoints.push_back(
          std::make_unique<transport::ShmClientTransport>(server_node->fabric, 0, c));
  } else {
    // One thread drives every rank: the communicators outlive the world's
    // threads, and minimpi sends are buffered.
    std::vector<minimpi::Comm> comms(static_cast<std::size_t>(w.clients) + 1);
    minimpi::run_world(w.clients + 1, [&](minimpi::Comm& world) {
      comms[static_cast<std::size_t>(world.rank())] = world;
    });
    server_node = std::make_shared<core::NodeRuntime>(
        config, 0, nullptr, scheduler, core::NodeRuntime::Role::kIoNode);
    client_node = std::make_shared<core::NodeRuntime>(
        config, 0, nullptr, scheduler, core::NodeRuntime::Role::kClientOnly);
    server = std::make_unique<transport::MpiServerTransport>(
        comms[static_cast<std::size_t>(w.clients)], server_node->fabric);
    const std::uint64_t credit = config.buffer_size() / static_cast<std::uint64_t>(w.clients);
    for (int c = 0; c < w.clients; ++c)
      endpoints.push_back(std::make_unique<transport::MpiClientTransport>(
          comms[static_cast<std::size_t>(c)], w.clients, credit));
  }
  std::vector<std::unique_ptr<core::Client>> clients;
  for (int c = 0; c < w.clients; ++c)
    clients.push_back(std::make_unique<core::Client>(
        client_node, c,
        std::make_unique<TimedClientTransport>(
            std::move(endpoints[static_cast<std::size_t>(c)]), clock, result)));

  core::BlockIndex& index = *server_node->indexes[0];
  core::EmitStage& emit = *server_node->emit;
  storage::WriteBehind& write_behind = *server_node->write_behind;
  storage::StorageBackend& damaris_storage = *server_node->storage;
  std::vector<fs::path> shard_roots;
  for (int i = 0; i < 4; ++i) shard_roots.push_back(dir / ("shard" + std::to_string(i)));
  storage::ShardedOptions shard_options;
  shard_options.chunk_size = w.chunk_size > 0 ? w.chunk_size : 256 * 1024;
  storage::ShardedBackend sharded(shard_roots, shard_options);

  const core::LayoutSpec& layout = config.layout("block");
  const int end = first + iterations;
  Inputs inputs(w, seed, end);
  std::uint64_t raw_bytes = 0, stored_bytes = 0, datasets = 0, compressed = 0;
  const auto check = [&result](bool ok) {
    ++result.attempted;
    if (!ok) ++result.failed;
  };
  for (int it = 0; it < first; ++it)
    for (int c = 0; c < w.clients; ++c) inputs.compute(c, it, /*spin=*/false);

  for (int it = first; it < end; ++it) {
    for (int c = 0; c < w.clients; ++c) inputs.compute(c, it, /*spin=*/false);
    const int step = it - first;  // the iteration the clients' events carry

    // Client side, then the server's intake of that client's events.
    for (int c = 0; c < w.clients; ++c) {
      core::Client& client = *clients[static_cast<std::size_t>(c)];
      const auto offset = inputs.global_offset(c);
      for (int v = 0; v < w.var_count(); ++v)
        check(time_stage(clock, "core.client.write_us", nullptr, [&] {
                return client.write(w.var_name(v), inputs.field(c, v), offset);
              }).is_ok());
      check(time_stage(clock, "core.client.end_iteration_us", nullptr,
                       [&] { return client.end_iteration(); })
                .is_ok());
      for (;;) {
        const auto event = time_stage(clock, "transport.next_event_us", nullptr,
                                      [&] { return server->next_event(); });
        if (!event) {
          check(false);
          break;
        }
        if (event->type == transport::EventType::kEndIteration) break;
        core::BlockInfo info;
        info.variable = event->variable;
        info.source = event->source;
        info.iteration = event->iteration;
        info.block_id = event->block_id;
        info.block = event->block;
        for (int i = 0; i < 4; ++i) info.global_offset[i] = event->global_offset[i];
        time_stage(clock, "core.block_index.insert_us", nullptr, [&] { index.insert(info); });
      }
    }

    // The store step, in StorePlugin::run's order.
    std::int64_t store_ns = 0;
    h5lite::FileBuilder builder;
    builder.set_attribute(h5lite::FileBuilder::kRoot, "simulation", config.simulation_name());
    builder.set_attribute(h5lite::FileBuilder::kRoot, "iteration", std::int64_t{it});
    builder.set_attribute(h5lite::FileBuilder::kRoot, "node", std::int64_t{0});
    for (const core::VariableSpec& var : config.variables()) {
      const auto blocks = time_stage(clock, "core.block_index.query_us", &store_ns,
                                     [&] { return index.blocks_of(var.id, step); });
      const compress::CodecId requested = emit.resolve_codec(var, "");
      const auto group = builder.create_group(h5lite::FileBuilder::kRoot, var.name);
      builder.set_attribute(group, "layout", layout.name);
      builder.set_attribute(group, "dtype", std::string(h5lite::dtype_name(layout.dtype)));
      std::optional<compress::CodecId> planned;
      for (const core::BlockInfo& block : blocks) {
        const auto view = server->view(block.block);
        std::string dataset = "r";
        dataset += std::to_string(block.source);
        dataset += "_b";
        dataset += std::to_string(block.block_id);
        const auto emitted = time_stage(clock, "core.emit_stage.emit_us", &store_ns, [&] {
          if (!planned) planned = emit.plan(var, requested, view);
          return emit.emit_dataset(builder, group, dataset, layout, view, *planned);
        });
        raw_bytes += emitted.raw_bytes;
        stored_bytes += emitted.stored_bytes;
        ++datasets;
        if (emitted.compressed) ++compressed;
      }
      if (planned)
        builder.set_attribute(group, "codec", std::string(compress::codec_name(*planned)));
    }
    std::vector<std::byte> image = time_stage(clock, "h5lite.finalize_us", &store_ns,
                                              [&] { return std::move(builder).finalize(); });
    const std::vector<std::byte> image_copy = image;
    time_stage(clock, "storage.write_behind.enqueue_us", &store_ns, [&] {
      write_behind.enqueue(
          storage::WriteBehind::Job(damaris_output_path(it), 0, std::move(image),
                                    [&check](const Status& st) { check(st.is_ok()); }));
    });
    result.store_step_ms.add(static_cast<double>(store_ns) / 1e6);
    const auto extracted = time_stage(clock, "core.block_index.extract_us", nullptr,
                                      [&] { return index.extract_iteration(step); });
    for (const core::BlockInfo& block : extracted)
      time_stage(clock, "transport.release_us", nullptr, [&] { server->release(block.block); });
    // Drained as the server drains after each pipeline: a single worker
    // writes a few queued jobs, a worker pool's idle workers write them
    // all.  What stays queued fills the byte budget, and the next enqueue
    // then drains inside the store step, as under backpressure.
    time_stage(clock, "storage.write_behind.drain_us", nullptr, [&] {
      if (w.server_workers == 1) {
        write_behind.drain_some(4);
      } else {
        write_behind.drain_all();
      }
    });

    // The sharded stack's three steps on the same image.
    std::int64_t plan_ns = 0;
    const auto plan = time_stage(clock, "storage.sharded.plan_us", &plan_ns, [&] {
      return sharded.plan_image(damaris_output_path(it), image_copy);
    });
    result.plan_mb_s.add(static_cast<double>(image_copy.size()) / 1e6 /
                         (static_cast<double>(std::max<std::int64_t>(plan_ns, 1)) * 1e-9));
    for (std::size_t i = 0; i < plan->chunk_count(); ++i) {
      const auto chunk = std::span<const std::byte>(image_copy)
                             .subspan(plan->offset_of(i), plan->sizes[i]);
      check(time_stage(clock, "storage.sharded.write_chunk_us", nullptr,
                       [&] { return sharded.write_chunk(*plan, i, chunk); })
                .is_ok());
    }
    check(time_stage(clock, "storage.sharded.publish_manifest_us", nullptr,
                     [&] { return sharded.publish_manifest(*plan); })
              .is_ok());
  }

  // Read side: every replayed Damaris image back through its backend.
  write_behind.drain_all();
  auto* sharded_storage = dynamic_cast<storage::ShardedBackend*>(&damaris_storage);
  for (int it = first; it < end; ++it) {
    std::vector<std::byte> bytes;
    const bool read = time_stage(clock, "storage.read_us", nullptr, [&] {
      if (sharded_storage != nullptr)
        return sharded_storage->read_image(damaris_output_path(it), &bytes).is_ok();
      auto file = damaris_storage.read_file(damaris_output_path(it));
      if (file) bytes = std::move(*file);
      return file.has_value();
    });
    check(read);
    if (!read) continue;
    try {
      time_stage(clock, "h5lite.parse_us", nullptr, [&] {
        const h5lite::File file = h5lite::File::parse(std::move(bytes));
        for (const std::string& path : file.dataset_paths())
          (void)file.find_dataset(path)->read();
      });
    } catch (const std::exception&) {
      check(false);
    }
  }

  clock.enabled = false;  // the clients' stop() on destruction is not replayed
  result.compress_ratio = compress::compression_ratio(raw_bytes, stored_bytes);
  result.compressed_share =
      datasets > 0 ? static_cast<double>(compressed) / static_cast<double>(datasets) : 0.0;
  replay_fpp(w, seed, first, iterations, dir, result);
  return result;
}

}  // namespace bench
