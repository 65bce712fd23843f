#include "storage/sharded_backend.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "storage/crc32c.hpp"

namespace dedicore::storage {

namespace {

std::string chunk_name(const std::string& path, std::size_t index) {
  return path + std::string(ShardedBackend::kChunkInfix) +
         std::to_string(index);
}

std::string manifest_name(const std::string& path) {
  return path + std::string(ShardedBackend::kManifestSuffix);
}

std::string crc_hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

std::string serialize_manifest(const ChunkPlan& plan) {
  std::ostringstream out;
  out << "dedicore-sharded-manifest v2\n"
      << "generation " << plan.generation << "\n"
      << "size " << plan.total_bytes << "\n"
      << "chunk_size " << plan.chunk_size << "\n"
      << "replication " << plan.replication << "\n"
      << "chunks " << plan.chunk_count() << "\n";
  for (std::size_t i = 0; i < plan.chunk_count(); ++i) {
    out << "chunk " << i << " " << plan.sizes[i] << " "
        << crc_hex(plan.crcs[i]);
    for (std::size_t k = 0; k < plan.placements[i].roots.size(); ++k)
      out << (k == 0 ? " " : ",") << plan.placements[i].roots[k];
    out << "\n";
  }
  return out.str();
}

/// Parses all of `token` as one number in `base`: a stray character
/// anywhere ("1x", "1c29g1a3") fails instead of truncating the value.
template <typename T>
bool parse_whole(std::string_view token, T* value, int base = 10) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *value, base);
  return ec == std::errc() && ptr == end;
}

/// Strict parse; false on any malformation (the caller treats a malformed
/// manifest copy like a corrupt one and falls through to the next copy).
/// Every field the read path will later trust as an index or a length is
/// validated here against the invariants the writer maintains — a
/// parseable-but-inconsistent manifest (sizes that disagree with
/// chunk_size, an absurd chunk count) must be rejected, never allowed to
/// drive out-of-bounds copies or multi-GiB allocations downstream.
bool parse_manifest(const std::string& text, int root_count, ChunkPlan* out) {
  try {
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != "dedicore-sharded-manifest v2")
      return false;
    auto read_kv = [&](const char* key, std::uint64_t* value) {
      if (!std::getline(in, line)) return false;
      std::istringstream ls(line);
      std::string k;
      return static_cast<bool>(ls >> k >> *value) && k == key;
    };
    std::uint64_t replication = 0, chunks = 0;
    if (!read_kv("generation", &out->generation)) return false;
    if (!read_kv("size", &out->total_bytes)) return false;
    if (!read_kv("chunk_size", &out->chunk_size)) return false;
    if (!read_kv("replication", &replication)) return false;
    if (!read_kv("chunks", &chunks)) return false;
    if (out->chunk_size == 0) return false;
    if (replication < 1 ||
        replication > static_cast<std::uint64_t>(root_count))
      return false;
    // The chunk count is fully determined by size/chunk_size; checking it
    // before the resizes bounds the allocations below.
    const std::uint64_t expected_chunks =
        out->total_bytes == 0
            ? 0
            : (out->total_bytes - 1) / out->chunk_size + 1;
    if (chunks != expected_chunks) return false;
    out->replication = static_cast<int>(replication);
    out->sizes.resize(chunks);
    out->crcs.resize(chunks);
    out->placements.resize(chunks);
    for (std::uint64_t i = 0; i < chunks; ++i) {
      if (!std::getline(in, line)) return false;
      std::istringstream ls(line);
      std::string tag, hex, roots;
      std::uint64_t index = 0;
      if (!(ls >> tag >> index >> out->sizes[i] >> hex >> roots)) return false;
      if (tag != "chunk" || index != i || hex.size() != 8) return false;
      // Every chunk is exactly chunk_size except the tail, which carries
      // the remainder: reads copy sizes[i] bytes at offset chunk_size*i,
      // so anything looser is an out-of-bounds write waiting to happen.
      const std::uint64_t expected_size =
          i + 1 < chunks
              ? out->chunk_size
              : out->total_bytes - out->chunk_size * (chunks - 1);
      if (out->sizes[i] != expected_size) return false;
      if (!parse_whole(hex, &out->crcs[i], 16)) return false;
      std::istringstream rs(roots);
      std::string item;
      while (std::getline(rs, item, ',')) {
        int root = -1;
        if (!parse_whole(item, &root) || root < 0 || root >= root_count)
          return false;
        out->placements[i].roots.push_back(root);
      }
      if (out->placements[i].roots.empty()) return false;
    }
    return true;
  } catch (const std::exception&) {
    // bad_alloc / length_error from a hostile field: malformed, not fatal.
    return false;
  }
}

}  // namespace

struct ShardedBackend::OpenImage {
  std::string path;
  /// Serializes staging and the close-time drain.  Held across plan/
  /// write_chunk/publish in close(), so it sits ABOVE sharded.state,
  /// placement.state, and the posix.* locks in the hierarchy.
  Mutex io_mutex{"sharded.image"};
  /// Staged content; size == logical EOF.
  std::vector<std::byte> buffer DEDICORE_GUARDED_BY(io_mutex);
};

ShardedBackend::ShardedBackend(std::vector<std::filesystem::path> roots,
                               ShardedOptions options,
                               std::shared_ptr<fault::FaultInjector> faults)
    : options_(options) {
  if (roots.empty())
    throw ConfigError("ShardedBackend: at least one root is required");
  if (options_.chunk_size == 0)
    throw ConfigError("ShardedBackend: chunk_size must be > 0");
  if (options_.replication < 1 ||
      options_.replication > static_cast<int>(roots.size()))
    throw ConfigError("ShardedBackend: replication " +
                      std::to_string(options_.replication) +
                      " outside [1, " + std::to_string(roots.size()) +
                      " roots]");
  roots_.reserve(roots.size());
  std::set<std::filesystem::path> seen;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    // PosixBackend's ctor creates the directory (and runs its recovery
    // scan); canonicalize afterwards so "a" and "./a" are caught as the
    // same physical root — replicas on one disk would be silent data loss
    // waiting for that disk to die.
    roots_.push_back(std::make_unique<PosixBackend>(
        roots[i], faults, /*fault_target=*/static_cast<int>(i)));
    std::error_code ec;
    std::filesystem::path canon = std::filesystem::canonical(roots[i], ec);
    if (ec) canon = roots[i];
    if (!seen.insert(canon).second)
      throw ConfigError("ShardedBackend: root '" + roots[i].string() +
                        "' duplicates another root");
  }
  placement_ = std::make_unique<Placement>(
      options_.placement, static_cast<int>(roots_.size()),
      options_.replication, options_.placement_seed);
}

std::uint64_t ShardedBackend::next_generation(const std::string& path) {
  {
    // Fast path: this process already planned a generation for the path —
    // the cache is >= anything on disk (we only ever publish what we
    // planned), and it keeps queued-but-unpublished overwrites ordered.
    MutexLock lock(mutex_);
    auto it = generations_.find(path);
    if (it != generations_.end()) return ++it->second;
  }
  // First plan for this path: seed from whatever survives on disk, so an
  // overwrite after a restart still outranks the previous run's manifest.
  const std::string name = manifest_name(path);
  std::uint64_t on_disk = 0;
  for (const auto& root : roots_) {
    const auto text = root->read_file(name);
    if (!text.has_value()) continue;
    ChunkPlan existing;
    if (parse_manifest(
            std::string(reinterpret_cast<const char*>(text->data()),
                        text->size()),
            static_cast<int>(roots_.size()), &existing))
      on_disk = std::max(on_disk, existing.generation);
  }
  MutexLock lock(mutex_);
  auto [it, inserted] = generations_.emplace(path, on_disk + 1);
  if (!inserted) it->second = std::max(it->second, on_disk) + 1;
  return it->second;
}

std::shared_ptr<ChunkPlan> ShardedBackend::plan_image(
    const std::string& path, std::span<const std::byte> image) {
  auto plan = std::make_shared<ChunkPlan>();
  plan->path = path;
  plan->generation = next_generation(path);
  plan->total_bytes = image.size();
  plan->chunk_size = options_.chunk_size;
  plan->replication = options_.replication;
  for (std::uint64_t off = 0; off < image.size();
       off += options_.chunk_size) {
    const std::uint64_t n =
        std::min<std::uint64_t>(options_.chunk_size, image.size() - off);
    plan->sizes.push_back(n);
    plan->crcs.push_back(crc32c(image.subspan(off, n)));
  }
  plan->placements = placement_->place(path, plan->sizes);
  return plan;
}

Status ShardedBackend::write_chunk(const ChunkPlan& plan, std::size_t index,
                                   std::span<const std::byte> chunk,
                                   double* seconds) {
  DEDICORE_CHECK(index < plan.chunk_count(),
                 "ShardedBackend::write_chunk: chunk index out of range");
  DEDICORE_CHECK(chunk.size() == plan.sizes[index],
                 "ShardedBackend::write_chunk: slice does not match plan");
  const std::string name = chunk_name(plan.path, index);
  Status first_error;
  std::size_t landed = 0;
  double stall = 0.0;
  for (const int root : plan.placements[index].roots) {
    double sec = 0.0;
    Status st = write_image(*roots_[static_cast<std::size_t>(root)], name,
                            chunk, /*stripe_count=*/0, &sec);
    stall += sec;
    if (st.is_ok()) {
      ++landed;
    } else {
      if (first_error.is_ok()) first_error = std::move(st);
    }
  }
  if (seconds != nullptr) *seconds = stall;
  MutexLock lock(mutex_);
  counters_.chunks_written += landed;
  if (landed == 0) return first_error;  // all replicas failed: retryable
  if (landed < plan.placements[index].roots.size()) {
    // The chunk is durable but under-replicated — degraded, not failed:
    // the manifest still lists every planned root and reads skip the
    // missing copy.  Promoting this to a job failure would turn one bad
    // root into total write unavailability, the opposite of replication.
    ++counters_.degraded_chunk_writes;
    DEDICORE_LOG(kWarn) << "sharded: chunk '" << name << "' landed on "
                        << landed << "/" << plan.placements[index].roots.size()
                        << " roots: " << first_error.to_string();
  }
  return Status::ok();
}

std::vector<int> ShardedBackend::manifest_roots(const ChunkPlan& plan) const {
  if (!plan.placements.empty()) return plan.placements[0].roots;
  // Empty image: no chunk placement to follow; use the first
  // `replication` roots (deterministic, distinct).
  std::vector<int> out;
  for (int i = 0; i < options_.replication; ++i) out.push_back(i);
  return out;
}

Status ShardedBackend::publish_manifest(const ChunkPlan& plan) {
  const std::string text = serialize_manifest(plan);
  const auto bytes = std::as_bytes(std::span<const char>(text));
  const std::string name = manifest_name(plan.path);
  const std::vector<int> targets = manifest_roots(plan);
  Status first_error;
  std::size_t landed = 0;
  for (const int root : targets) {
    // Inner write_image goes through the PR 8 temp+fsync+rename path, so
    // each manifest copy appears atomically — the image is never visible
    // half-published.
    Status st =
        write_image(*roots_[static_cast<std::size_t>(root)], name, bytes);
    if (st.is_ok()) {
      ++landed;
    } else {
      if (first_error.is_ok()) first_error = std::move(st);
      DEDICORE_LOG(kWarn) << "sharded: manifest copy of '" << plan.path
                          << "' failed on root " << root << ": "
                          << st.to_string();
    }
  }
  if (landed == 0) return first_error;
  // An overwrite may have moved the manifest onto different roots
  // (balanced placement re-decides per generation): best-effort delete
  // the copies this generation does not occupy, so readers of a root
  // subset cannot resurrect the old image.  Roots this publish *failed*
  // on keep their old copy untouched — the generation scan in
  // load_manifest outranks it.
  for (std::size_t i = 0; i < roots_.size(); ++i)
    if (std::find(targets.begin(), targets.end(), static_cast<int>(i)) ==
        targets.end())
      roots_[i]->remove_file(name);
  MutexLock lock(mutex_);
  ++counters_.manifests_published;
  if (landed < targets.size()) {
    // Visible but under-replicated: surfaced like degraded_chunk_writes
    // so monitoring can see a manifest that lost copies.
    ++counters_.degraded_manifest_writes;
  }
  return Status::ok();
}

Status ShardedBackend::create(const std::string& path, FileHandle* out,
                              int stripe_count) {
  DEDICORE_CHECK(out != nullptr, "ShardedBackend::create: null out");
  (void)stripe_count;  // chunking is explicit here; the hint is for fsim
  if (Status st = validate_backend_path(path); !st.is_ok()) return st;
  auto image = std::make_shared<OpenImage>();
  image->path = path;
  MutexLock lock(mutex_);
  const std::uint64_t id = next_id_++;
  open_.emplace(id, std::move(image));
  ++stats_.files_created;
  *out = FileHandle{id};
  return Status::ok();
}

Status ShardedBackend::open(const std::string& path, FileHandle* out) {
  DEDICORE_CHECK(out != nullptr, "ShardedBackend::open: null out");
  if (Status st = validate_backend_path(path); !st.is_ok()) return st;
  // Positional update: load the current (verified) content, mutate in
  // memory, republish at close.  Unlike PosixBackend's in-place fd this
  // rewrites every chunk, but it keeps the integrity invariant — a chunk
  // on disk is never half-new.
  auto image = std::make_shared<OpenImage>();
  image->path = path;
  if (Status st = read_image(path, &image->buffer); !st.is_ok()) return st;
  MutexLock lock(mutex_);
  const std::uint64_t id = next_id_++;
  open_.emplace(id, std::move(image));
  *out = FileHandle{id};
  return Status::ok();
}

Status ShardedBackend::write(FileHandle file, std::span<const std::byte> bytes,
                             double* seconds) {
  // Append is its own entry point (offset resolved at EOF under the
  // handle's lock), not an in-band sentinel offset: every pwrite offset,
  // including UINT64_MAX, keeps its literal meaning.
  return stage(file, /*append=*/true, 0, bytes, seconds);
}

Status ShardedBackend::pwrite(FileHandle handle, std::uint64_t offset,
                              std::span<const std::byte> bytes,
                              double* seconds) {
  if (bytes.size() > UINT64_MAX - offset)
    return Status::invalid_argument(
        "sharded: pwrite at offset " + std::to_string(offset) + " of " +
        std::to_string(bytes.size()) + " bytes overflows the file range");
  return stage(handle, /*append=*/false, offset, bytes, seconds);
}

Status ShardedBackend::stage(FileHandle handle, bool append,
                             std::uint64_t offset,
                             std::span<const std::byte> bytes,
                             double* seconds) {
  std::shared_ptr<OpenImage> image;
  {
    MutexLock lock(mutex_);
    auto it = open_.find(handle.id);
    if (it == open_.end())
      return Status::failed_precondition(
          "sharded: handle " + std::to_string(handle.id) +
          " is closed or invalid");
    image = it->second;
  }
  {
    MutexLock io(image->io_mutex);
    if (append) offset = image->buffer.size();
    if (offset + bytes.size() > image->buffer.size()) {
      try {
        image->buffer.resize(offset + bytes.size());  // zero-fills holes
      } catch (const std::exception&) {
        // A sparse write at an absurd offset is a caller error, not a
        // reason to terminate the process on bad_alloc.
        return Status::out_of_memory(
            "sharded: cannot stage " + std::to_string(bytes.size()) +
            " bytes at offset " + std::to_string(offset) + " of '" +
            image->path + "'");
      }
    }
    std::copy(bytes.begin(), bytes.end(),
              image->buffer.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  // Staging is memory-speed; the disk stall happens at close/publication
  // (accounted in write_seconds there).
  if (seconds != nullptr) *seconds = 0.0;
  MutexLock lock(mutex_);
  ++stats_.writes;
  stats_.bytes_written += bytes.size();
  return Status::ok();
}

Status ShardedBackend::close(FileHandle handle) {
  std::shared_ptr<OpenImage> image;
  {
    MutexLock lock(mutex_);
    auto it = open_.find(handle.id);
    // Same contract as the other backends: a double close is a broken
    // handle lifecycle, crash loudly.
    DEDICORE_CHECK(it != open_.end(),
                   "ShardedBackend: double close or stale file handle");
    image = it->second;
    open_.erase(it);
  }
  MutexLock io(image->io_mutex);
  Stopwatch timer;
  const auto plan = plan_image(image->path, image->buffer);
  Status result;
  for (std::size_t i = 0; result.is_ok() && i < plan->chunk_count(); ++i)
    result = write_chunk(
        *plan, i,
        std::span<const std::byte>(image->buffer)
            .subspan(plan->offset_of(i), plan->sizes[i]));
  if (result.is_ok()) result = publish_manifest(*plan);
  const double elapsed = timer.elapsed_seconds();
  MutexLock lock(mutex_);
  stats_.write_seconds += elapsed;
  return result;
}

Status ShardedBackend::load_manifest(const std::string& path,
                                     ChunkPlan* out) const {
  const std::string name = manifest_name(path);
  bool found_any = false, parsed_any = false;
  ChunkPlan best;
  // Scan EVERY root, not just until the first parseable copy: an
  // overwrite can leave a stale lower-generation manifest on a root the
  // new generation vacated (or failed to reach), and root-index order
  // would happily serve it.  The highest generation wins.
  for (const auto& root : roots_) {
    const auto text = root->read_file(name);
    if (!text.has_value()) continue;
    found_any = true;
    ChunkPlan plan;
    plan.path = path;
    if (parse_manifest(
            std::string(reinterpret_cast<const char*>(text->data()),
                        text->size()),
            static_cast<int>(roots_.size()), &plan)) {
      if (!parsed_any || plan.generation > best.generation)
        best = std::move(plan);
      parsed_any = true;
      continue;
    }
    // Malformed copy: treat like corruption and try the next root.
    MutexLock lock(mutex_);
    ++counters_.corrupt_chunks_detected;
  }
  if (parsed_any) {
    *out = std::move(best);
    return Status::ok();
  }
  if (found_any)
    return Status::data_loss("sharded: every manifest copy of '" + path +
                             "' is corrupt");
  return Status::not_found("sharded: no manifest for '" + path + "'");
}

Status ShardedBackend::read_image(const std::string& path,
                                  std::vector<std::byte>* out,
                                  bool* degraded) const {
  DEDICORE_CHECK(out != nullptr, "ShardedBackend::read_image: null out");
  if (degraded != nullptr) *degraded = false;
  ChunkPlan plan;
  if (Status st = load_manifest(path, &plan); !st.is_ok()) return st;
  // Size the output from the manifest only once every chunk has a copy of
  // its planned size on disk (one stat per copy tried): a forged `size`
  // must not drive the allocation, so no read allocates more than the
  // bytes it found.  `unbacked` is the first chunk without such a copy;
  // the loop below still reads it, so its error and its corrupt-copy
  // count are the same as when the output is sized.
  std::size_t unbacked = 0;
  for (; unbacked < plan.chunk_count(); ++unbacked) {
    const std::string name = chunk_name(path, unbacked);
    const auto& roots = plan.placements[unbacked].roots;
    if (std::none_of(roots.begin(), roots.end(), [&](int root) {
          return roots_[static_cast<std::size_t>(root)]->file_size(name) ==
                 plan.sizes[unbacked];
        }))
      break;
  }
  const bool sized = unbacked == plan.chunk_count();
  if (sized) out->assign(plan.total_bytes, std::byte{0});
  for (std::size_t i = 0; i < plan.chunk_count(); ++i) {
    const std::string name = chunk_name(path, i);
    bool recovered = false;
    std::size_t bad_copies = 0;
    for (const int root : plan.placements[i].roots) {
      const auto data = roots_[static_cast<std::size_t>(root)]->read_file(name);
      if (!data.has_value()) {
        // Missing copy (root lost, or a degraded write skipped it): not
        // corruption, but the read is degraded if a later replica serves.
        continue;
      }
      if (data->size() != plan.sizes[i] ||
          crc32c(*data) != plan.crcs[i]) {
        ++bad_copies;
        MutexLock lock(mutex_);
        ++counters_.corrupt_chunks_detected;
        continue;
      }
      if (sized)
        std::copy(data->begin(), data->end(),
                  out->begin() +
                      static_cast<std::ptrdiff_t>(plan.offset_of(i)));
      if (root != plan.placements[i].roots.front()) {
        // Served past a missing/corrupt primary copy.
        if (degraded != nullptr) *degraded = true;
        MutexLock lock(mutex_);
        ++counters_.degraded_reads;
      }
      recovered = true;
      break;
    }
    // An unbacked chunk that verifies now changed on disk after the stat;
    // the output was never sized, so it fails like a lost chunk.
    if (!recovered || i == unbacked) {
      out->clear();
      return Status::data_loss(
          "sharded: chunk " + std::to_string(i) + " of '" + path +
          "' is unrecoverable (" + std::to_string(bad_copies) + " of " +
          std::to_string(plan.placements[i].roots.size()) +
          " copies corrupt, rest missing)");
    }
  }
  return Status::ok();
}

bool ShardedBackend::exists(const std::string& path) const {
  const std::string name = manifest_name(path);
  for (const auto& root : roots_)
    if (root->exists(name)) return true;
  return false;
}

std::optional<std::vector<std::byte>> ShardedBackend::read_file(
    const std::string& path) const {
  std::vector<std::byte> out;
  if (!read_image(path, &out).is_ok()) return std::nullopt;
  return out;
}

std::uint64_t ShardedBackend::file_size(const std::string& path) const {
  ChunkPlan plan;
  if (!load_manifest(path, &plan).is_ok()) return 0;
  return plan.total_bytes;
}

std::vector<std::string> ShardedBackend::list_files() const {
  // The manifest set IS the namespace: chunk files are internal layout.
  std::set<std::string> names;
  for (const auto& root : roots_) {
    for (const std::string& file : root->list_files()) {
      if (file.size() <= kManifestSuffix.size() ||
          file.compare(file.size() - kManifestSuffix.size(),
                       kManifestSuffix.size(), kManifestSuffix) != 0)
        continue;
      names.insert(file.substr(0, file.size() - kManifestSuffix.size()));
    }
  }
  return {names.begin(), names.end()};
}

std::size_t ShardedBackend::file_count() const { return list_files().size(); }

StorageStats ShardedBackend::stats() const {
  MutexLock lock(mutex_);
  StorageStats out = stats_;
  // Physical-root recovery/reclaim events surface in the logical view too
  // — they are the numbers fault-tolerance tests assert on.
  for (const auto& root : roots_) {
    const StorageStats rs = root->stats();
    out.files_quarantined += rs.files_quarantined;
    out.handles_reclaimed += rs.handles_reclaimed;
  }
  return out;
}

std::vector<StorageStats> ShardedBackend::root_stats() const {
  std::vector<StorageStats> out;
  out.reserve(roots_.size());
  for (const auto& root : roots_) out.push_back(root->stats());
  return out;
}

ShardedCounters ShardedBackend::counters() const {
  MutexLock lock(mutex_);
  return counters_;
}

std::size_t ShardedBackend::open_handles() const {
  MutexLock lock(mutex_);
  return open_.size();
}

std::string ShardedBackend::stats_json() const {
  StorageStats logical;
  ShardedCounters c;
  {
    MutexLock lock(mutex_);
    logical = stats_;
    c = counters_;
  }
  std::ostringstream out;
  auto stats_obj = [&](const StorageStats& s) {
    out << "{\"files_created\":" << s.files_created << ",\"writes\":"
        << s.writes << ",\"bytes_written\":" << s.bytes_written
        << ",\"write_seconds\":" << s.write_seconds
        << ",\"files_quarantined\":" << s.files_quarantined
        << ",\"handles_reclaimed\":" << s.handles_reclaimed << "}";
  };
  out << "{\"backend\":\"sharded\",\"roots\":" << roots_.size()
      << ",\"chunk_size\":" << options_.chunk_size << ",\"placement\":\""
      << placement_policy_name(options_.placement)
      << "\",\"placement_seed\":" << options_.placement_seed
      << ",\"replication\":" << options_.replication << ",\"logical\":";
  stats_obj(logical);
  out << ",\"sharded\":{\"chunks_written\":" << c.chunks_written
      << ",\"degraded_chunk_writes\":" << c.degraded_chunk_writes
      << ",\"manifests_published\":" << c.manifests_published
      << ",\"degraded_manifest_writes\":" << c.degraded_manifest_writes
      << ",\"corrupt_chunks_detected\":" << c.corrupt_chunks_detected
      << ",\"degraded_reads\":" << c.degraded_reads << "},\"per_root\":[";
  const auto assigned = placement_->assigned_bytes();
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"root\":\"" << roots_[i]->root().string()
        << "\",\"assigned_bytes\":" << assigned[i] << ",\"stats\":";
    stats_obj(roots_[i]->stats());
    out << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace dedicore::storage
