// Plugin system of the dedicated-core service.
//
// "The second strength of Damaris consists in a plugin system which makes
// the design of custom data management services straightforward."  Plugins
// are bound to events in the XML configuration (<actions><event
// name="end_iteration" plugin="store"/>); the server instantiates one
// plugin object per binding and fires it when the event triggers.
//
// Built-in plugins (registered by the library itself):
//   "store"    — aggregate the iteration's blocks into one h5lite file per
//                dedicated core (optionally compressed, see `codec` param);
//   "stats"    — per-variable min/max/mean/sum, kept queryable;
//   "vislite"  — in-situ isosurface + rendering through src/viz;
//   "script"   — tiny expression interpreter for user-defined reductions
//                (the stand-in for Damaris's Python plugin support).
//
// User plugins register a factory under a unique name at startup.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "core/types.hpp"
#include "transport/transport.hpp"

namespace dedicore::core {

struct NodeRuntime;

/// Everything a plugin may touch when it fires.
struct PluginContext {
  NodeRuntime& node;          ///< index, filesystem, config
  /// The server's transport endpoint: the only way to reach block
  /// payloads, which may be locally resident or received over MPI.
  transport::ServerTransport* transport = nullptr;
  int server_index = 0;       ///< which dedicated core of the node runs this
  Iteration iteration = 0;    ///< iteration the trigger belongs to
  const Event* trigger = nullptr;  ///< the raw event (signals); may be null
  const std::map<std::string, std::string>* params = nullptr;  ///< XML params

  [[nodiscard]] std::string param_or(const std::string& key,
                                     const std::string& fallback) const {
    if (params == nullptr) return fallback;
    auto it = params->find(key);
    return it == params->end() ? fallback : it->second;
  }

  /// Read-only payload of a block delivered to this server.
  [[nodiscard]] std::span<const std::byte> block_view(
      const shm::BlockRef& block) const {
    DEDICORE_CHECK(transport != nullptr, "PluginContext: no transport");
    return transport->view(block);
  }
};

class Plugin {
 public:
  virtual ~Plugin() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Fired by the server on the dedicated core.  The blocks of
  /// `context.iteration` are in `context.node.index(server)`; the plugin
  /// must not deallocate them (the server does, after the whole pipeline).
  virtual void run(PluginContext& context) = 0;
};

using PluginFactory = std::function<std::unique_ptr<Plugin>(
    const std::map<std::string, std::string>& params)>;

/// Registers a factory; throws ConfigError if the name is taken.
void register_plugin(const std::string& name, PluginFactory factory);

/// Instantiates a plugin; throws ConfigError for unknown names.
std::unique_ptr<Plugin> make_plugin(const std::string& name,
                                    const std::map<std::string, std::string>& params);

/// True when a factory exists.
bool plugin_registered(const std::string& name);

/// Registers the built-in plugins ("store", "stats", "script", "vislite").
/// Idempotent; called by Runtime::initialize.
void register_builtin_plugins();

}  // namespace dedicore::core
