// Circuit: node registry + device container. Owns all devices; nodes are
// created by name on first use ("0" and "gnd" map to ground).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spice/device.hpp"

namespace sfc::spice {

class Circuit {
 public:
  Circuit() = default;

  /// Get-or-create the node with the given name.
  NodeId node(const std::string& name);

  /// Name of an existing node (ground -> "0").
  const std::string& node_name(NodeId id) const;

  /// True if a node of that name already exists.
  bool has_node(const std::string& name) const;

  /// Const lookup without creation: the NodeId for `name`, kGround for any
  /// ground alias, or nullopt when no such node exists.
  std::optional<NodeId> find_node(const std::string& name) const;

  /// Number of non-ground nodes.
  std::size_t num_nodes() const { return node_names_.size(); }

  /// Nodes + auxiliary variables (valid after finalize()).
  std::size_t system_size() const { return num_nodes() + static_cast<std::size_t>(num_aux_); }

  /// Construct and register a device. Returns a reference owned by the
  /// circuit. Device names must be unique.
  template <typename T, typename... Args>
  T& add(Args&&... args) {
    auto dev = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *dev;
    register_device(std::move(dev));
    return ref;
  }

  /// Look up a device by name; nullptr if absent.
  Device* find(const std::string& name);
  const Device* find(const std::string& name) const;

  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

  /// Linear / nonlinear partition computed by finalize() from
  /// Device::is_linear(). The stamp-plan engine stamps `linear_devices()`
  /// once per solve into a cached baseline and restamps only
  /// `nonlinear_devices()` per Newton iteration. Registration order is
  /// preserved within each partition.
  const std::vector<Device*>& linear_devices() const { return linear_; }
  const std::vector<Device*>& nonlinear_devices() const { return nonlinear_; }

  /// Bumped whenever finalize() re-runs over a modified device list; lets
  /// engine workspaces detect that cached stamp plans are stale.
  std::uint64_t plan_version() const { return plan_version_; }

  /// Assign auxiliary-variable slots. Called automatically by the engine;
  /// idempotent. New devices may be added afterwards (re-finalizes).
  void finalize();

  /// Human-readable netlist summary (device name, type-agnostic terminals).
  std::string summary() const;

 private:
  void register_device(std::unique_ptr<Device> dev);

  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> node_index_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unordered_map<std::string, Device*> device_index_;
  std::vector<Device*> linear_;
  std::vector<Device*> nonlinear_;
  int num_aux_ = 0;
  std::uint64_t plan_version_ = 0;
  bool finalized_ = false;
};

}  // namespace sfc::spice
