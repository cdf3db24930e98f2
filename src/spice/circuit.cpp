#include "spice/circuit.hpp"

namespace sfc::spice {
namespace {
const std::string kGroundName = "0";

bool is_ground_name(const std::string& name) {
  return name == "0" || name == "gnd" || name == "GND" || name == "vss" ||
         name == "VSS";
}
}  // namespace

NodeId Circuit::node(const std::string& name) {
  if (is_ground_name(name)) return kGround;
  auto it = node_index_.find(name);
  if (it != node_index_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(name);
  node_index_.emplace(name, id);
  return id;
}

const std::string& Circuit::node_name(NodeId id) const {
  if (id == kGround) return kGroundName;
  return node_names_.at(static_cast<std::size_t>(id));
}

bool Circuit::has_node(const std::string& name) const {
  return is_ground_name(name) || node_index_.count(name) > 0;
}

std::optional<NodeId> Circuit::find_node(const std::string& name) const {
  if (is_ground_name(name)) return kGround;
  auto it = node_index_.find(name);
  if (it == node_index_.end()) return std::nullopt;
  return it->second;
}

void Circuit::register_device(std::unique_ptr<Device> dev) {
  if (device_index_.count(dev->name())) {
    throw std::invalid_argument("Circuit: duplicate device name '" +
                                dev->name() + "'");
  }
  device_index_.emplace(dev->name(), dev.get());
  devices_.push_back(std::move(dev));
  finalized_ = false;
}

Device* Circuit::find(const std::string& name) {
  auto it = device_index_.find(name);
  return it == device_index_.end() ? nullptr : it->second;
}

const Device* Circuit::find(const std::string& name) const {
  auto it = device_index_.find(name);
  return it == device_index_.end() ? nullptr : it->second;
}

void Circuit::finalize() {
  if (finalized_) return;
  num_aux_ = 0;
  linear_.clear();
  nonlinear_.clear();
  linear_.reserve(devices_.size());
  for (auto& dev : devices_) {
    dev->set_aux_base(num_aux_);
    num_aux_ += dev->num_aux();
    (dev->is_linear() ? linear_ : nonlinear_).push_back(dev.get());
  }
  ++plan_version_;
  finalized_ = true;
}

std::string Circuit::summary() const {
  std::string out;
  out += "circuit: " + std::to_string(num_nodes()) + " nodes, " +
         std::to_string(devices_.size()) + " devices\n";
  for (const auto& dev : devices_) {
    out += "  " + dev->name() + " (";
    const auto terms = dev->terminals();
    for (std::size_t i = 0; i < terms.size(); ++i) {
      if (i) out += ", ";
      out += node_name(terms[i]);
    }
    out += ")\n";
  }
  return out;
}

}  // namespace sfc::spice
