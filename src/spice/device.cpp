#include "spice/device.hpp"

#include <cassert>

namespace sfc::spice {

// Stamper is fully inline in device.hpp (Newton hot path); only the AC
// facade lives here.

AcStamper::AcStamper(ComplexMatrix& a, std::vector<Scalar>& b,
                     const std::vector<double>& dc_x, std::size_t num_nodes,
                     double omega)
    : a_(a), b_(b), dc_x_(dc_x), num_nodes_(num_nodes), omega_(omega) {}

double AcStamper::dc_v(NodeId n) const {
  if (n == kGround) return 0.0;
  assert(n >= 0 && static_cast<std::size_t>(n) < num_nodes_);
  return dc_x_[static_cast<std::size_t>(n)];
}

int AcStamper::node_row(NodeId n) const { return n; }

int AcStamper::aux_row(int aux_index) const {
  return static_cast<int>(num_nodes_) + aux_index;
}

void AcStamper::add_matrix(int row, int col, Scalar value) {
  if (row < 0 || col < 0) return;
  a_.at(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) += value;
}

void AcStamper::add_rhs(int row, Scalar value) {
  if (row < 0) return;
  b_[static_cast<std::size_t>(row)] += value;
}

void AcStamper::conductance(NodeId a, NodeId b, double g) {
  add_matrix(a, a, g);
  add_matrix(b, b, g);
  add_matrix(a, b, -g);
  add_matrix(b, a, -g);
}

void AcStamper::capacitance(NodeId a, NodeId b, double c) {
  const Scalar y{0.0, omega_ * c};
  add_matrix(a, a, y);
  add_matrix(b, b, y);
  add_matrix(a, b, -y);
  add_matrix(b, a, -y);
}

}  // namespace sfc::spice
