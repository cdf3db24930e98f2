// Device interface for the MNA-based circuit simulator.
//
// A Device linearizes itself around the current Newton iterate and stamps
// conductances / current sources (companion model) into the system
//   A * x = b
// where x = [node voltages | auxiliary branch currents].
#pragma once

#include <cassert>
#include <string>
#include <vector>

#include "spice/matrix.hpp"

namespace sfc::spice {

/// Node handle. Ground is the dedicated constant below and is not part of
/// the solution vector.
using NodeId = int;
inline constexpr NodeId kGround = -1;

enum class AnalysisMode {
  kDcOperatingPoint,  ///< capacitors open
  kTransient,         ///< companion models active
};

enum class IntegrationMethod {
  kBackwardEuler,  ///< robust, first order (default for step 1 / breakpoints)
  kTrapezoidal,    ///< second order
};

/// Per-solve context handed to every Device::stamp call.
struct SimContext {
  AnalysisMode mode = AnalysisMode::kDcOperatingPoint;
  IntegrationMethod method = IntegrationMethod::kBackwardEuler;
  double time = 0.0;           ///< end time of the step being solved [s]
  double dt = 0.0;             ///< step size [s]; 0 during DC
  double temperature_c = 27.0; ///< global simulation temperature [degC]
  double gmin = 1e-12;         ///< current gmin (node-to-ground leak)
  /// Number of non-ground nodes; aux variable k of a device lives at
  /// x[num_nodes + aux_base + k]. Set by the engine.
  std::size_t num_nodes = 0;
};

/// Assembly facade: devices only see stamping primitives, never the matrix
/// layout. Rows/cols: nodes first, then auxiliary variables. All methods
/// are inline — stamping sits on the Newton hot path.
class Stamper {
 public:
  Stamper(DenseMatrix& a, std::vector<double>& b,
          const std::vector<double>& x, std::size_t num_nodes)
      : a_(a), b_(b), x_(x), num_nodes_(num_nodes) {}

  /// Record every touched matrix entry into `pattern` (row-major dim*dim
  /// flags). The engine runs one recording pass per circuit/analysis mode
  /// to learn the structural sparsity its compiled LU plan relies on.
  void record_pattern(std::vector<char>* pattern, std::size_t dim) {
    pattern_ = pattern ? pattern->data() : nullptr;
    pattern_dim_ = dim;
  }

  /// Debug guard for the stamp-plan baseline: devices claiming
  /// Device::is_linear() must not read the Newton iterate, so v()/aux()
  /// assert while this is set.
  void forbid_iterate_reads(bool forbid) { forbid_iterate_reads_ = forbid; }

  /// Voltage of a node at the current Newton iterate (ground = 0 V).
  double v(NodeId n) const {
    assert(!forbid_iterate_reads_ &&
           "linear (baseline-stamped) device read the Newton iterate");
    if (n == kGround) return 0.0;
    assert(n >= 0 && static_cast<std::size_t>(n) < num_nodes_);
    return x_[static_cast<std::size_t>(n)];
  }

  /// Value of auxiliary variable `aux_index` (global index).
  double aux(int aux_index) const {
    assert(!forbid_iterate_reads_ &&
           "linear (baseline-stamped) device read the Newton iterate");
    const std::size_t idx = num_nodes_ + static_cast<std::size_t>(aux_index);
    assert(idx < x_.size());
    return x_[idx];
  }

  /// Conductance g between nodes a and b.
  void conductance(NodeId a, NodeId b, double g) {
    add_matrix(a, a, g);
    add_matrix(b, b, g);
    add_matrix(a, b, -g);
    add_matrix(b, a, -g);
  }

  /// Independent current i flowing from node `from` into node `to`.
  void current(NodeId from, NodeId to, double i) {
    add_rhs(from, -i);
    add_rhs(to, i);
  }

  /// Voltage-controlled current source: i(out_p -> out_n) = gm * v(ctrl_p, ctrl_n).
  void vccs(NodeId out_p, NodeId out_n, NodeId ctrl_p, NodeId ctrl_n,
            double gm) {
    add_matrix(out_p, ctrl_p, gm);
    add_matrix(out_p, ctrl_n, -gm);
    add_matrix(out_n, ctrl_p, -gm);
    add_matrix(out_n, ctrl_n, gm);
  }

  // Raw access for devices with auxiliary variables (voltage sources).
  // Row/col indexing: node n -> n, aux k -> num_nodes + k.
  int node_row(NodeId n) const {
    return n;  // ground (-1) is intentionally returned as-is; callers check
  }
  int aux_row(int aux_index) const {
    return static_cast<int>(num_nodes_) + aux_index;
  }
  void add_matrix(int row, int col, double value) {
    if (row < 0 || col < 0) return;  // ground row/col dropped
    if (pattern_) {
      pattern_[static_cast<std::size_t>(row) * pattern_dim_ +
               static_cast<std::size_t>(col)] = 1;
    }
    a_.at(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) +=
        value;
  }
  void add_rhs(int row, double value) {
    if (row < 0) return;
    b_[static_cast<std::size_t>(row)] += value;
  }

 private:
  DenseMatrix& a_;
  std::vector<double>& b_;
  const std::vector<double>& x_;
  std::size_t num_nodes_;
  char* pattern_ = nullptr;
  std::size_t pattern_dim_ = 0;
  bool forbid_iterate_reads_ = false;
};

/// Assembly facade for AC (small-signal) analysis: the complex system
/// (G + jwC) x = b, linearized at a DC operating point.
class AcStamper {
 public:
  using Scalar = std::complex<double>;

  AcStamper(ComplexMatrix& a, std::vector<Scalar>& b,
            const std::vector<double>& dc_x, std::size_t num_nodes,
            double omega);

  /// DC bias voltage of a node (linearization point).
  double dc_v(NodeId n) const;

  void conductance(NodeId a, NodeId b, double g);
  /// Susceptance of a capacitor: adds j*omega*c between the nodes.
  void capacitance(NodeId a, NodeId b, double c);

  int node_row(NodeId n) const;
  int aux_row(int aux_index) const;
  void add_matrix(int row, int col, Scalar value);
  void add_rhs(int row, Scalar value);

 private:
  ComplexMatrix& a_;
  std::vector<Scalar>& b_;
  const std::vector<double>& dc_x_;
  std::size_t num_nodes_;
  double omega_;
};

/// Base class for all circuit elements.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Number of auxiliary (branch-current) variables this device needs.
  virtual int num_aux() const { return 0; }

  /// Linearity contract for the stamp-plan hot path. Return true only when
  /// stamp() writes values that depend solely on the SimContext and on
  /// state committed by start_transient()/accept_step() — never on the
  /// Newton iterate read through Stamper::v()/aux(). Linear devices are
  /// stamped once per solve into a cached baseline and NOT re-stamped
  /// between Newton iterations; a device that reads the iterate while
  /// claiming linearity silently converges to wrong answers (debug builds
  /// catch it via Stamper::forbid_iterate_reads). Default: nonlinear,
  /// which is always safe.
  virtual bool is_linear() const { return false; }

  /// Assigned by Circuit::finalize(); global index of first aux variable.
  void set_aux_base(int base) { aux_base_ = base; }
  int aux_base() const { return aux_base_; }

  /// Stamp the linearized device into the system.
  virtual void stamp(const SimContext& ctx, Stamper& s) = 0;

  /// Stamp the small-signal model at the DC operating point carried by
  /// the AcStamper. Default: the device contributes nothing (open),
  /// which is correct for ideal switches-off and digital-only elements;
  /// all analog primitives override this.
  virtual void stamp_ac(const SimContext& ctx, AcStamper& s) {
    (void)ctx;
    (void)s;
  }

  /// Called once when a transient starts, with the converged DC solution.
  virtual void start_transient(const SimContext& ctx,
                               const std::vector<double>& x) {
    (void)ctx;
    (void)x;
  }

  /// Called after each accepted transient step; devices commit history
  /// (e.g. capacitor charge) here.
  virtual void accept_step(const SimContext& ctx,
                           const std::vector<double>& x) {
    (void)ctx;
    (void)x;
  }

  /// Power delivered *by* this device into the circuit [W] at the accepted
  /// solution x (sources override; passives return 0 = they only absorb).
  virtual double delivered_power(const SimContext& ctx,
                                 const std::vector<double>& x) const {
    (void)ctx;
    (void)x;
    return 0.0;
  }

  /// Time points where this device's waveforms have corners; the transient
  /// engine aligns steps to them so pulse edges are never skipped.
  virtual void collect_breakpoints(double t_stop,
                                   std::vector<double>& out) const {
    (void)t_stop;
    (void)out;
  }

  /// Connected nodes (diagnostics / netlist printing).
  virtual std::vector<NodeId> terminals() const = 0;

  /// Source line of the netlist card that created this device (0 = not
  /// built from a netlist). parse_netlist threads this through so static
  /// diagnostics (src/lint) point at real deck lines.
  void set_source_line(std::size_t line) { source_line_ = line; }
  std::size_t source_line() const { return source_line_; }

 protected:
  /// Helper for subclasses: voltage difference v(a) - v(b).
  static double vdiff(const Stamper& s, NodeId a, NodeId b) {
    return s.v(a) - s.v(b);
  }

 private:
  std::string name_;
  int aux_base_ = -1;
  std::size_t source_line_ = 0;
};

}  // namespace sfc::spice
