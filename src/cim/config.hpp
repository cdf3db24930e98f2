// Shared configuration for the CiM cells, arrays and experiments.
//
// Default values implement the paper's operating conditions (Sec. III-B):
//   write:  +4 V / 115 ns -> low-VTH ('1');  -4 V / 200 ns -> high-VTH ('0')
//   read:   BL = 1.2 V, SL = 0.2 V, WL = 0.35 V (input '1') or 0 V ('0')
//   row:    8 cells, each with a small capacitor C0; EN switch connects all
//           C0 to the accumulation capacitor Cacc (Eq. 1)
//   latency: 6.9 ns per MAC (5.0 ns cell phase + 1.9 ns charge share)
// Device geometry values were tuned against the paper's shape targets
// (EXPERIMENTS.md, "Calibration provenance"); test_cim_cell and
// test_cim_array assert those targets.
#pragma once

#include "devices/mosfet.hpp"
#include "fefet/fefet.hpp"
#include "spice/engine.hpp"
#include "spice/primitives.hpp"

namespace sfc::cim {

/// Which cell implements the row.
enum class CellKind {
  k1FeFet1R,   ///< baseline structure from Soliman et al. (IEDM'20) [17]
  k2T1FeFet,   ///< proposed temperature-resilient cell
};

/// Read-phase bias set.
struct ReadBias {
  double v_bl = 1.2;        ///< bitline [V]
  double v_sl = 0.2;        ///< sourceline [V]
  double v_wl_read = 0.35;  ///< WL level for input '1' [V]
  /// WL level for input '0'. The paper states the WL "disables" the FeFET
  /// for a 0 input; a small negative underdrive implements that: with the
  /// low-VTH state at 0.25 V, a grounded WL would still leak enough
  /// subthreshold current from BL to lift the internal node and create a
  /// temperature-dependent MAC=0 error (the NMR_0 failure mode).
  double v_wl_off = -0.2;
};

/// MAC cycle timing.
struct ReadTiming {
  double t_wl_start = 0.1e-9;  ///< WL rise start [s]
  double t_edge = 0.05e-9;     ///< rise/fall time of WL and EN [s]
  double t_settle = 5.0e-9;    ///< cell phase duration [s]
  double t_share = 1.9e-9;     ///< charge-share phase duration [s]
  double dt = 2.0e-11;         ///< transient step [s]

  /// Total MAC latency (paper: 6.9 ns).
  double t_total() const { return t_settle + t_share; }
};

/// Proposed 2T-1FeFET cell (Fig. 5): FeFET conducts from BL into internal
/// node A; M2 (gate = OUT) pulls A toward SL; M1 (gate = A) charges C0 at
/// OUT from BL. The OUT->M2->A->M1 ring is the temperature-compensating
/// feedback loop.
struct Cell2TConfig {
  fefet::FeFetParams fefet = fefet::FeFetParams::reference(10.0);
  /// M1 is a deliberately weak follower (moderate W/L) so C0 settles into
  /// the feedback-stabilized region within the 5 ns cell phase; M2 is a
  /// long-channel device whose weakness sets the bias headroom
  /// nVT*ln(IS_fefet/IS_m2). Values tuned against the shape targets
  /// (EXPERIMENTS.md).
  devices::MosfetParams m1 = devices::MosfetParams::finfet14_nmos(0.05);
  devices::MosfetParams m2 = devices::MosfetParams::finfet14_nmos(0.03);
  /// Cell capacitor. Sized so the active cell settles well within the 5 ns
  /// phase while M1's off-state subthreshold creep (which grows
  /// exponentially with temperature and sets the MAC=0 noise margin, the
  /// paper's NMR_0 worst case) stays a small fraction of one level.
  double c0 = 5.0e-15;
  double c0_initial = 0.0;   ///< C0 precharge before the read phase [V]
  /// WL loading per cell (gate + wiring) and the WL driver's output
  /// resistance. The driver R makes the CV^2 dynamic energy of every WL
  /// transition actually dissipate (an ideal source recovers it on the
  /// falling edge, under-counting read energy).
  double c_wl_load = 2.0e-15;
  double r_wl_driver = 2.0e3;
};

/// Baseline 1FeFET-1R cell (Fig. 2): FeFET from BL to OUT, load resistor
/// from OUT to the SL rail, C0 on OUT.
struct Cell1RConfig {
  fefet::FeFetParams fefet = fefet::FeFetParams::reference(10.0);
  double r_load = 10.0e6;    ///< load resistor [ohm]
  double c0 = 1.0e-15;       ///< cell capacitor [F]
  /// C0 precharge [V]: the load resistor ties the output to the SL rail
  /// between reads, so the realistic pre-read level is v_sl.
  double c0_initial = 0.2;
  double c_wl_load = 2.0e-15;
  double r_wl_driver = 2.0e3;
  /// Read voltage for the *saturation-region* variant (the paper's [17]
  /// operating point). The subthreshold variant uses ReadBias::v_wl_read.
  double v_wl_saturation = 1.3;
  /// Sense resistor for the Fig. 3 current-mode cell measurement
  /// (reproducing [17]'s current readout; the array itself uses C0).
  /// Small = ideal transimpedance at the SL virtual ground; a large value
  /// would source-degenerate the FeFET and mask its temperature drift.
  double r_current_sense = 10.0;
};

/// Row-level sensing circuit (Fig. 6).
struct SenseConfig {
  double c_acc = 4.0e-15;    ///< accumulation capacitor [F]
  double v_en_high = 1.2;    ///< EN drive level [V]
  double c_en_load = 4.0e-15;///< EN line loading (switch gates + wiring) [F]
  double r_en_driver = 2.0e3;///< EN driver output resistance [ohm]
  sfc::spice::VSwitch::Params en_switch{
      /*r_on=*/5.0e4, /*r_off=*/1.0e13, /*v_threshold=*/0.6,
      /*v_width=*/0.05};
};

/// Full row configuration.
struct ArrayConfig {
  CellKind kind = CellKind::k2T1FeFet;
  int cells_per_row = 8;
  bool subthreshold_read = true;  ///< 1R cell only: 0.35 V vs 1.3 V WL
  ReadBias bias;
  ReadTiming timing;
  Cell2TConfig cell2t;
  Cell1RConfig cell1r;
  SenseConfig sense;
  /// Newton solver knobs for every MAC-cycle transient; defaults enable
  /// the stamp-plan hot path. Tests flip newton.use_stamp_plan to compare
  /// against the reference assembly.
  sfc::spice::NewtonOptions newton;

  /// WL level used for input '1' under this configuration.
  double wl_read_level() const {
    if (kind == CellKind::k1FeFet1R && !subthreshold_read) {
      return cell1r.v_wl_saturation;
    }
    return bias.v_wl_read;
  }

  // Named presets used throughout tests and benches.
  static ArrayConfig proposed_2t1fefet();
  static ArrayConfig baseline_1r_subthreshold();
  static ArrayConfig baseline_1r_saturation();
};

/// Temperature grid used by the paper's evaluation (0..85 degC).
std::vector<double> default_temperature_grid();

}  // namespace sfc::cim
