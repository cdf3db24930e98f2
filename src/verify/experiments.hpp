// The paper's experiments, one function each. An experiment returns a
// GoldenRecord that holds every number its bench prints:
//   * a table column is a labelled vector (rows named by the labels);
//   * a summary is a scalar;
//   * a raw series is an unlabelled vector;
//   * the `claims` quantity holds 1 or 0 per paper shape claim.
// A bench's main is publish() on its experiment, and golden_cases() lists
// the same functions, so tests/goldens/<name>.json pins exactly what the
// bench prints.
#pragma once

#include "exec/parallel.hpp"
#include "verify/golden.hpp"

namespace sfc::verify {

/// DC operating point of a 1-cell 2T-1FeFET row (the Fig. 7 cell) at
/// 27 degC: every node voltage, sorted by node name.
GoldenRecord dc_op_point();

/// Fig. 1: FeFET I_D-V_G curves in both states at 0/27/85 degC.
GoldenRecord fig1_fefet_characteristics();
/// Fig. 3: 1FeFET-1R cell current vs temperature, saturation and
/// subthreshold reads.
GoldenRecord fig3_1fefet1r_temperature();
/// Fig. 4: MAC level ranges of the subthreshold 1FeFET-1R row, 0-85 degC.
GoldenRecord fig4_1fefet1r_array_overlap();
/// Fig. 7: 2T-1FeFET cell current vs temperature.
GoldenRecord fig7_2t1fefet_cell();
/// Fig. 8: MAC level ranges, NMR and energy of the 2T-1FeFET row.
GoldenRecord fig8_2t1fefet_array();
/// Fig. 9: 100-run sigma_VT Monte Carlo, its runs fanned out by `exec`
/// (the record does not depend on the thread count).
GoldenRecord fig9_montecarlo_variation(const exec::ExecPolicy& exec);
/// Table II: this work's energy figures against the cited designs.
GoldenRecord table2_comparison();

/// Print the record (one table per set of labels, then the scalars, then
/// each unlabelled vector as its count and range), write it to
/// `<name>.json` in the working directory, and print each claim as holds
/// or FAILS. Returns 1 if any claim fails, else 0: a bench's exit status.
int publish(const GoldenRecord& record);

}  // namespace sfc::verify
