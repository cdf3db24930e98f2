// Analysis result containers returned by the simulation engine.
#pragma once

#include <complex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace sfc::spice {

/// DC operating point.
struct DcResult {
  bool converged = false;
  double gmin_used = 0.0;
  /// Raw solution vector (node voltages then aux currents).
  std::vector<double> x;
  /// Node-name -> voltage.
  std::unordered_map<std::string, double> voltages;
  /// "I(<device>)" -> branch current for devices with one aux variable.
  std::unordered_map<std::string, double> currents;

  double voltage(const std::string& node) const;
  double current(const std::string& device) const;
};

/// AC small-signal sweep result: complex node phasors per frequency,
/// linearized at the DC operating point stored in `op`.
class AcResult {
 public:
  bool converged = false;
  DcResult op;

  void set_signal_names(std::vector<std::string> names);
  void append_point(double freq_hz,
                    const std::vector<std::complex<double>>& x);

  const std::vector<double>& frequencies() const { return freqs_; }
  std::size_t num_points() const { return freqs_.size(); }

  /// Complex phasor of `signal` at frequency index `idx`.
  std::complex<double> value(const std::string& signal,
                             std::size_t idx) const;
  /// |V| at frequency index.
  double magnitude(const std::string& signal, std::size_t idx) const;
  /// 20*log10(|V|); -400 dB floor for zero.
  double magnitude_db(const std::string& signal, std::size_t idx) const;
  /// Phase in degrees.
  double phase_deg(const std::string& signal, std::size_t idx) const;

  /// -3 dB bandwidth relative to the first point's magnitude; returns 0
  /// if the response never drops 3 dB within the sweep.
  double bandwidth_3db(const std::string& signal) const;

 private:
  std::size_t index_of(const std::string& signal) const;

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::size_t> name_index_;
  std::vector<double> freqs_;
  /// data_[signal][point]
  std::vector<std::vector<std::complex<double>>> data_;
};

/// Transient waveform set.
class TransientResult {
 public:
  bool converged = false;

  void set_signal_names(std::vector<std::string> names);
  void append_sample(double t, const std::vector<double>& values);

  std::size_t num_samples() const { return time_.size(); }
  const std::vector<double>& time() const { return time_; }

  /// Full waveform of one signal (node "out" or current "I(V1)").
  std::vector<double> waveform(const std::string& signal) const;

  /// Sample `index` of one signal.
  double value(const std::string& signal, std::size_t index) const;

  /// Last recorded value.
  double final_value(const std::string& signal) const;

  /// Linearly interpolated value at time t (clamped to the record).
  double at(const std::string& signal, double t) const;

  bool has_signal(const std::string& signal) const;
  const std::vector<std::string>& signal_names() const { return names_; }

  /// Energy delivered by each source over the run [J] (by device name).
  std::unordered_map<std::string, double> source_energy;
  /// Sum over all sources [J].
  double total_source_energy() const;

 private:
  std::size_t index_of(const std::string& signal) const;

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::size_t> name_index_;
  std::vector<double> time_;
  /// data_[signal][sample]
  std::vector<std::vector<double>> data_;
};

}  // namespace sfc::spice
