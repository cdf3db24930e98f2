// Physical constants and temperature helpers used across the device and
// circuit models. Everything internal is SI (volts, amperes, seconds,
// farads, kelvin); temperatures are given in degrees Celsius, as in the
// paper, and converted here.
#pragma once

namespace sfc::util {

/// Boltzmann constant [J/K].
inline constexpr double kBoltzmann = 1.380649e-23;
/// Elementary charge [C].
inline constexpr double kElementaryCharge = 1.602176634e-19;
/// 0 degC expressed in kelvin.
inline constexpr double kZeroCelsiusInKelvin = 273.15;
/// Reference (room) temperature used throughout the paper: 27 degC.
inline constexpr double kRoomTemperatureCelsius = 27.0;

/// Thermal voltage kT/q [V] at absolute temperature `kelvin`.
constexpr double thermal_voltage(double kelvin) {
  return kBoltzmann * kelvin / kElementaryCharge;
}

constexpr double celsius_to_kelvin(double celsius) {
  return celsius + kZeroCelsiusInKelvin;
}

}  // namespace sfc::util
