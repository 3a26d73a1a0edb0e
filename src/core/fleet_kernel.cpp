#include "df3/core/fleet_kernel.hpp"

#include <bit>

namespace df3::core::fleet {

void step_rooms_1r1c(std::size_t n, double t_out_c,
                     const double* __restrict q_total_w, double resistance_k_per_w,
                     double decay, double* __restrict temp_c) {
  // Blocked main loop: the fixed trip count lets the vectorizer emit full
  // vector iterations without a runtime prologue check per element.
  std::size_t i = 0;
  for (; i + kKernelStride <= n; i += kKernelStride) {
    for (std::size_t l = 0; l < kKernelStride; ++l) {
      const std::size_t j = i + l;
      const double eq = t_out_c + q_total_w[j] * resistance_k_per_w;
      temp_c[j] = eq + (temp_c[j] - eq) * decay;
    }
  }
  // Scalar tail: same expressions, element-wise, so the seam is bit-free.
  for (; i < n; ++i) {
    const double eq = t_out_c + q_total_w[i] * resistance_k_per_w;
    temp_c[i] = eq + (temp_c[i] - eq) * decay;
  }
}

namespace {

/// One explicit-Euler substep of length `h` over the whole slice. Mirrors
/// the step lambda of thermal::Room2R2C::advance term for term.
inline void substep_2r2c(std::size_t n, double t_out_c, double h,
                         const double* __restrict q_total_w, double r_air_env,
                         double r_env_out, double c_air, double c_env,
                         double* __restrict t_air_c, double* __restrict t_env_c) {
  for (std::size_t i = 0; i < n; ++i) {
    const double flow_ae = (t_air_c[i] - t_env_c[i]) / r_air_env;
    const double flow_eo = (t_env_c[i] - t_out_c) / r_env_out;
    t_air_c[i] += h * ((q_total_w[i] - flow_ae) / c_air);
    t_env_c[i] += h * ((flow_ae - flow_eo) / c_env);
  }
}

/// Same substep, additionally OR-ing the XOR of the pre/post state bits of
/// every lane into the return value: 0 means the step was a bitwise fixed
/// point for the whole slice. The compare rides the vector lanes; using
/// bit equality (not operator==) keeps -0.0 vs +0.0 distinct, which is
/// what "identical remaining substeps" requires.
inline std::uint64_t substep_2r2c_watched(std::size_t n, double t_out_c, double h,
                                          const double* __restrict q_total_w,
                                          double r_air_env, double r_env_out, double c_air,
                                          double c_env, double* __restrict t_air_c,
                                          double* __restrict t_env_c) {
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double air0 = t_air_c[i];
    const double env0 = t_env_c[i];
    const double flow_ae = (air0 - env0) / r_air_env;
    const double flow_eo = (env0 - t_out_c) / r_env_out;
    const double air1 = air0 + h * ((q_total_w[i] - flow_ae) / c_air);
    const double env1 = env0 + h * ((flow_ae - flow_eo) / c_env);
    t_air_c[i] = air1;
    t_env_c[i] = env1;
    diff |= std::bit_cast<std::uint64_t>(air0) ^ std::bit_cast<std::uint64_t>(air1);
    diff |= std::bit_cast<std::uint64_t>(env0) ^ std::bit_cast<std::uint64_t>(env1);
  }
  return diff;
}

}  // namespace

Substeps2R2C step_rooms_2r2c(std::size_t n, double t_out_c,
                             const double* __restrict q_total_w, double r_air_env,
                             double r_env_out, double c_air, double c_env, double max_step_s, double h_last_s, std::uint32_t n_full,
                             bool allow_early_exit,
                             double* __restrict t_air_c,
                             double* __restrict t_env_c) {
  Substeps2R2C out;
  std::uint32_t k = 0;
  for (; k < n_full; ++k) {
    if (allow_early_exit) {
      const std::uint64_t diff =
          substep_2r2c_watched(n, t_out_c, max_step_s, q_total_w, r_air_env, r_env_out,
                               c_air, c_env, t_air_c, t_env_c);
      ++out.full_steps_run;
      if (diff == 0) {
        // Bitwise fixed point: every remaining full substep maps this state
        // to itself, so skipping them is an identity, not an approximation.
        ++k;
        break;
      }
    } else {
      substep_2r2c(n, t_out_c, max_step_s, q_total_w, r_air_env, r_env_out, c_air, c_env,
                   t_air_c, t_env_c);
      ++out.full_steps_run;
    }
  }
  out.full_steps_skipped = n_full - k;
  if (h_last_s > 0.0) {
    substep_2r2c(n, t_out_c, h_last_s, q_total_w, r_air_env, r_env_out, c_air, c_env,
                 t_air_c, t_env_c);
  }
  return out;
}

}  // namespace df3::core::fleet
