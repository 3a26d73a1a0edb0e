#pragma once
/// \file fleet_kernel.hpp
/// \brief SIMD-friendly room-update kernels for the fleet-physics sweep.
///
/// The Df3Platform tick stages each room's net heat input into a
/// contiguous lane array and hands a building's slice of the FleetState
/// temperatures to these kernels. A building's rooms share one room model,
/// so the RC parameters, the decay factor and the substep schedule come in
/// as scalars. Each kernel is a pure element-wise update over `__restrict`
/// double arrays with no branches in the inner loop, so the compiler
/// auto-vectorizes it at -O3 without intrinsics (CI greps the
/// vectorization report to keep it that way, see .github/workflows/ci.yml).
///
/// Bit-exactness contract: every expression is evaluated per element in the
/// same order as the scalar per-room sweep it replaced (see
/// DESIGN.md section 8), and elements never interact, so vector width and
/// the scalar tail cannot change a single result bit. The golden digests in
/// platform_determinism_test pin this.

#include <cstddef>
#include <cstdint>

namespace df3::core::fleet {

/// Lanes per unrolled block of the 1R1C kernel. Purely a hint: the blocked
/// loop body has a compile-time trip count, which is what GCC's and Clang's
/// vectorizers like best; correctness does not depend on the value.
inline constexpr std::size_t kKernelStride = 8;

/// Advance `n` 1R1C rooms by one tick: the analytic exponential step
///   eq      = t_out + q_total * resistance
///   temp'   = eq + (temp - eq) * decay
/// with `decay = exp(-tick/tau)` precomputed at add_building. Mirrors
/// thermal::Room::advance term for term.
void step_rooms_1r1c(std::size_t n, double t_out_c,
                     const double* __restrict q_total_w, double resistance_k_per_w,
                     double decay, double* __restrict temp_c);

/// Substep accounting for one 2R2C kernel invocation (activity gating
/// telemetry): how many full substeps ran and how many were provably
/// skipped by the fixed-point early exit.
struct Substeps2R2C {
  std::uint64_t full_steps_run = 0;
  std::uint64_t full_steps_skipped = 0;
};

/// Advance `n` 2R2C rooms by one tick of explicit-Euler substeps. The RC
/// parameters and the substep schedule (`n_full` steps of `max_step_s`,
/// then one `h_last_s` step when positive) are uniform across the slice —
/// Df3Platform builds them per building from one Room2R2CParams. The
/// substeps run substep-major (every room advances step k before any room
/// takes step k+1); rooms are independent, so this reorders nothing within
/// a room and keeps every bit identical to the room-major scalar loop.
///
/// With `allow_early_exit` (an activity-gated district), the kernel watches
/// for a bitwise fixed point: when one full substep leaves every t_air and
/// t_env bit unchanged, the remaining full substeps are applications of the
/// same pure function to the same state and are skipped as provable
/// identities. The trailing `h_last_s` step always runs (a fixed point of
/// step(max_step) need not be one of step(h_last)).
Substeps2R2C step_rooms_2r2c(std::size_t n, double t_out_c,
                             const double* __restrict q_total_w, double r_air_env,
                             double r_env_out, double c_air, double c_env, double max_step_s, double h_last_s, std::uint32_t n_full,
                             bool allow_early_exit,
                             double* __restrict t_air_c,
                             double* __restrict t_env_c);

}  // namespace df3::core::fleet
