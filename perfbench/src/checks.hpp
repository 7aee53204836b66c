#pragma once

// Output check: every completed solve is compared with the scalar
// reference of its kernel, computed outside set-up and the timed phase.

#include "pw/api/request.hpp"

namespace perfbench {

/// The scalar reference answer of one request under its kernel knobs:
/// advect_reference, diffusion_reference or poisson_reference.
pw::advect::SourceTerms reference_terms(const pw::api::SolveRequest& request);

/// True for the one datapath that computes in float32 (vectorized
/// advection); every other engine must be bit-exact.
bool uses_f32_path(const pw::api::SolverOptions& options);

/// Bit-exact comparison of all three output fields, or max_abs < 1e-3 on
/// the f32 path (the tolerance test_backend_differential holds it to).
bool matches_reference(const pw::advect::SourceTerms& expected,
                       const pw::advect::SourceTerms& got, bool f32_path);

}  // namespace perfbench
