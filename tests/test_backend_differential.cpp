// Differential conformance: every backend, run through the one unified
// Solver surface on identical randomized grids (shared seeds),
// must agree with the serial reference — bit-exactly for the double
// datapaths, within float32 tolerance for the vectorized backend — both
// fault-free and when the answer arrives via the serve layer's failover
// path (degraded results must be numerically correct, not merely present).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "pw/fault/injector.hpp"
#include "pw/grid/compare.hpp"
#include "pw/serve/service.hpp"

namespace {

using namespace pw;

struct Case {
  grid::GridDims dims;
  std::uint64_t seed;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {{16, 16, 16}, 1},
      {{24, 12, 8}, 2},
      {{9, 17, 5}, 3},
  };
  return kCases;
}

api::SolveRequest request_for(const Case& c, api::BackendSpec backend) {
  auto state = std::make_shared<grid::WindState>(c.dims);
  grid::init_random(*state, c.seed);
  auto coefficients = std::make_shared<const advect::PwCoefficients>(
      advect::PwCoefficients::from_geometry(
          grid::Geometry::uniform(c.dims, 100.0, 80.0, 40.0)));
  api::SolverOptions options;
  options.backend = std::move(backend);
  options.kernel.chunk_y = 4;
  return api::make_request(std::move(state), std::move(coefficients),
                           options);
}

api::SolveResult solve_with(const Case& c, api::BackendSpec backend) {
  const api::SolveRequest request = request_for(c, std::move(backend));
  api::SolveResult result =
      api::Solver(request.options).solve(request);
  EXPECT_TRUE(result.ok()) << result.message;
  return result;
}

void expect_bit_equal(const advect::SourceTerms& reference,
                      const advect::SourceTerms& got, const char* label) {
  const auto du = grid::compare_interior(reference.su, got.su);
  const auto dv = grid::compare_interior(reference.sv, got.sv);
  const auto dw = grid::compare_interior(reference.sw, got.sw);
  EXPECT_TRUE(du.bit_equal())
      << label << ": su mismatches=" << du.mismatches
      << " max_abs=" << du.max_abs;
  EXPECT_TRUE(dv.bit_equal()) << label << ": sv mismatches=" << dv.mismatches;
  EXPECT_TRUE(dw.bit_equal()) << label << ": sw mismatches=" << dw.mismatches;
}

TEST(BackendDifferential, DoubleBackendsMatchReferenceBitExactly) {
  for (const Case& c : cases()) {
    const api::SolveResult reference =
        solve_with(c, api::Backend::kReference);
    for (const api::Backend backend :
         {api::Backend::kCpuBaseline, api::Backend::kFused,
          api::Backend::kMultiKernel}) {
      const api::SolveResult result = solve_with(c, backend);
      expect_bit_equal(*reference.terms, *result.terms,
                       api::to_string(backend));
    }
    api::HostOptions host;
    host.x_chunks = 2;
    const api::SolveResult overlapped = solve_with(c, host);
    expect_bit_equal(*reference.terms, *overlapped.terms, "host_overlap");
  }
}

TEST(BackendDifferential, VectorizedMatchesReferenceWithinF32Tolerance) {
  for (const Case& c : cases()) {
    const api::SolveResult reference =
        solve_with(c, api::Backend::kReference);
    api::VectorizedOptions vec;
    const api::SolveResult result = solve_with(c, vec);
    const grid::FieldD* refs[] = {&reference.terms->su, &reference.terms->sv,
                                  &reference.terms->sw};
    const grid::FieldD* got[] = {&result.terms->su, &result.terms->sv,
                                 &result.terms->sw};
    for (int f = 0; f < 3; ++f) {
      const auto diff = grid::compare_interior(*refs[f], *got[f]);
      // f32 round-off on O(1) source terms: absolute tolerance, since
      // near-zero cells make max_rel meaningless.
      EXPECT_LT(diff.max_abs, 1e-3)
          << "seed " << c.seed << " field " << f
          << " max_rel=" << diff.max_rel;
    }
  }
}

TEST(BackendDifferential, DegradedFailoverResultsMatchReference) {
  // Break the fused backend permanently: the service serves every case via
  // CPU failover, and those degraded terms must still be bit-equal to the
  // reference — degradation changes the execution strategy, never the
  // answer.
  fault::FaultPlan plan;
  plan.seed = 4;
  fault::FaultRule rule;
  rule.site = "serve.solve.fused";
  rule.kind = fault::FaultKind::kTransferFailure;
  plan.rules.push_back(rule);
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config;
  config.result_cache = false;
  config.retry.max_attempts = 1;
  config.retry.initial_backoff = std::chrono::microseconds(10);
  serve::SolveService service(config);
  for (const Case& c : cases()) {
    const api::SolveResult reference =
        solve_with(c, api::Backend::kReference);
    const api::SolveResult degraded =
        service.submit(request_for(c, api::Backend::kFused)).wait();
    ASSERT_TRUE(degraded.ok()) << degraded.message;
    ASSERT_TRUE(degraded.degraded);
    expect_bit_equal(*reference.terms, *degraded.terms, "failover");
  }
}

}  // namespace
