// Randomised property sweeps: for arbitrary (small) grid shapes, chunk
// widths, kernel counts and seeds, every implementation of the design must
// agree bit-exactly with the scalar reference, and the scheme's structural
// properties must hold.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/baseline/legacy_pipeline.hpp"
#include "pw/grid/compare.hpp"
#include "pw/kernel/chunking.hpp"
#include "pw/kernel/cycle_stages.hpp"
#include "pw/kernel/fused.hpp"
#include "pw/kernel/intel_frontend.hpp"
#include "pw/kernel/xilinx_frontend.hpp"
#include "pw/stencil/advect.hpp"
#include "pw/util/rng.hpp"

namespace pw {
namespace {

struct Scenario {
  grid::GridDims dims;
  std::size_t chunk_y;
  std::size_t kernels;
  std::uint64_t seed;
};

Scenario random_scenario(util::Rng& rng) {
  Scenario s;
  s.dims.nx = 3 + rng.next_below(8);
  s.dims.ny = 3 + rng.next_below(10);
  s.dims.nz = 3 + rng.next_below(10);
  s.chunk_y = rng.next_below(s.dims.ny + 4);  // 0 = unchunked
  s.kernels = 1 + rng.next_below(4);
  s.seed = rng.next_u64();
  return s;
}

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, AllImplementationsBitExact) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int round = 0; round < 6; ++round) {
    const Scenario s = random_scenario(rng);
    SCOPED_TRACE(::testing::Message()
                 << "dims=" << s.dims.nx << "x" << s.dims.ny << "x"
                 << s.dims.nz << " chunk=" << s.chunk_y
                 << " kernels=" << s.kernels << " seed=" << s.seed);

    grid::WindState state(s.dims);
    grid::init_random(state, s.seed);
    const auto coefficients = advect::PwCoefficients::from_geometry(
        grid::Geometry::uniform(s.dims, 75.0, 125.0, 30.0));

    advect::SourceTerms reference(s.dims);
    advect::advect_reference(state, coefficients, reference);

    const kernel::KernelConfig config{s.chunk_y, 4};

    advect::SourceTerms fused(s.dims);
    kernel::run_kernel_fused(state, coefficients, fused, config);
    ASSERT_TRUE(grid::compare_interior(reference.su, fused.su).bit_equal());
    ASSERT_TRUE(grid::compare_interior(reference.sv, fused.sv).bit_equal());
    ASSERT_TRUE(grid::compare_interior(reference.sw, fused.sw).bit_equal());

    advect::SourceTerms multi(s.dims);
    stencil::EngineConfig multi_config;
    multi_config.engine = stencil::Engine::kMultiInstance;
    multi_config.chunk_y = s.chunk_y;
    multi_config.instances = s.kernels;
    stencil::run_advect(state, coefficients, multi, multi_config);
    ASSERT_TRUE(grid::compare_interior(reference.su, multi.su).bit_equal());

    advect::SourceTerms legacy(s.dims);
    baseline::run_legacy_pipeline(state, coefficients, legacy, config);
    ASSERT_TRUE(grid::compare_interior(reference.su, legacy.su).bit_equal());
    ASSERT_TRUE(grid::compare_interior(reference.sw, legacy.sw).bit_equal());
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, FuzzSweep, ::testing::Range(0, 8));

TEST(FuzzVendorFrontends, RandomShapesAgree) {
  util::Rng rng(2024);
  for (int round = 0; round < 4; ++round) {
    const Scenario s = random_scenario(rng);
    grid::WindState state(s.dims);
    grid::init_random(state, s.seed);
    const auto coefficients = advect::PwCoefficients::from_geometry(
        grid::Geometry::uniform(s.dims, 100.0, 100.0, 25.0));

    advect::SourceTerms xilinx_out(s.dims), intel_out(s.dims);
    kernel::run_kernel_xilinx(state, coefficients, xilinx_out,
                              kernel::KernelConfig{s.chunk_y, 2});
    kernel::run_kernel_intel(state, coefficients, intel_out,
                             kernel::KernelConfig{s.chunk_y, 6});
    ASSERT_TRUE(
        grid::compare_interior(xilinx_out.su, intel_out.su).bit_equal());
    ASSERT_TRUE(
        grid::compare_interior(xilinx_out.sv, intel_out.sv).bit_equal());
    ASSERT_TRUE(
        grid::compare_interior(xilinx_out.sw, intel_out.sw).bit_equal());
  }
}

TEST(FuzzCycleSim, RandomShapesCompleteAtFullRate) {
  util::Rng rng(777);
  for (int round = 0; round < 3; ++round) {
    Scenario s = random_scenario(rng);
    s.dims.nx = 3 + rng.next_below(4);  // keep the cycle sim cheap
    grid::WindState state(s.dims);
    grid::init_random(state, s.seed);
    const auto coefficients = advect::PwCoefficients::from_geometry(
        grid::Geometry::uniform(s.dims, 100.0, 100.0, 25.0));

    advect::SourceTerms out(s.dims);
    kernel::CycleSimConfig sim;
    sim.kernel.chunk_y = s.chunk_y;
    const auto result =
        kernel::run_kernel_cycle_sim(state, coefficients, out, sim);
    ASSERT_TRUE(result.report.completed);
    ASSERT_EQ(result.cells, s.dims.cells());

    // Input rate ~1 beat/cycle regardless of shape.
    const kernel::ChunkPlan plan(s.dims, s.chunk_y);
    const double beats =
        static_cast<double>(plan.streamed_values_per_field());
    ASSERT_GT(beats / static_cast<double>(result.report.cycles), 0.85);
  }
}

TEST(SchemeProperty, DiscretelyDivergenceFreeShearConservesMomentum) {
  // PW is a conserving difference scheme (the title of Piacsek & Williams
  // 1970): for a *discretely* divergence-free periodic flow — a shear
  // flow u = f(y), v = g(x), w = 0 has exactly zero staggered divergence —
  // the domain sums of su and sv vanish to rounding.
  using std::numbers::pi;
  for (double amplitude : {0.5, 1.0, 2.5}) {
    const grid::GridDims dims{10, 12, 8};
    grid::WindState state(dims);
    for (std::size_t i = 0; i < dims.nx; ++i) {
      for (std::size_t j = 0; j < dims.ny; ++j) {
        for (std::size_t k = 0; k < dims.nz; ++k) {
          const double y =
              static_cast<double>(j) / static_cast<double>(dims.ny);
          const double x =
              static_cast<double>(i) / static_cast<double>(dims.nx);
          const double z =
              static_cast<double>(k) / static_cast<double>(dims.nz);
          state.u.at(static_cast<std::ptrdiff_t>(i),
                     static_cast<std::ptrdiff_t>(j),
                     static_cast<std::ptrdiff_t>(k)) =
              amplitude * std::sin(2.0 * pi * y) * (1.0 + 0.3 * z);
          state.v.at(static_cast<std::ptrdiff_t>(i),
                     static_cast<std::ptrdiff_t>(j),
                     static_cast<std::ptrdiff_t>(k)) =
              amplitude * std::cos(2.0 * pi * x) * (1.0 - 0.2 * z);
          state.w.at(static_cast<std::ptrdiff_t>(i),
                     static_cast<std::ptrdiff_t>(j),
                     static_cast<std::ptrdiff_t>(k)) = 0.0;
        }
      }
    }
    grid::refresh_halos(state);

    const auto coefficients = advect::PwCoefficients::from_geometry(
        grid::Geometry::uniform(dims, 50.0, 50.0, 25.0));
    advect::SourceTerms out(dims);
    advect::advect_reference(state, coefficients, out);

    const double scale = amplitude * amplitude *
                         static_cast<double>(dims.cells()) * 1e-14;
    EXPECT_NEAR(grid::interior_sum(out.su), 0.0, scale) << amplitude;
    EXPECT_NEAR(grid::interior_sum(out.sv), 0.0, scale) << amplitude;
  }
}

TEST(SchemeProperty, MirrorSymmetryInX) {
  // Mirroring the domain in x and negating u mirrors su (negated) and
  // mirrors sv/sw — a parity property of the flux form.
  const grid::GridDims dims{8, 6, 6};
  grid::WindState state(dims);
  grid::init_random(state, 5);
  const auto coefficients = advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform(dims, 100.0, 100.0, 25.0));
  advect::SourceTerms out(dims);
  advect::advect_reference(state, coefficients, out);

  // Build the mirrored state: x' = nx-1-x for cell-centred v/w; u lives on
  // x-faces so u'(i) = -u(nx-2-i) keeps faces aligned... the staggered
  // mirror is subtle, so check the simpler rotational variant instead:
  // rotating the domain 180 degrees in the horizontal (x,y) and negating
  // (u,v) must negate (su,sv) and preserve sw at the rotated position.
  grid::WindState rotated(dims);
  const auto nx = static_cast<std::ptrdiff_t>(dims.nx);
  const auto ny = static_cast<std::ptrdiff_t>(dims.ny);
  const auto nz = static_cast<std::ptrdiff_t>(dims.nz);
  for (std::ptrdiff_t i = 0; i < nx; ++i) {
    for (std::ptrdiff_t j = 0; j < ny; ++j) {
      for (std::ptrdiff_t k = 0; k < nz; ++k) {
        // u(i) sits on the face between i and i+1; after rotation that
        // face maps to the one between nx-2-i and nx-1-i.
        const auto ri_face = (nx - 2 - i + nx) % nx;
        const auto rj_face = (ny - 2 - j + ny) % ny;
        const auto ri = nx - 1 - i;
        const auto rj = ny - 1 - j;
        rotated.u.at(ri_face, rj, k) = -state.u.at(i, j, k);
        rotated.v.at(ri, rj_face, k) = -state.v.at(i, j, k);
        rotated.w.at(ri, rj, k) = state.w.at(i, j, k);
      }
    }
  }
  grid::refresh_halos(rotated);
  advect::SourceTerms rotated_out(dims);
  advect::advect_reference(rotated, coefficients, rotated_out);

  // Compare the w source term (cell-centred in the horizontal) under the
  // 180-degree rotation.
  for (std::ptrdiff_t i = 0; i < nx; ++i) {
    for (std::ptrdiff_t j = 0; j < ny; ++j) {
      for (std::ptrdiff_t k = 0; k < nz; ++k) {
        ASSERT_NEAR(rotated_out.sw.at(nx - 1 - i, ny - 1 - j, k),
                    out.sw.at(i, j, k), 1e-12)
            << "(" << i << "," << j << "," << k << ")";
      }
    }
  }
}

}  // namespace
}  // namespace pw
