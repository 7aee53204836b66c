#include <gtest/gtest.h>

#include <memory>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/grid/compare.hpp"
#include "pw/kernel/fused.hpp"
#include "pw/kernel/intel_frontend.hpp"
#include "pw/kernel/xilinx_frontend.hpp"
#include "pw/stencil/advect.hpp"

namespace pw::kernel {
namespace {

struct Harness {
  std::unique_ptr<grid::WindState> state;
  advect::PwCoefficients coefficients;
  std::unique_ptr<advect::SourceTerms> reference;

  explicit Harness(grid::GridDims dims, std::uint64_t seed = 99,
                 bool stretched = false) {
    state = std::make_unique<grid::WindState>(dims);
    grid::init_random(*state, seed);
    grid::Geometry geometry =
        grid::Geometry::uniform(dims, 100.0, 80.0, 40.0);
    if (stretched) {
      geometry.vertical = grid::VerticalGrid::stretched(dims.nz, 25.0, 1.5);
    }
    coefficients = advect::PwCoefficients::from_geometry(geometry);
    reference = std::make_unique<advect::SourceTerms>(dims);
    advect::advect_reference(*state, coefficients, *reference);
  }

  void expect_equal(const advect::SourceTerms& got) const {
    const auto du = grid::compare_interior(reference->su, got.su);
    const auto dv = grid::compare_interior(reference->sv, got.sv);
    const auto dw = grid::compare_interior(reference->sw, got.sw);
    EXPECT_TRUE(du.bit_equal())
        << "su mismatches=" << du.mismatches << " first=(" << du.first_i << ","
        << du.first_j << "," << du.first_k << ") max_abs=" << du.max_abs;
    EXPECT_TRUE(dv.bit_equal()) << "sv mismatches=" << dv.mismatches;
    EXPECT_TRUE(dw.bit_equal()) << "sw mismatches=" << dw.mismatches;
  }
};

TEST(FusedKernel, MatchesReferenceUnchunked) {
  Harness s({8, 10, 12});
  advect::SourceTerms out({8, 10, 12});
  const auto stats =
      run_kernel_fused(*s.state, s.coefficients, out, KernelConfig{0});
  s.expect_equal(out);
  EXPECT_EQ(stats.chunks, 1u);
  EXPECT_EQ(stats.stencils_emitted, 8u * 10 * 12);
  EXPECT_EQ(stats.values_streamed_per_field, 10u * 12 * 14);
}

TEST(FusedKernel, MatchesReferenceChunked) {
  Harness s({8, 20, 12});
  for (std::size_t chunk : {1u, 3u, 4u, 7u, 20u, 64u}) {
    advect::SourceTerms out({8, 20, 12});
    const auto stats =
        run_kernel_fused(*s.state, s.coefficients, out, KernelConfig{chunk});
    s.expect_equal(out);
    EXPECT_EQ(stats.stencils_emitted, 8u * 20 * 12) << "chunk=" << chunk;
  }
}

TEST(FusedKernel, ChunkOverlapAccounting) {
  Harness s({4, 16, 8});
  advect::SourceTerms out({4, 16, 8});
  const auto stats =
      run_kernel_fused(*s.state, s.coefficients, out, KernelConfig{4});
  // 4 chunks, each streaming (4+2)*(4+2)*(8+2) values.
  EXPECT_EQ(stats.chunks, 4u);
  EXPECT_EQ(stats.values_streamed_per_field, 4u * 6 * 6 * 10);
}

TEST(FusedKernel, StretchedVerticalGrid) {
  Harness s({6, 8, 10}, 5, /*stretched=*/true);
  advect::SourceTerms out({6, 8, 10});
  run_kernel_fused(*s.state, s.coefficients, out, KernelConfig{4});
  s.expect_equal(out);
}

TEST(FusedKernel, XRangeSlabMatchesReferenceSlab) {
  Harness s({12, 6, 8});
  advect::SourceTerms out({12, 6, 8});
  out.su.fill(-777.0);
  run_kernel_fused(*s.state, s.coefficients, out, KernelConfig{0},
                   XRange{4, 8});
  // Inside the slab: matches reference; outside: untouched.
  for (std::ptrdiff_t i = 0; i < 12; ++i) {
    for (std::ptrdiff_t j = 0; j < 6; ++j) {
      for (std::ptrdiff_t k = 0; k < 8; ++k) {
        if (i >= 4 && i < 8) {
          EXPECT_DOUBLE_EQ(out.su.at(i, j, k), s.reference->su.at(i, j, k));
        } else {
          EXPECT_DOUBLE_EQ(out.su.at(i, j, k), -777.0);
        }
      }
    }
  }
}

TEST(FusedKernel, BadXRangeThrows) {
  Harness s({4, 4, 4});
  advect::SourceTerms out({4, 4, 4});
  EXPECT_THROW(run_kernel_fused(*s.state, s.coefficients, out, KernelConfig{},
                                XRange{2, 2}),
               std::invalid_argument);
  EXPECT_THROW(run_kernel_fused(*s.state, s.coefficients, out, KernelConfig{},
                                XRange{0, 5}),
               std::invalid_argument);
}

TEST(XilinxFrontend, BitExactWithReference) {
  Harness s({6, 9, 11});
  advect::SourceTerms out({6, 9, 11});
  const auto stats =
      run_kernel_xilinx(*s.state, s.coefficients, out, KernelConfig{4, 8});
  s.expect_equal(out);
  EXPECT_EQ(stats.stencils_emitted, 6u * 9 * 11);
}

TEST(XilinxFrontend, UnchunkedAndTinyFifos) {
  Harness s({5, 5, 5});
  advect::SourceTerms out({5, 5, 5});
  run_kernel_xilinx(*s.state, s.coefficients, out, KernelConfig{0, 1});
  s.expect_equal(out);
}

TEST(IntelFrontend, BitExactWithReference) {
  Harness s({6, 9, 11});
  advect::SourceTerms out({6, 9, 11});
  const auto stats =
      run_kernel_intel(*s.state, s.coefficients, out, KernelConfig{4, 8});
  s.expect_equal(out);
  EXPECT_EQ(stats.stencils_emitted, 6u * 9 * 11);
}

TEST(IntelFrontend, MatchesXilinxBitExactly) {
  // The paper's portability claim: one dataflow design, two vendor
  // frontends, identical results.
  Harness s({7, 8, 9}, 1234);
  advect::SourceTerms xilinx_out({7, 8, 9});
  advect::SourceTerms intel_out({7, 8, 9});
  run_kernel_xilinx(*s.state, s.coefficients, xilinx_out, KernelConfig{3, 4});
  run_kernel_intel(*s.state, s.coefficients, intel_out, KernelConfig{5, 2});
  EXPECT_TRUE(
      grid::compare_interior(xilinx_out.su, intel_out.su).bit_equal());
  EXPECT_TRUE(
      grid::compare_interior(xilinx_out.sv, intel_out.sv).bit_equal());
  EXPECT_TRUE(
      grid::compare_interior(xilinx_out.sw, intel_out.sw).bit_equal());
}

/// The multi-instance engine of the stencil machine: `kernels` concurrent
/// shift-buffer instances over X slabs, each streaming its own halo planes.
stencil::PassStats run_multi_instance(const Harness& s,
                                      advect::SourceTerms& out,
                                      std::size_t chunk_y,
                                      std::size_t kernels) {
  stencil::EngineConfig config;
  config.engine = stencil::Engine::kMultiInstance;
  config.chunk_y = chunk_y;
  config.instances = kernels;
  return stencil::run_advect(*s.state, s.coefficients, out, config);
}

TEST(MultiKernel, MatchesReferenceAcrossKernelCounts) {
  Harness s({24, 8, 8});
  for (std::size_t kernels : {1u, 2u, 5u, 6u}) {
    advect::SourceTerms out({24, 8, 8});
    const auto stats = run_multi_instance(s, out, 4, kernels);
    s.expect_equal(out);
    EXPECT_EQ(stats.stencils_emitted, 24u * 8 * 8) << kernels << " kernels";
  }
}

TEST(MultiKernel, StreamsHaloPlanesPerKernel) {
  Harness s({8, 4, 4});
  advect::SourceTerms one({8, 4, 4});
  advect::SourceTerms four({8, 4, 4});
  const auto stats1 = run_multi_instance(s, one, 0, 1);
  const auto stats4 = run_multi_instance(s, four, 0, 4);
  // 4 kernels re-stream 2 halo planes each vs 1 kernel's 2 total:
  // (2+2)*4 vs (8+2) planes of (ny+2)(nz+2) values.
  EXPECT_EQ(stats1.values_streamed, 10u * 6 * 6);
  EXPECT_EQ(stats4.values_streamed, 16u * 6 * 6);
}

class ChunkSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkSweep, FusedEqualsReferenceOnAwkwardGrid) {
  Harness s({5, 13, 7}, 31);
  advect::SourceTerms out({5, 13, 7});
  run_kernel_fused(*s.state, s.coefficients, out, KernelConfig{GetParam()});
  s.expect_equal(out);
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChunkSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 13,
                                           64));

}  // namespace
}  // namespace pw::kernel
