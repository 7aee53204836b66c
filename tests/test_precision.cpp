#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/scheme.hpp"
#include "pw/fpga/device_profiles.hpp"
#include "pw/fpga/resource_estimate.hpp"
#include "pw/grid/compare.hpp"
#include "pw/grid/init.hpp"
#include "pw/hls/fixed_point.hpp"
#include "pw/hls/numeric_cast.hpp"
#include "pw/kernel/intel_frontend.hpp"
#include "pw/kernel/vectorized.hpp"
#include "pw/kernel/xilinx_frontend.hpp"
#include "pw/precision/reduced.hpp"
#include "pw/util/rng.hpp"

namespace pw {
namespace {

TEST(FixedPoint, RoundTripsRepresentableValues) {
  using Q = hls::FixedQ43;
  for (double v : {0.0, 1.0, -1.0, 3.25, -1000.5, 0.001953125}) {
    EXPECT_NEAR(Q::from_double(v).to_double(), v, Q::epsilon());
  }
}

TEST(FixedPoint, ArithmeticMatchesDoubleForExactValues) {
  using Q = hls::FixedQ32;
  const Q a = Q::from_double(3.5);
  const Q b = Q::from_double(-1.25);
  EXPECT_DOUBLE_EQ((a + b).to_double(), 2.25);
  EXPECT_DOUBLE_EQ((a - b).to_double(), 4.75);
  EXPECT_DOUBLE_EQ((a * b).to_double(), -4.375);
  EXPECT_DOUBLE_EQ((-a).to_double(), -3.5);
  Q c = a;
  c += b;
  EXPECT_DOUBLE_EQ(c.to_double(), 2.25);
  c -= b;
  EXPECT_DOUBLE_EQ(c.to_double(), 3.5);
}

TEST(FixedPoint, MultiplicationErrorBoundedByEpsilon) {
  using Q = hls::FixedQ43;
  util::Rng rng(3);
  for (int trial = 0; trial < 1000; ++trial) {
    const double x = rng.uniform(-100.0, 100.0);
    const double y = rng.uniform(-100.0, 100.0);
    const double product = (Q::from_double(x) * Q::from_double(y)).to_double();
    // Inputs are quantised to eps; product error ~ |x|+|y| quantisations
    // plus one truncation.
    const double bound = (std::abs(x) + std::abs(y) + 2.0) * Q::epsilon();
    EXPECT_NEAR(product, x * y, bound) << x << " * " << y;
  }
}

TEST(FixedPoint, SaturatesOnOverflowFromDouble) {
  using Q = hls::FixedQ43;
  // Values beyond +/-2^20 saturate rather than wrap.
  EXPECT_GT(Q::from_double(1e300).to_double(), 1e6 - 1);
  EXPECT_LT(Q::from_double(-1e300).to_double(), -(1e6 - 1));
}

TEST(FixedPoint, Ordering) {
  using Q = hls::FixedQ32;
  EXPECT_LT(Q::from_double(1.0), Q::from_double(2.0));
  EXPECT_EQ(Q::from_double(0.5), Q::from_double(0.5));
}

struct PrecisionHarness {
  grid::GridDims dims{10, 10, 12};
  std::unique_ptr<grid::WindState> state;
  advect::PwCoefficients coefficients;

  PrecisionHarness() {
    state = std::make_unique<grid::WindState>(dims);
    grid::init_random(*state, 99);
    coefficients = advect::PwCoefficients::from_geometry(
        grid::Geometry::uniform(dims, 100.0, 100.0, 25.0));
  }
};

TEST(ReducedPrecision, FloatErrorSmallButNonzero) {
  PrecisionHarness h;
  const auto stats = precision::evaluate(precision::Representation::kFloat32,
                                         *h.state, h.coefficients);
  EXPECT_EQ(stats.cells, 3 * h.dims.cells());
  EXPECT_GT(stats.max_abs, 0.0);  // it IS reduced precision
  // Absolute errors stay at float-epsilon scale; relative error can grow
  // where source terms cancel towards zero but stays far below O(1).
  EXPECT_LT(stats.max_abs, 1e-6);
  EXPECT_LT(stats.max_rel, 0.1);
  EXPECT_LT(stats.rms, stats.max_abs);
}

TEST(ReducedPrecision, FixedQ43TighterThanFloat) {
  PrecisionHarness h;
  const auto f32 = precision::evaluate(precision::Representation::kFloat32,
                                       *h.state, h.coefficients);
  const auto q43 = precision::evaluate(precision::Representation::kFixedQ43,
                                       *h.state, h.coefficients);
  // 43 fractional bits resolve far below float's 24-bit mantissa at these
  // magnitudes.
  EXPECT_LT(q43.max_abs, f32.max_abs);
}

TEST(ReducedPrecision, CoarserFixedFormatIsWorse) {
  PrecisionHarness h;
  const auto q43 = precision::evaluate(precision::Representation::kFixedQ43,
                                       *h.state, h.coefficients);
  const auto q32 = precision::evaluate(precision::Representation::kFixedQ32,
                                       *h.state, h.coefficients);
  EXPECT_GT(q32.max_abs, q43.max_abs);
}

TEST(ReducedPrecision, ChunkingDoesNotChangeReducedResults) {
  PrecisionHarness h;
  advect::SourceTerms a(h.dims), b(h.dims);
  kernel::KernelConfig whole;
  whole.chunk_y = 0;
  kernel::KernelConfig chunked;
  chunked.chunk_y = 3;
  precision::evaluate(precision::Representation::kFloat32, *h.state,
                      h.coefficients, whole, &a);
  precision::evaluate(precision::Representation::kFloat32, *h.state,
                      h.coefficients, chunked, &b);
  EXPECT_TRUE(grid::compare_interior(a.su, b.su).bit_equal());
  EXPECT_TRUE(grid::compare_interior(a.sw, b.sw).bit_equal());
}

TEST(ReducedPrecision, StorageFactor) {
  EXPECT_DOUBLE_EQ(
      precision::storage_factor(precision::Representation::kFloat32), 0.5);
  EXPECT_DOUBLE_EQ(
      precision::storage_factor(precision::Representation::kFixedQ43), 1.0);
}

TEST(ReducedPrecision, Fp32ResourceEstimateEnablesMoreKernels) {
  // The motivation of the paper's §V: reduced precision shrinks the shift
  // buffers and operators, so more kernels fit.
  kernel::KernelConfig config;
  config.chunk_y = 64;
  fpga::KernelEstimateOptions f64;
  f64.nz = 64;
  fpga::KernelEstimateOptions f32 = f64;
  f32.value_bits = 32;

  for (auto vendor : {fpga::Vendor::kXilinx, fpga::Vendor::kIntel}) {
    const auto big = fpga::estimate_kernel(config, f64, vendor);
    const auto small = fpga::estimate_kernel(config, f32, vendor);
    EXPECT_LT(small.block_ram_bytes, big.block_ram_bytes);
    EXPECT_LT(small.dsp, big.dsp);
    EXPECT_LT(small.logic_cells, big.logic_cells);
  }
  const auto device = fpga::alveo_u280();
  EXPECT_GT(fpga::max_kernels(device,
                              fpga::estimate_kernel(config, f32,
                                                    fpga::Vendor::kXilinx)),
            fpga::max_kernels(device,
                              fpga::estimate_kernel(config, f64,
                                                    fpga::Vendor::kXilinx)));
}

TEST(ReducedPrecision, InvalidValueBitsThrow) {
  kernel::KernelConfig config;
  fpga::KernelEstimateOptions options;
  options.value_bits = 16;
  EXPECT_THROW(fpga::estimate_kernel(config, options, fpga::Vendor::kXilinx),
               std::invalid_argument);
}


TEST(ReducedPrecision, F32VendorFrontendsBitIdentical) {
  // The portability claim extended to the reduced-precision datapath: both
  // vendor-style threaded pipelines in float32 agree bit-exactly with each
  // other and with the fused reduced path.
  PrecisionHarness h;
  advect::SourceTerms xilinx_out(h.dims), intel_out(h.dims),
      fused_out(h.dims);
  kernel::KernelConfig config;
  config.chunk_y = 4;
  kernel::run_kernel_xilinx_f32(*h.state, h.coefficients, xilinx_out, config);
  kernel::run_kernel_intel_f32(*h.state, h.coefficients, intel_out, config);
  precision::evaluate(precision::Representation::kFloat32, *h.state,
                      h.coefficients, config, &fused_out);

  EXPECT_TRUE(grid::compare_interior(xilinx_out.su, intel_out.su).bit_equal());
  EXPECT_TRUE(grid::compare_interior(xilinx_out.sv, intel_out.sv).bit_equal());
  EXPECT_TRUE(grid::compare_interior(xilinx_out.sw, intel_out.sw).bit_equal());
  EXPECT_TRUE(grid::compare_interior(xilinx_out.su, fused_out.su).bit_equal());
  EXPECT_TRUE(grid::compare_interior(xilinx_out.sw, fused_out.sw).bit_equal());
}

TEST(ReducedPrecision, F32FrontendDiffersFromF64ButOnlySlightly) {
  PrecisionHarness h;
  advect::SourceTerms f64(h.dims), f32(h.dims);
  kernel::KernelConfig config;
  kernel::run_kernel_xilinx(*h.state, h.coefficients, f64, config);
  kernel::run_kernel_xilinx_f32(*h.state, h.coefficients, f32, config);
  const auto diff = grid::compare_interior(f64.su, f32.su);
  EXPECT_FALSE(diff.bit_equal());  // genuinely reduced precision
  EXPECT_LT(diff.max_abs, 1e-6);   // but tiny at wind scales
}

/// The typed referee: advect_cell<T> over a direct gather of each cell's
/// 27 neighbours, inputs and coefficients converted to T as the read stage
/// does and results widened as the write stage does.
template <typename T>
advect::SourceTerms gather_reference(const grid::WindState& state,
                                     const advect::PwCoefficients& c) {
  const grid::GridDims dims = state.u.dims();
  advect::SourceTerms out(dims);
  const T tcx = hls::to_value<T>(c.tcx);
  const T tcy = hls::to_value<T>(c.tcy);
  for (std::size_t i = 0; i < dims.nx; ++i) {
    for (std::size_t j = 0; j < dims.ny; ++j) {
      for (std::size_t k = 0; k < dims.nz; ++k) {
        const auto gi = static_cast<std::ptrdiff_t>(i);
        const auto gj = static_cast<std::ptrdiff_t>(j);
        const auto gk = static_cast<std::ptrdiff_t>(k);
        advect::CellStencilsT<T> s;
        for (int dx = -1; dx <= 1; ++dx) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dz = -1; dz <= 1; ++dz) {
              s.u.at(dx, dy, dz) = hls::to_value<T>(
                  state.u.at(gi + dx, gj + dy, gk + dz));
              s.v.at(dx, dy, dz) = hls::to_value<T>(
                  state.v.at(gi + dx, gj + dy, gk + dz));
              s.w.at(dx, dy, dz) = hls::to_value<T>(
                  state.w.at(gi + dx, gj + dy, gk + dz));
            }
          }
        }
        const advect::ZCoeffsT<T> z{
            hls::to_value<T>(c.tzc1[k]), hls::to_value<T>(c.tzc2[k]),
            hls::to_value<T>(c.tzd1[k]), hls::to_value<T>(c.tzd2[k])};
        const auto sources =
            advect::advect_cell<T>(s, tcx, tcy, z, k + 1 == dims.nz);
        out.su.at(gi, gj, gk) = hls::from_value(sources.su);
        out.sv.at(gi, gj, gk) = hls::from_value(sources.sv);
        out.sw.at(gi, gj, gk) = hls::from_value(sources.sw);
      }
    }
  }
  return out;
}

void expect_bit_equal(const advect::SourceTerms& expected,
                      const advect::SourceTerms& got, const char* what) {
  EXPECT_TRUE(grid::compare_interior(expected.su, got.su).bit_equal()) << what;
  EXPECT_TRUE(grid::compare_interior(expected.sv, got.sv).bit_equal()) << what;
  EXPECT_TRUE(grid::compare_interior(expected.sw, got.sw).bit_equal()) << what;
}

TEST(ReducedPrecision, TypedPathsBitEqualDirectGatherOnDegenerateShapes) {
  // Seeded draws of tiny and degenerate grids (every side 1..6) and Y-chunk
  // widths 0..ny+2: each reduced representation is bit-equal to the typed
  // direct-gather referee, and the f32 vectorized path to the float32 one.
  util::Rng rng(17);
  for (int draw = 0; draw < 24; ++draw) {
    const grid::GridDims dims{1 + rng.next_below(6), 1 + rng.next_below(6),
                              1 + rng.next_below(6)};
    const std::uint64_t seed = rng.next_u64();
    kernel::KernelConfig config;
    config.chunk_y = rng.next_below(dims.ny + 3);
    SCOPED_TRACE(::testing::Message()
                 << "draw=" << draw << " dims=" << dims.nx << "x" << dims.ny
                 << "x" << dims.nz << " chunk_y=" << config.chunk_y
                 << " seed=" << seed);
    grid::WindState state(dims);
    grid::init_random(state, seed);
    const auto coefficients = advect::PwCoefficients::from_geometry(
        grid::Geometry::uniform(dims, 100.0, 80.0, 40.0));

    advect::SourceTerms f32(dims), q43(dims), q32(dims), vectorized(dims);
    precision::evaluate(precision::Representation::kFloat32, state,
                        coefficients, config, &f32);
    precision::evaluate(precision::Representation::kFixedQ43, state,
                        coefficients, config, &q43);
    precision::evaluate(precision::Representation::kFixedQ32, state,
                        coefficients, config, &q32);
    kernel::run_kernel_vectorized_f32(state, coefficients, vectorized, config);

    expect_bit_equal(gather_reference<float>(state, coefficients), f32,
                     "float32");
    expect_bit_equal(gather_reference<hls::FixedQ43>(state, coefficients),
                     q43, "fixed Q20.43");
    expect_bit_equal(gather_reference<hls::FixedQ32>(state, coefficients),
                     q32, "fixed Q31.32");
    expect_bit_equal(f32, vectorized, "vectorized f32");
  }
}

}  // namespace
}  // namespace pw
