// Second fuzz layer: reduced-precision error bounds, decomposition vs
// chunking interplay, and I/O round-trips across random shapes.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/api/request.hpp"
#include "pw/grid/compare.hpp"
#include "pw/io/field_io.hpp"
#include "pw/kernel/fused.hpp"
#include "pw/precision/reduced.hpp"
#include "pw/shard/sharded_solver.hpp"
#include "pw/util/rng.hpp"

namespace pw {
namespace {

grid::GridDims random_dims(util::Rng& rng, std::size_t lo = 3,
                           std::size_t span = 8) {
  return {lo + rng.next_below(span), lo + rng.next_below(span),
          lo + rng.next_below(span)};
}

class PrecisionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PrecisionFuzz, ReducedErrorsBoundedAcrossShapes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  for (int round = 0; round < 3; ++round) {
    const grid::GridDims dims = random_dims(rng);
    grid::WindState state(dims);
    grid::init_random(state, rng.next_u64());
    const auto coefficients = advect::PwCoefficients::from_geometry(
        grid::Geometry::uniform(dims, 100.0, 100.0, 25.0));
    kernel::KernelConfig config;
    config.chunk_y = rng.next_below(dims.ny + 2);

    const auto f32 = precision::evaluate(
        precision::Representation::kFloat32, state, coefficients, config);
    const auto q43 = precision::evaluate(
        precision::Representation::kFixedQ43, state, coefficients, config);

    SCOPED_TRACE(::testing::Message() << dims.nx << "x" << dims.ny << "x"
                                      << dims.nz << " chunk "
                                      << config.chunk_y);
    // Winds are O(1) and coefficients O(0.01): float32 absolute errors sit
    // at ~1e-9, Q20.43 at ~1e-13; give two orders of slack.
    EXPECT_LT(f32.max_abs, 1e-7);
    EXPECT_LT(q43.max_abs, 1e-11);
    EXPECT_EQ(f32.cells, 3 * dims.cells());
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, PrecisionFuzz, ::testing::Range(0, 4));

class DecompChunkFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DecompChunkFuzz, DistributedChunkedKernelsMatchReference) {
  // Randomised interaction of the two decompositions: ranks in (x, y) and
  // Y-chunking inside every rank's kernel.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 3);
  for (int round = 0; round < 2; ++round) {
    const grid::GridDims dims = random_dims(rng, 4, 9);
    grid::WindState state(dims);
    grid::init_random(state, rng.next_u64());
    const auto coefficients = advect::PwCoefficients::from_geometry(
        grid::Geometry::uniform(dims, 80.0, 120.0, 40.0));
    advect::SourceTerms reference(dims);
    advect::advect_reference(state, coefficients, reference);

    const std::size_t px = 1 + rng.next_below(std::min<std::size_t>(3, dims.nx));
    const std::size_t py = 1 + rng.next_below(std::min<std::size_t>(3, dims.ny));
    const std::size_t chunk = rng.next_below(dims.ny + 2);
    SCOPED_TRACE(::testing::Message()
                 << dims.nx << "x" << dims.ny << "x" << dims.nz << " grid, "
                 << px << "x" << py << " ranks, chunk " << chunk);

    api::SolverOptions options;
    options.backend = api::Backend::kFused;
    options.kernel.chunk_y = chunk;
    shard::ShardOptions shard_options;
    shard_options.devices = px * py;
    shard::ShardedSolver solver(shard_options);
    const api::SolveResult out =
        solver.solve(api::borrow_request(state, coefficients, options));
    ASSERT_TRUE(out.ok()) << out.message;
    ASSERT_EQ(solver.last_report().devices_used, px * py);
    ASSERT_TRUE(
        grid::compare_interior(reference.su, out.terms->su).bit_equal());
    ASSERT_TRUE(
        grid::compare_interior(reference.sv, out.terms->sv).bit_equal());
    ASSERT_TRUE(
        grid::compare_interior(reference.sw, out.terms->sw).bit_equal());
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, DecompChunkFuzz, ::testing::Range(0, 4));

TEST(IoFuzz, RandomShapesRoundTrip) {
  util::Rng rng(11);
  for (int round = 0; round < 8; ++round) {
    const grid::GridDims dims = random_dims(rng);
    const std::size_t halo = 1 + rng.next_below(2);
    grid::FieldD field(dims, halo);
    for (double& v : field.raw()) {
      v = rng.uniform(-1e6, 1e6);
    }
    std::stringstream buffer;
    io::write_field(field, buffer);
    const grid::FieldD loaded = io::read_field(buffer);
    ASSERT_TRUE(loaded.same_shape(field));
    const auto raw_a = field.raw();
    const auto raw_b = loaded.raw();
    for (std::size_t n = 0; n < raw_a.size(); ++n) {
      ASSERT_EQ(raw_a[n], raw_b[n]);
    }
  }
}

}  // namespace
}  // namespace pw
