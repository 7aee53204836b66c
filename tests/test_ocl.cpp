#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/grid/compare.hpp"
#include "pw/ocl/host_driver.hpp"
#include "pw/ocl/runtime.hpp"
#include "pw/stencil/advect.hpp"
#include "pw/stencil/poisson.hpp"

namespace pw::ocl {
namespace {

DeviceTiming fast_timing() {
  DeviceTiming t;
  t.h2d_gbps = 10.0;
  t.d2h_gbps = 10.0;
  t.dma_setup_s = 0.0;
  t.kernel_dispatch_s = 0.0;
  return t;
}

TEST(Buffer, SizedAndZeroed) {
  Buffer b(100);
  EXPECT_EQ(b.count(), 100u);
  EXPECT_EQ(b.bytes(), 800u);
  for (double v : b.device_view()) {
    EXPECT_EQ(v, 0.0);
  }
}

TEST(CommandQueue, WriteKernelReadRoundTrip) {
  CommandQueue queue(fast_timing());
  Buffer device(8);
  std::vector<double> host_in(8);
  std::iota(host_in.begin(), host_in.end(), 1.0);
  std::vector<double> host_out(8, 0.0);

  const Event w = queue.enqueue_write(device, host_in);
  const Event k = queue.enqueue_kernel(
      "double",
      [&device] {
        for (double& v : device.device_view()) {
          v *= 2.0;
        }
      },
      1e-3, {w});
  const Event r = queue.enqueue_read(device, host_out, {k});
  const auto timeline = queue.finish();

  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(host_out[i], 2.0 * host_in[i]);
  }
  EXPECT_TRUE(w.resolved());
  EXPECT_TRUE(r.resolved());
  EXPECT_GE(k.start_seconds(), w.end_seconds());
  EXPECT_GE(r.start_seconds(), k.end_seconds());
  EXPECT_DOUBLE_EQ(timeline.makespan_s, r.end_seconds());
}

TEST(CommandQueue, EventTimesFollowModel) {
  CommandQueue queue(fast_timing());
  Buffer device(1'000'000);
  std::vector<double> host(1'000'000, 1.0);
  const Event w = queue.enqueue_write(device, host);
  queue.finish();
  // 8 MB at 10 GB/s = 0.8 ms.
  EXPECT_NEAR(w.end_seconds() - w.start_seconds(), 8e-4, 1e-6);
}

TEST(CommandQueue, IndependentTransfersOverlapKernel) {
  CommandQueue queue(fast_timing());
  Buffer a(1'000'000), b(1'000'000);
  std::vector<double> host(1'000'000, 1.0);
  const Event w1 = queue.enqueue_write(a, host);
  // A kernel not depending on w2 can run while w2 streams.
  const Event k = queue.enqueue_kernel("k", [] {}, 1e-3, {w1});
  const Event w2 = queue.enqueue_write(b, host);
  queue.finish();
  EXPECT_LT(w2.start_seconds(), k.end_seconds());
}

TEST(CommandQueue, WaitOnForeignEventRejected) {
  CommandQueue q1(fast_timing());
  CommandQueue q2(fast_timing());
  Buffer device(4);
  std::vector<double> host(4, 0.0);
  const Event e = q1.enqueue_write(device, host);
  q1.finish();
  // After finish() the index is stale relative to q2's empty queue.
  EXPECT_THROW(q2.enqueue_kernel("k", [] {}, 0.0, {e}),
               std::invalid_argument);
}

TEST(CommandQueue, OversizedTransfersRejected) {
  CommandQueue queue(fast_timing());
  Buffer device(4);
  std::vector<double> big(8, 0.0);
  EXPECT_THROW(queue.enqueue_write(device, big), std::invalid_argument);
  EXPECT_THROW(queue.enqueue_read(device, big), std::invalid_argument);
  EXPECT_THROW(queue.enqueue_kernel("k", [] {}, -1.0),
               std::invalid_argument);
}

TEST(CommandQueue, ReusableAfterFinish) {
  CommandQueue queue(fast_timing());
  Buffer device(4);
  std::vector<double> host(4, 3.0);
  queue.enqueue_write(device, host);
  queue.finish();
  EXPECT_EQ(queue.pending(), 0u);
  std::vector<double> out(4, 0.0);
  queue.enqueue_read(device, out);
  queue.finish();
  EXPECT_DOUBLE_EQ(out[2], 3.0);
}

// --- host driver --------------------------------------------------------

struct DriverHarness {
  grid::GridDims dims;
  std::unique_ptr<grid::WindState> state;
  advect::PwCoefficients coefficients;
  std::unique_ptr<advect::SourceTerms> reference;

  explicit DriverHarness(grid::GridDims d) : dims(d) {
    state = std::make_unique<grid::WindState>(dims);
    grid::init_random(*state, 77);
    coefficients = advect::PwCoefficients::from_geometry(
        grid::Geometry::uniform(dims, 100.0, 100.0, 25.0));
    reference = std::make_unique<advect::SourceTerms>(dims);
    advect::advect_reference(*state, coefficients, *reference);
  }

  /// One advection round through the host driver, each chunk's kernel the
  /// fused machine pass.
  HostDriverResult advect(advect::SourceTerms& out, const HostOptions& options,
                          std::size_t chunk_y = 64) const {
    const stencil::EngineConfig engine{.engine = stencil::Engine::kFused,
                                       .chunk_y = chunk_y};
    return HostDriver(options, engine)
        .run(stencil::advect_spec(), kernel::inputs<3>(*state),
             kernel::outputs<3>(out),
             stencil::AdvectOp(coefficients, dims.nz));
  }
};

TEST(HostDriver, OverlappedBitExactWithReference) {
  DriverHarness h({12, 8, 8});
  advect::SourceTerms out({12, 8, 8});
  HostOptions config;
  config.x_chunks = 4;
  config.timing = fast_timing();
  const auto result = h.advect(out, config, 4);
  EXPECT_EQ(result.chunks, 4u);
  EXPECT_TRUE(grid::compare_interior(h.reference->su, out.su).bit_equal());
  EXPECT_TRUE(grid::compare_interior(h.reference->sv, out.sv).bit_equal());
  EXPECT_TRUE(grid::compare_interior(h.reference->sw, out.sw).bit_equal());
}

TEST(HostDriver, SequentialBitExactWithReference) {
  DriverHarness h({10, 6, 6});
  advect::SourceTerms out({10, 6, 6});
  HostOptions config;
  config.overlapped = false;
  config.timing = fast_timing();
  const auto result = h.advect(out, config);
  EXPECT_EQ(result.chunks, 1u);
  EXPECT_TRUE(grid::compare_interior(h.reference->su, out.su).bit_equal());
}

TEST(HostDriver, OverlapHidesTransfers) {
  DriverHarness h({16, 8, 8});
  HostOptions config;
  config.timing = fast_timing();
  config.timing.h2d_gbps = 0.001;  // slow link so transfers dominate
  config.timing.d2h_gbps = 0.001;
  config.kernel_time_model = [](const grid::GridDims& d) {
    return static_cast<double>(d.cells()) * 1e-5;
  };

  advect::SourceTerms out1({16, 8, 8});
  config.overlapped = false;
  const auto sequential = h.advect(out1, config);
  advect::SourceTerms out2({16, 8, 8});
  config.overlapped = true;
  config.x_chunks = 8;
  const auto overlapped = h.advect(out2, config);
  EXPECT_LT(overlapped.seconds, sequential.seconds);
  EXPECT_TRUE(grid::compare_interior(out1.su, out2.su).bit_equal());
}

TEST(HostDriver, TransferAccountingCountsHaloOverlap) {
  DriverHarness h({8, 4, 4});
  advect::SourceTerms out({8, 4, 4});
  HostOptions config;
  config.x_chunks = 4;
  config.timing = fast_timing();
  const auto result = h.advect(out, config);
  // 4 chunks x 3 fields x (2+2 planes) x (6x6 padded face) x 8 bytes.
  EXPECT_EQ(result.bytes_written, 4u * 3 * 4 * 36 * 8);
  EXPECT_EQ(result.bytes_read, result.bytes_written);
}

TEST(HostDriver, KernelTimeModelDrivesTimeline) {
  DriverHarness h({8, 4, 4});
  advect::SourceTerms out({8, 4, 4});
  HostOptions config;
  config.x_chunks = 2;
  config.timing = fast_timing();
  config.kernel_time_model = [](const grid::GridDims& d) {
    return static_cast<double>(d.cells()) * 1e-6;
  };
  const auto result = h.advect(out, config);
  // Two chunks of 4x4x4 cells at 1 us/cell = 2 x 64 us of kernel time.
  const double kernel_busy =
      result.timeline.engine_busy_s[static_cast<std::size_t>(
          xfer::Engine::kKernel)];
  EXPECT_NEAR(kernel_busy, 128e-6, 1e-9);
}

TEST(HostDriver, TransfersFollowTheOpArity) {
  // A Poisson round moves the guess and the right-hand side in and the
  // next guess out: 2 padded slabs written and 1 read per chunk, against
  // advection's 3 and 3, into a device buffer set of that shape.
  const grid::GridDims dims{8, 4, 4};
  grid::WindState state(dims);
  grid::init_random(state, 5);
  advect::SourceTerms out(dims);
  HostOptions config;
  config.x_chunks = 4;
  config.timing = fast_timing();
  const stencil::EngineConfig engine{.engine = stencil::Engine::kFused};
  const stencil::PoissonParams params;
  const auto result =
      HostDriver(config, engine)
          .run(stencil::poisson_spec(), kernel::inputs<2>(state),
               kernel::outputs<1>(out), stencil::PoissonOp(params));
  // Per chunk: (2+2 planes) x (6x6 padded face) x 8 bytes per slab.
  const std::size_t slab_bytes = 4u * 36 * 8;
  EXPECT_EQ(result.bytes_written, 4u * 2 * slab_bytes);
  EXPECT_EQ(result.bytes_read, 4u * 1 * slab_bytes);

  advect::SourceTerms reference(dims);
  stencil::run_pass(stencil::poisson_spec(), state, reference,
                    stencil::PoissonOp(params), stencil::EngineConfig{});
  EXPECT_TRUE(grid::compare_interior(reference.su, out.su).bit_equal());
}

TEST(CommandQueue, BarrierSerialisesAgainstHistory) {
  CommandQueue queue(fast_timing());
  Buffer a(1'000'000), b(1'000'000);
  std::vector<double> host(1'000'000, 1.0);
  queue.enqueue_write(a, host);
  queue.enqueue_write(b, host);
  const Event barrier = queue.enqueue_barrier();
  const Event k = queue.enqueue_kernel("after", [] {}, 1e-4, {barrier});
  queue.finish();
  // The kernel starts only after both 0.8ms writes (serialised on the H2D
  // engine -> 1.6ms).
  EXPECT_GE(k.start_seconds(), 1.6e-3 - 1e-9);
}

TEST(CommandQueue, MarkerWithListActsAsJoin) {
  CommandQueue queue(fast_timing());
  Buffer a(1'000'000);
  std::vector<double> host(1'000'000, 1.0);
  const Event w = queue.enqueue_write(a, host);
  const Event k = queue.enqueue_kernel("k", [] {}, 2e-3, {});
  const Event join = queue.enqueue_marker({w, k});
  queue.finish();
  EXPECT_GE(join.end_seconds(), k.end_seconds());
  EXPECT_GE(join.end_seconds(), w.end_seconds());
}

}  // namespace
}  // namespace pw::ocl
