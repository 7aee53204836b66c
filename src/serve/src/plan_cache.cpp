#include "pw/serve/plan_cache.hpp"

#include <bit>
#include <cstdio>
#include <span>

namespace pw::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void hash_bytes(std::uint64_t& h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

// Field payloads are megabytes; folding them as 64-bit words across four
// independent lanes (instead of one serial byte-at-a-time FNV chain, whose
// multiply latency caps throughput) keeps admission-time fingerprinting
// out of the serving hot path. Deterministic, but not FNV-1a proper — the
// fingerprints never leave the process.
void hash_doubles(std::uint64_t& h, std::span<const double> values) {
  std::uint64_t lanes[4] = {h, h ^ 0x9e3779b97f4a7c15ULL,
                            h ^ 0xc2b2ae3d27d4eb4fULL,
                            h ^ 0x165667b19e3779f9ULL};
  std::size_t i = 0;
  for (; i + 4 <= values.size(); i += 4) {
    for (std::size_t lane = 0; lane < 4; ++lane) {
      lanes[lane] ^= std::bit_cast<std::uint64_t>(values[i + lane]);
      lanes[lane] *= kFnvPrime;
    }
  }
  for (; i < values.size(); ++i) {
    lanes[i % 4] ^= std::bit_cast<std::uint64_t>(values[i]);
    lanes[i % 4] *= kFnvPrime;
  }
  h = lanes[0];
  for (std::size_t lane = 1; lane < 4; ++lane) {
    h ^= lanes[lane];
    h *= kFnvPrime;
  }
}

}  // namespace

std::string plan_key(const grid::GridDims& dims,
                     const api::SolverOptions& options) {
  std::string key;
  key.reserve(96);
  key += std::to_string(dims.nx) + "x" + std::to_string(dims.ny) + "x" +
         std::to_string(dims.nz);
  key += "/";
  key += api::to_string(options.backend);
  if (const auto* cpu = options.backend.get_if<api::CpuBaselineOptions>()) {
    key += ":threads=" + std::to_string(cpu->threads);
  } else if (const auto* multi =
                 options.backend.get_if<api::MultiKernelOptions>()) {
    key += ":kernels=" + std::to_string(multi->kernels);
  } else if (const auto* host = options.backend.get_if<api::HostOptions>()) {
    key += ":x_chunks=" + std::to_string(host->x_chunks);
    key += host->overlapped ? ",overlapped" : ",sequential";
  }
  // Kernel identity + knobs: two requests that differ only in kernel (or a
  // kernel knob that changes the answer, like poisson iterations) must
  // never share a plan or — since fingerprints hash this key — a result.
  key += "/kernel=";
  key += api::to_string(options.kernel_spec);
  if (const auto* diff =
          options.kernel_spec.get_if<api::DiffusionOptions>()) {
    char knobs[128];
    std::snprintf(knobs, sizeof(knobs),
                  ":kappa=%.17g,dx=%.17g,dy=%.17g,dz=%.17g", diff->kappa,
                  diff->dx, diff->dy, diff->dz);
    key += knobs;
  } else if (const auto* poisson =
                 options.kernel_spec.get_if<api::PoissonOptions>()) {
    char knobs[160];
    std::snprintf(knobs, sizeof(knobs),
                  ":iterations=%zu,dx=%.17g,dy=%.17g,dz=%.17g",
                  poisson->iterations, poisson->dx, poisson->dy, poisson->dz);
    key += knobs;
  }
  key += "/chunk_y=" + std::to_string(options.kernel.chunk_y);
  key += ",depth=" + std::to_string(options.kernel.stream_depth);
  return key;
}

std::uint64_t payload_hash(const grid::WindState& state,
                           const advect::PwCoefficients* coefficients) {
  std::uint64_t h = kFnvOffset;
  hash_doubles(h, state.u.raw());
  hash_doubles(h, state.v.raw());
  hash_doubles(h, state.w.raw());
  if (coefficients != nullptr) {
    hash_doubles(h, std::span<const double>(&coefficients->tcx, 1));
    hash_doubles(h, std::span<const double>(&coefficients->tcy, 1));
    hash_doubles(h, coefficients->tzc1);
    hash_doubles(h, coefficients->tzc2);
    hash_doubles(h, coefficients->tzd1);
    hash_doubles(h, coefficients->tzd2);
  }
  return h;
}

std::uint64_t payload_hash(const grid::WindState& state,
                           const advect::PwCoefficients& coefficients) {
  return payload_hash(state, &coefficients);
}

namespace {

std::uint64_t combine_fingerprint(const api::SolveRequest& request,
                                  std::uint64_t payload) {
  std::uint64_t h = kFnvOffset;
  const std::string key =
      plan_key(request.state->u.dims(), request.options);
  hash_bytes(h, key.data(), key.size());
  hash_bytes(h, &payload, sizeof(payload));
  return h;
}

}  // namespace

std::uint64_t request_fingerprint(const api::SolveRequest& request) {
  if (!request.state) {
    return kFnvOffset;
  }
  return combine_fingerprint(
      request, payload_hash(*request.state, request.coefficients.get()));
}

std::uint64_t FingerprintCache::fingerprint(const api::SolveRequest& request) {
  if (!request.state) {
    return kFnvOffset;
  }
  const grid::WindState* key = request.state.get();
  {
    std::lock_guard lock(mutex_);
    const auto it = hashes_.find(key);
    // Reuse only while the cached weak_ptrs still lock to this exact
    // payload pair — a live lock proves the addresses were never recycled.
    if (it != hashes_.end() &&
        it->second.state.lock() == request.state &&
        it->second.coefficients.lock() == request.coefficients) {
      return combine_fingerprint(request, it->second.hash);
    }
  }
  const std::uint64_t payload =
      payload_hash(*request.state, request.coefficients.get());
  {
    std::lock_guard lock(mutex_);
    if (hashes_.size() >= capacity_) {  // drop dead owners before growing
      for (auto it = hashes_.begin(); it != hashes_.end();) {
        it = it->second.state.expired() ? hashes_.erase(it) : ++it;
      }
    }
    // Live payloads alone can fill the memo; evict outright so the cap is
    // hard. (std::map iterates in address order — effectively arbitrary —
    // and a victim's next request merely re-hashes its payload.)
    while (hashes_.size() >= capacity_) {
      hashes_.erase(hashes_.begin());
    }
    hashes_[key] = CachedHash{request.state, request.coefficients, payload};
  }
  return combine_fingerprint(request, payload);
}

std::size_t FingerprintCache::size() const {
  std::lock_guard lock(mutex_);
  return hashes_.size();
}

std::shared_ptr<const Plan> PlanCache::lookup(
    const grid::GridDims& dims, const api::SolverOptions& options) {
  std::string key = plan_key(dims, options);
  {
    std::lock_guard lock(mutex_);
    const auto it = plans_.find(key);
    if (it != plans_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Build outside the lock: the lint battery is microseconds, but there is
  // no reason to serialise admission of *different* shapes behind it. A
  // racing duplicate build is benign — both produce the same plan and the
  // first insert wins.
  auto plan = std::make_shared<Plan>();
  plan->key = key;
  plan->lint = api::Solver(options).validate(dims);
  plan->admitted = lint::admits(plan->lint, policy_);
  if (const lint::Diagnostic* d = lint::first_rejection(plan->lint, policy_)) {
    plan->rejection = d->check + ": " + d->message;
  }
  std::lock_guard lock(mutex_);
  ++misses_;
  const auto [it, inserted] = plans_.emplace(std::move(key), std::move(plan));
  return it->second;
}

std::size_t PlanCache::size() const {
  std::lock_guard lock(mutex_);
  return plans_.size();
}

std::uint64_t PlanCache::hits() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

std::uint64_t PlanCache::misses() const {
  std::lock_guard lock(mutex_);
  return misses_;
}

}  // namespace pw::serve
