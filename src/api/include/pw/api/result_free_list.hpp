#pragma once

#include <memory>
#include <mutex>
#include <utility>

#include "pw/advect/reference.hpp"

namespace pw::api {

/// Result buffers for one owner's solves (an api::Solver and its copies,
/// or a shard::ShardedSolver), so a solve writes into memory that has been
/// used before instead of a fresh, zero-filled 3-field result. It keeps at
/// most one spare: one extra result on a 64^3 grid is 6.9 MB. The deleter
/// of a published result returns its buffer here through a weak reference,
/// so a result may outlive its owner (its buffer is then freed).
/// Thread-safe: solves take buffers and results are dropped on any thread.
///
/// A taken buffer's halos are zero — every SourceTerms is built so and no
/// pass writes an output halo — but a recycled one's interiors hold an
/// earlier result, so its solve must rewrite every interior cell.
class ResultFreeList : public std::enable_shared_from_this<ResultFreeList> {
 public:
  /// A buffer of `dims`: the spare one when it has that shape (`recycled`
  /// true), else a fresh, zeroed one.
  std::unique_ptr<advect::SourceTerms> take(const grid::GridDims& dims,
                                            bool& recycled) {
    {
      std::lock_guard lock(mutex_);
      if (spare_ && spare_->su.dims() == dims) {
        recycled = true;
        return std::move(spare_);
      }
    }
    recycled = false;
    return std::make_unique<advect::SourceTerms>(dims);
  }

  /// `buffer` as a result's terms, handed back here when the last
  /// reference drops.
  std::shared_ptr<const advect::SourceTerms> publish(
      std::unique_ptr<advect::SourceTerms> buffer) {
    auto hand_back = [home = weak_from_this()](advect::SourceTerms* terms) {
      std::unique_ptr<advect::SourceTerms> owned(terms);
      if (const std::shared_ptr<ResultFreeList> list = home.lock()) {
        list->give_back(std::move(owned));
      }
    };
    return std::shared_ptr<const advect::SourceTerms>(buffer.release(),
                                                      std::move(hand_back));
  }

  /// Keeps `buffer` (if any) as the spare; the one it replaces is freed
  /// outside the lock.
  void give_back(std::unique_ptr<advect::SourceTerms> buffer) {
    if (!buffer) {
      return;
    }
    std::lock_guard lock(mutex_);
    std::swap(spare_, buffer);
  }

 private:
  std::mutex mutex_;
  std::unique_ptr<advect::SourceTerms> spare_;
};

}  // namespace pw::api
