// The named scenario suite. This is the ONE translation unit in the repo
// compiled with PW_CHECK=1: the pw::dataflow transport headers included
// here instantiate as `modelchecked::` templates on the intercepted
// atomics shim, while every other TU (including the rest of pw_check)
// keeps the production `fabric::` instantiations — same source, disjoint
// symbols. The roles below bracket every stream call with History records
// so the oracles (history.cpp) can judge each explored interleaving.

#include "pw/check/scenario.hpp"

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "pw/check/runtime.hpp"
#include "pw/check/shim.hpp"
#include "pw/dataflow/stream.hpp"

#if !PW_CHECK_ACTIVE
#error "scenarios.cpp must be compiled with -DPW_CHECK=1"
#endif

namespace pw::check {
namespace {

using dataflow::TryPop;

/// Shared plumbing: a fresh instrumented stream per execution plus
/// recorded-operation helpers for the roles.
class StreamScenario : public ScenarioInstance {
 public:
  explicit StreamScenario(std::size_t capacity)
      : stream_({.capacity = capacity}) {}

  void finalize() override {
    // Driver-side (no engine registered): drain what the roles left
    // behind so the conservation oracle can balance its books.
    std::vector<long long> leftover;
    long long value = 0;
    while (stream_.try_pop(value) == TryPop::kValue) {
      leftover.push_back(value);
    }
    history_.set_leftover(std::move(leftover));
  }

  History& history() override { return history_; }
  std::size_t capacity() const override { return stream_.capacity(); }

 protected:
  void do_push(int tid, long long value) {
    const std::size_t op = history_.begin(tid, OpKind::kPush);
    const bool ok = stream_.push(value);
    history_.end_push(op, value, ok);
  }

  void do_try_push_until_accepted(int tid, long long value) {
    for (;;) {
      const std::size_t op = history_.begin(tid, OpKind::kTryPush);
      const bool ok = stream_.try_push(value);
      history_.end_push(op, value, ok);
      if (ok || stream_.closed()) {
        return;
      }
      spin_yield();
    }
  }

  /// Blocking-pop loop until end-of-stream; asserts exhausted() after
  /// unless `expect_exhausted` is off. Scenarios where a push may win the
  /// race against a third-party close (docs/dataflow.md) must turn it
  /// off: the racing element can land *after* pop() observed
  /// closed-and-empty, flipping exhausted() back to false.
  void do_pop_until_eos(int tid, bool expect_exhausted = true) {
    for (;;) {
      const std::size_t op = history_.begin(tid, OpKind::kPop);
      const std::optional<long long> value = stream_.pop();
      history_.end_pop(op, value);
      if (!value.has_value()) {
        if (expect_exhausted) {
          history_.expect(tid, stream_.exhausted(),
                          "exhausted() after pop() returned nullopt");
        }
        return;
      }
    }
  }

  /// TryPop poll loop until kClosed; kEmpty polls park on the scheduler.
  void do_poll_until_closed(int tid) {
    for (;;) {
      long long value = 0;
      const std::size_t op = history_.begin(tid, OpKind::kPop);
      const TryPop status = stream_.try_pop(value);
      history_.end_try_pop(op, static_cast<int>(status), value);
      if (status == TryPop::kClosed) {
        history_.expect(tid, stream_.exhausted(),
                        "exhausted() after TryPop::kClosed");
        return;
      }
      if (status == TryPop::kEmpty) {
        spin_yield();
      }
    }
  }

  void do_close(int tid) {
    const std::size_t op = history_.begin(tid, OpKind::kClose);
    stream_.close();
    history_.end_close(op);
  }

  dataflow::Stream<long long> stream_;
  History history_;
};

// ---- SPSC: blocking relay, wraparound, close-after-producer -------------

class SpscRelay : public StreamScenario {
 public:
  SpscRelay(std::size_t capacity, int count)
      : StreamScenario(capacity), count_(count) {}

  std::vector<std::function<void()>> bodies() override {
    return {
        [this] {
          for (int i = 1; i <= count_; ++i) {
            do_push(0, i);
          }
          do_close(0);
        },
        [this] { do_pop_until_eos(1); },
    };
  }

 private:
  int count_;
};

// ---- SPSC: non-blocking flavours ----------------------------------------

class SpscTryFlavors : public StreamScenario {
 public:
  SpscTryFlavors() : StreamScenario(1) {}

  std::vector<std::function<void()>> bodies() override {
    return {
        [this] {
          do_try_push_until_accepted(0, 1);
          do_try_push_until_accepted(0, 2);
          do_close(0);
        },
        [this] { do_poll_until_closed(1); },
    };
  }
};

// ---- SPSC: close() from the consumer while the producer is blocked ------

class SpscCloseWhileBlocked : public StreamScenario {
 public:
  SpscCloseWhileBlocked() : StreamScenario(1) {}

  std::vector<std::function<void()>> bodies() override {
    return {
        [this] {
          for (int i = 1; i <= 3; ++i) {
            do_push(0, i);
          }
        },
        [this] {
          // Take one element, then pull the rug: the blocked producer
          // must wake with `false`, never an exception or a hang.
          const std::size_t op = history_.begin(1, OpKind::kPop);
          history_.end_pop(op, stream_.pop());
          do_close(1);
          do_pop_until_eos(1, /*expect_exhausted=*/false);
        },
    };
  }

  // A push may legitimately race this third-party close (docs/dataflow.md:
  // "a push that races the close itself may win the race"), so kClosed is
  // not final across the whole execution — and strict linearizability
  // against the strict referee (push false iff closed) does not hold
  // either: the racing push overlaps the close but the consumer's
  // post-close pop pins the close earlier in real time than the slot the
  // push needs. The conservation/FIFO/contract invariants are the oracle
  // here; the strictly-ordered scenarios above keep the lin check.
  bool close_ordered() const override { return false; }
  bool check_linearizability() const override { return false; }
};

// ---- SPSC: push_n/pop_n batches and the partial-tail contract -----------

class SpscBatch : public StreamScenario {
 public:
  SpscBatch() : StreamScenario(2) {}

  std::vector<std::function<void()>> bodies() override {
    return {
        [this] {
          long long values[4] = {1, 2, 3, 4};
          const std::size_t op = history_.begin(0, OpKind::kPushN);
          const std::size_t accepted = stream_.push_n(values, 4);
          history_.end_batch(
              op, std::vector<long long>(values, values + accepted));
          do_close(0);
        },
        [this] {
          long long out[8] = {};
          std::size_t op = history_.begin(1, OpKind::kPopN);
          const std::size_t first = stream_.pop_n(out, 8);
          history_.end_batch(op,
                             std::vector<long long>(out, out + first));
          history_.expect(1, first == 4,
                          "pop_n wider than the pack delivers the whole "
                          "partial tail at end-of-stream");
          // The partial tail must arrive exactly once: a second wide pop
          // on the closed stream is empty.
          op = history_.begin(1, OpKind::kPopN);
          const std::size_t second = stream_.pop_n(out, 8);
          history_.end_batch(op,
                             std::vector<long long>(out, out + second));
          history_.expect(1, second == 0,
                          "pop_n after end-of-stream delivers nothing");
        },
    };
  }

  // push_n/pop_n are deliberately not single linearisation points; the
  // conservation + order invariants are the batch oracle.
  bool check_linearizability() const override { return false; }
};

// ---- Negative: the seeded relaxed-publish ordering bug ------------------

/// Arms rt::set_relaxed_publish_bug so the SPSC tail publish degrades to
/// a relaxed store — exactly the "forgot the release" mistake. The
/// checker must flag the consumer's read of the unpublished element as a
/// happens-before race, with a replayable schedule.
class SpscSeededRelaxedPublish : public SpscRelay {
 public:
  SpscSeededRelaxedPublish() : SpscRelay(2, 2) {
    rt::set_relaxed_publish_bug(true);
  }
  ~SpscSeededRelaxedPublish() override { rt::set_relaxed_publish_bug(false); }
};

// ---- Negative: a wedged producer (deadlock detection) -------------------

class SpscWedged : public StreamScenario {
 public:
  SpscWedged() : StreamScenario(1) {}

  std::vector<std::function<void()>> bodies() override {
    return {
        [this] {
          do_push(0, 1);
          do_push(0, 2);  // capacity 1, no consumer: blocks forever
        },
    };
  }
};

template <typename Scenario, typename... Args>
std::function<std::unique_ptr<ScenarioInstance>()> make(Args... args) {
  return [args...] { return std::make_unique<Scenario>(args...); };
}

}  // namespace

const std::vector<ScenarioSpec>& scenarios() {
  static const std::vector<ScenarioSpec> registry = {
      {"spsc.relay",
       "blocking push/pop relay of 3 elements through capacity 2, "
       "producer closes",
       2, false, 2, make<SpscRelay>(std::size_t{2}, 3)},
      {"spsc.wraparound",
       "3 elements through capacity 1: every slot reused, producer "
       "blocks on full",
       2, false, 2, make<SpscRelay>(std::size_t{1}, 3)},
      {"spsc.try_flavors",
       "try_push retry loop vs TryPop poller, kEmpty/kClosed/exhausted "
       "contracts",
       2, false, 2, make<SpscTryFlavors>()},
      {"spsc.close_while_blocked",
       "consumer closes while the producer is blocked on a full ring",
       2, false, 2, make<SpscCloseWhileBlocked>()},
      {"spsc.batch",
       "push_n into capacity 2, wide pop_n: partial tail delivered "
       "exactly once at end-of-stream",
       2, false, 2, make<SpscBatch>()},
      {"spsc.seeded_relaxed_publish",
       "NEGATIVE: tail published with a relaxed store; the checker must "
       "report the data race",
       2, true, 2, make<SpscSeededRelaxedPublish>()},
      {"spsc.wedged",
       "NEGATIVE: producer overfills a consumerless ring; the checker "
       "must report the deadlock",
       1, true, 2, make<SpscWedged>()},
  };
  return registry;
}

const ScenarioSpec* find_scenario(const std::string& name) {
  for (const ScenarioSpec& spec : scenarios()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

}  // namespace pw::check
