// Snapshot isolation under real concurrency -- the test the TSan CI leg
// exists for.  A writer thread mutates the SnapshotStore (publishing new
// generations) while K reader threads pin snapshots and query them; the
// invariants:
//
//   * two queries of one pinned snapshot are bit-identical, regardless
//     of how many generations the writer published in between;
//   * every reader of a given generation sees the same report as every
//     other reader of that generation (cross-thread bit-identity);
//   * a failed mutation publishes nothing;
//   * the shared stage cache survives cancellation mid-churn.
//
// Reports are compared through their JSON rendering: one string capturing
// every arrival, slack, and diagnostic -- a single differing bit anywhere
// fails the EXPECT_EQ.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.h"
#include "core/diagnostic.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "timing/snapshot.h"

namespace awesim {
namespace {

timing::AnalysisOptions serial_options() {
  timing::AnalysisOptions opt;
  opt.threads = 1;
  return opt;
}

/// The report rendered as one string, minus the `stats` cost counters:
/// those reflect work actually performed (cache hits, factorizations)
/// and legitimately differ warm vs. cold.  Everything else -- arrivals,
/// slacks, paths, per-stage delays, diagnostics -- is the bit-identity
/// contract.  The paths come from a search over the snapshot's one
/// shared graph, which every reader thread walks concurrently.
std::string report_fingerprint(const timing::Snapshot& snap) {
  const obs::json::Value full =
      serve::report_to_json(*snap.report(), /*include_stages=*/true);
  obs::json::Value stripped = obs::json::Value::object();
  for (const auto& [key, value] : full.items()) {
    if (key != "stats") stripped.set(key, value);
  }
  timing::PathQuery query;
  query.k = 4;
  stripped.set("worst_paths", serve::paths_to_json(snap.worst_paths(query)));
  return stripped.dump();
}

TEST(ServeConcurrency, ReadersSeeBitIdenticalSnapshotsDuringWrites) {
  constexpr int kReaders = 4;
  constexpr int kWrites = 24;
  constexpr int kReadsPerReader = 48;

  timing::SnapshotStore store(serve::builtin_design("chain8"),
                              serial_options());

  // generation -> canonical fingerprint, filled in by whichever thread
  // sees that generation first; every later sighting must match.
  std::mutex canon_mutex;
  std::map<std::uint64_t, std::string> canon;
  std::atomic<int> mismatches{0};
  std::atomic<int> readers_started{0};
  std::atomic<bool> writer_done{false};

  auto record = [&](std::uint64_t generation, const std::string& print) {
    std::lock_guard<std::mutex> lock(canon_mutex);
    auto [it, inserted] = canon.emplace(generation, print);
    if (!inserted && it->second != print) ++mismatches;
  };

  // The writer starts once every reader holds a first snapshot, and each
  // reader's last read starts after the writer is done, so every reader
  // sees the first and the last generation however fast either side runs.
  std::thread writer([&store, &writer_done, &readers_started] {
    while (readers_started.load() < kReaders) std::this_thread::yield();
    for (int i = 0; i < kWrites; ++i) {
      store.mutate([i](timing::Session& s) {
        s.set_drive_resistance("g0", 500.0 + 25.0 * i);
      });
      std::this_thread::yield();
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &record, &readers_started,
                          &writer_done] {
      for (int i = 0;; ++i) {
        const bool writes_done = writer_done.load();
        const std::shared_ptr<const timing::Snapshot> snap =
            store.current();
        // Two queries of one pin must match each other exactly...
        const std::string first = report_fingerprint(*snap);
        const std::string second = report_fingerprint(*snap);
        EXPECT_EQ(first, second)
            << "a pinned snapshot changed under a reader";
        // ...and match every other thread's view of that generation.
        record(snap->generation(), first);
        if (i == 0) ++readers_started;
        if (writes_done && i + 1 >= kReadsPerReader) break;
      }
    });
  }
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(mismatches.load(), 0)
      << "two readers of one generation saw different reports";
  EXPECT_GE(canon.size(), 2u)
      << "the readers never overlapped a write";
}

TEST(ServeConcurrency, FailedMutationsPublishNothingUnderChurn) {
  timing::SnapshotStore store(serve::builtin_design("chain4"),
                              serial_options());
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&store, &failures, w] {
      for (int i = 0; i < 16; ++i) {
        if ((i + w) % 3 == 0) {
          try {
            store.mutate([](timing::Session& s) {
              s.set_drive_resistance("no_such_gate", 1.0);
            });
          } catch (const std::exception&) {
            ++failures;
          }
        } else {
          store.mutate([w, i](timing::Session& s) {
            s.set_drive_resistance("g1", 400.0 + 10.0 * (w * 16 + i));
          });
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_GT(failures.load(), 0);
  // Every failed mutate threw before publishing: the generation counter
  // advanced exactly once per successful mutation.
  const int successes = 3 * 16 - failures.load();
  EXPECT_EQ(store.current()->generation(),
            static_cast<std::uint64_t>(successes));
}

TEST(ServeConcurrency, CancellationDuringChurnLeavesCacheWarm) {
  timing::SnapshotStore store(serve::builtin_design("chain12"),
                              serial_options());
  std::atomic<bool> stop{false};
  std::thread writer([&store, &stop] {
    for (int i = 0; i < 12 && !stop.load(); ++i) {
      store.mutate([i](timing::Session& s) {
        s.set_drive_resistance("g2", 600.0 + 30.0 * i);
      });
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> cancellers;
  for (int t = 0; t < 3; ++t) {
    cancellers.emplace_back([&store] {
      for (int i = 0; i < 8; ++i) {
        core::CancelToken token;
        token.set_budget(1);  // guaranteed to trip on any cold analysis
        const std::shared_ptr<const timing::Snapshot> snap =
            store.current();
        try {
          snap->report(&token);
        } catch (const core::DiagnosticError& e) {
          EXPECT_EQ(e.diagnostic().code, core::DiagCode::BudgetExceeded);
        }
      }
    });
  }
  for (std::thread& t : cancellers) t.join();
  stop.store(true);
  writer.join();

  // After all that cancellation the final snapshot still answers, and
  // bit-identically to a cold store holding the same design.
  const std::shared_ptr<const timing::Snapshot> survivor = store.current();
  const std::string warm = report_fingerprint(*survivor);
  timing::SnapshotStore cold(survivor->design(), serial_options());
  EXPECT_EQ(warm, report_fingerprint(*cold.current()))
      << "cancellation corrupted the shared stage cache";
}

}  // namespace
}  // namespace awesim
