// Tests for the epoch-versioned snapshot view over fed::LinkIndex — the
// link service's concurrency substrate: snapshot isolation (queries keep
// their Acquire()d view across staging and commits), epoch semantics (the
// published epoch moves only at effective commits, never per staged op),
// probe-cache coherence through a CachingEndpoint EpochFn, checkpoint
// round-trips, equivalence with a plain LinkIndex over random commit
// sequences (through both the recycled-buffer and the copy path), and a
// reader/committer stress test that runs clean under ThreadSanitizer (the
// "sanitize" label routes it through the TSan CI job).

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "federation/endpoint.h"
#include "federation/probe_cache.h"
#include "federation/versioned_link_index.h"
#include "obs/metrics.h"
#include "rdf/dataset.h"

namespace alex::fed {
namespace {

std::string L(int i) { return "http://left/e" + std::to_string(i); }
std::string R(int i) { return "http://right/e" + std::to_string(i); }

std::string StateBytes(const LinkIndex& index) {
  BinaryWriter w;
  index.SaveState(&w);
  return std::string(w.buffer());
}

std::string StateBytes(const VersionedLinkIndex& links) {
  BinaryWriter w;
  links.SaveState(&w);
  return std::string(w.buffer());
}

uint64_t SnapshotCopies() {
  return obs::MetricsRegistry::Global()
      .counter("fed.link_snapshot_copies")
      .Value();
}

TEST(VersionedLinkIndexTest, SeedsFirstSnapshotFromInitialIndex) {
  LinkIndex seed;
  seed.Add(L(1), R(1));
  seed.Add(L(2), R(2));
  VersionedLinkIndex links(std::move(seed));

  std::shared_ptr<const LinkIndex> snap = links.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->size(), 2u);
  EXPECT_TRUE(snap->Contains(L(1), R(1)));
  EXPECT_EQ(links.published_epoch(), snap->epoch());
  EXPECT_EQ(links.commit_sequence(), 0u);
}

TEST(VersionedLinkIndexTest, StagedOpsAreInvisibleUntilCommit) {
  LinkIndex seed;
  seed.Add(L(1), R(1));
  VersionedLinkIndex links(std::move(seed));
  const uint64_t epoch_before = links.published_epoch();

  std::shared_ptr<const LinkIndex> old_snap = links.Acquire();
  links.StageAdd(L(2), R(2));
  links.StageRemove(L(1), R(1));
  EXPECT_EQ(links.staged_ops(), 2u);

  // Nothing published yet: fresh Acquire() still sees the old state and the
  // epoch has not moved, so probe caches keep their entries.
  EXPECT_EQ(links.Acquire()->size(), 1u);
  EXPECT_FALSE(links.Acquire()->Contains(L(2), R(2)));
  EXPECT_EQ(links.published_epoch(), epoch_before);

  const CommitResult result = links.Commit();
  EXPECT_EQ(result.added, 1u);
  EXPECT_EQ(result.removed, 1u);
  EXPECT_EQ(result.sequence, 1u);
  EXPECT_EQ(links.staged_ops(), 0u);
  EXPECT_NE(links.published_epoch(), epoch_before);

  // The new snapshot has the committed state; the old Acquire()d snapshot
  // is immutable and still serves the pre-commit view.
  std::shared_ptr<const LinkIndex> new_snap = links.Acquire();
  EXPECT_TRUE(new_snap->Contains(L(2), R(2)));
  EXPECT_FALSE(new_snap->Contains(L(1), R(1)));
  EXPECT_TRUE(old_snap->Contains(L(1), R(1)));
  EXPECT_FALSE(old_snap->Contains(L(2), R(2)));
}

TEST(VersionedLinkIndexTest, NoOpCommitBumpsSequenceButKeepsEpoch) {
  LinkIndex seed;
  seed.Add(L(1), R(1));
  VersionedLinkIndex links(std::move(seed));
  const uint64_t epoch_before = links.published_epoch();

  links.StageAdd(L(1), R(1));     // Duplicate: no effect on the set.
  links.StageRemove(L(9), R(9));  // Absent: no effect either.
  const CommitResult result = links.Commit();
  EXPECT_EQ(result.added, 0u);
  EXPECT_EQ(result.removed, 0u);
  EXPECT_EQ(result.sequence, 1u);
  EXPECT_EQ(links.commit_sequence(), 1u);
  // An episode that changed nothing must not flush probe caches.
  EXPECT_EQ(links.published_epoch(), epoch_before);
}

TEST(VersionedLinkIndexTest, ResetReplacesStateAndDropsStagedOps) {
  VersionedLinkIndex links;
  links.StageAdd(L(1), R(1));
  ASSERT_EQ(links.staged_ops(), 1u);

  LinkIndex replacement;
  replacement.Add(L(7), R(7));
  links.Reset(std::move(replacement));
  EXPECT_EQ(links.staged_ops(), 0u);
  EXPECT_TRUE(links.Acquire()->Contains(L(7), R(7)));

  // The dropped staged op must not resurface on the next commit.
  const CommitResult result = links.Commit();
  EXPECT_EQ(result.added, 0u);
  EXPECT_FALSE(links.Acquire()->Contains(L(1), R(1)));
}

TEST(VersionedLinkIndexTest, SaveLoadRoundTripsMasterAndEpoch) {
  LinkIndex seed;
  seed.Add(L(1), R(1));
  VersionedLinkIndex links(std::move(seed));
  links.StageAdd(L(2), R(2));
  links.Commit();

  BinaryWriter w;
  links.SaveState(&w);
  const std::string blob(w.buffer());

  VersionedLinkIndex restored;
  BinaryReader r(blob);
  ASSERT_TRUE(restored.LoadState(&r).ok());
  EXPECT_EQ(restored.Acquire()->size(), 2u);
  EXPECT_TRUE(restored.Acquire()->Contains(L(2), R(2)));
  // Epoch survives the round trip, so caches keyed on it stay coherent
  // across a restart.
  EXPECT_EQ(restored.published_epoch(), links.published_epoch());

  // Corrupt payloads are rejected without touching the index.
  VersionedLinkIndex untouched;
  std::string corrupt = blob.substr(0, blob.size() / 2);
  BinaryReader bad(corrupt);
  EXPECT_FALSE(untouched.LoadState(&bad).ok());
  EXPECT_EQ(untouched.Acquire()->size(), 0u);
}

// A CachingEndpoint whose EpochFn watches published_epoch() must keep its
// entries across staging and flush exactly once per effective commit.
TEST(VersionedLinkIndexTest, ProbeCacheFlushesOncePerEffectiveCommit) {
  rdf::Dataset data("remote");
  data.AddLiteralTriple("http://r/acme", "http://r/label",
                        rdf::Term::Literal("Acme"));
  Endpoint inner(&data);

  VersionedLinkIndex links;
  CachingEndpoint cached(&inner, ProbeCacheConfig(),
                         [&links] { return links.published_epoch(); });

  const rdf::Term subject = rdf::Term::Iri("http://r/acme");
  PatternProbe probe;
  probe.subject = &subject;
  auto run_probe = [&] {
    const Status st = cached.Probe(
        probe, CallOptions(),
        [](const rdf::Term*, const rdf::Term*, const rdf::Term*) {
          return true;
        });
    ASSERT_TRUE(st.ok()) << st;
  };

  run_probe();  // Cold: miss.
  run_probe();  // Hit.
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.hits(), 1u);

  // Staging alone must not invalidate: queries between episode boundaries
  // keep their cached probes.
  links.StageAdd(L(1), R(1));
  run_probe();
  EXPECT_EQ(cached.hits(), 2u);
  EXPECT_EQ(cached.misses(), 1u);

  // The commit publishes a new epoch: exactly one more miss, then hits.
  links.Commit();
  run_probe();
  run_probe();
  EXPECT_EQ(cached.misses(), 2u);
  EXPECT_EQ(cached.hits(), 3u);

  // A no-op commit keeps the epoch: no flush.
  links.StageRemove(L(99), R(99));
  links.Commit();
  run_probe();
  EXPECT_EQ(cached.misses(), 2u);
  EXPECT_EQ(cached.hits(), 4u);
}

// Random commit sequences against a plain LinkIndex fed the same operations:
// adds, removes, re-adds of removed links, duplicate adds, absent removes,
// no-op commits and Reset()s. Some published snapshots are held across 0, 1
// or 3 later commits, which forces the copy path whenever the snapshot just
// retired is still held; the others let the retired buffer be recycled.
// After every commit the versioned index must serialize to the plain
// index's bytes (IRI interning, co-referent order, epoch, size), and every
// held snapshot must still show its own epoch and links.
TEST(VersionedLinkIndexTest, RandomCommitsMatchPlainIndexOnBothPaths) {
  constexpr int kIds = 10;
  constexpr int kCommits = 80;
  uint64_t commits = 0;
  const uint64_t copies_before = SnapshotCopies();

  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    LinkIndex plain;
    for (int i = 0; i < 3; ++i) plain.Add(L(i), R(i));
    VersionedLinkIndex links{LinkIndex(plain)};

    struct Held {
      std::shared_ptr<const LinkIndex> snapshot;
      std::string bytes;
      uint64_t epoch = 0;
      int commits_left = 0;
    };
    std::vector<Held> held;

    for (int c = 0; c < kCommits; ++c) {
      SCOPED_TRACE(c);
      if (rng.Bernoulli(0.05)) {
        LinkIndex fresh;
        const int n = static_cast<int>(rng.UniformInt(4));
        for (int i = 0; i < n; ++i) {
          fresh.Add(L(static_cast<int>(rng.UniformInt(kIds))),
                    R(static_cast<int>(rng.UniformInt(kIds))));
        }
        plain = fresh;
        links.Reset(std::move(fresh));
        ASSERT_EQ(StateBytes(links), StateBytes(plain));
      }

      // 0..8 ops over a small id space, so duplicates, absent removes and
      // re-adds are common; zero ops is a no-op commit.
      const int ops = static_cast<int>(rng.UniformInt(9));
      for (int i = 0; i < ops; ++i) {
        const int l = static_cast<int>(rng.UniformInt(kIds));
        const int r = static_cast<int>(rng.UniformInt(kIds));
        if (rng.Bernoulli(0.6)) {
          plain.Add(L(l), R(r));
          links.StageAdd(L(l), R(r));
        } else {
          plain.Remove(L(l), R(r));
          links.StageRemove(L(l), R(r));
        }
      }
      links.Commit();
      ++commits;
      ASSERT_EQ(StateBytes(links), StateBytes(plain));
      ASSERT_EQ(links.published_epoch(), plain.epoch());
      ASSERT_EQ(links.size(), plain.size());

      for (Held& h : held) {
        ASSERT_EQ(h.snapshot->epoch(), h.epoch);
        ASSERT_EQ(StateBytes(*h.snapshot), h.bytes);
        --h.commits_left;
      }
      held.erase(std::remove_if(held.begin(), held.end(),
                                [](const Held& h) {
                                  return h.commits_left == 0;
                                }),
                 held.end());

      // Held across 0 commits means acquired and dropped right away.
      constexpr int kHoldFor[] = {0, 1, 3};
      const int hold = kHoldFor[rng.UniformInt(3)];
      Held h{links.Acquire(), StateBytes(plain), plain.epoch(), hold};
      if (hold > 0) held.push_back(std::move(h));
    }
  }

  // Both paths ran: some commits copied, most recycled.
  const uint64_t copies = SnapshotCopies() - copies_before;
  EXPECT_GT(copies, 0u);
  EXPECT_LT(copies, commits);
}

// Readers acquire snapshots and scan them while a committer publishes new
// epochs underneath. Links are committed in index order, so every snapshot
// must satisfy the prefix invariant: if link i is present, every link j < i
// is present too. The commit loop waits until every reader has read one
// snapshot: commits are O(staged ops), and without the gate all of them can
// land before the first reader is scheduled. Run under TSan via the
// "sanitize" label.
TEST(VersionedLinkIndexTest, ConcurrentReadersSeeConsistentSnapshots) {
  constexpr int kCommits = 40;
  constexpr int kLinksPerCommit = 5;
  constexpr int kReaders = 4;

  VersionedLinkIndex links;
  std::atomic<bool> done{false};
  std::atomic<int> readers_started{0};
  std::atomic<uint64_t> snapshots_read{0};
  std::atomic<bool> violation{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool started = false;
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const LinkIndex> snap = links.Acquire();
        const size_t n = snap->size();
        if (n % kLinksPerCommit != 0) violation.store(true);
        // Snapshot = some prefix of the commit order, atomically.
        const int present = static_cast<int>(n);
        if (present > 0 && (!snap->Contains(L(0), R(0)) ||
                            !snap->Contains(L(present - 1), R(present - 1)))) {
          violation.store(true);
        }
        if (present < kCommits * kLinksPerCommit &&
            snap->Contains(L(present), R(present))) {
          violation.store(true);
        }
        snapshots_read.fetch_add(1, std::memory_order_relaxed);
        if (!started) {
          started = true;
          readers_started.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  while (readers_started.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  for (int c = 0; c < kCommits; ++c) {
    for (int i = 0; i < kLinksPerCommit; ++i) {
      const int id = c * kLinksPerCommit + i;
      links.StageAdd(L(id), R(id));
    }
    links.Commit();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(violation.load());
  EXPECT_GT(snapshots_read.load(), 0u);
  EXPECT_EQ(links.Acquire()->size(),
            static_cast<size_t>(kCommits * kLinksPerCommit));
  EXPECT_EQ(links.commit_sequence(), static_cast<uint64_t>(kCommits));
}

}  // namespace
}  // namespace alex::fed
