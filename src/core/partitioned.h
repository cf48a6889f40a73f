#ifndef ALEX_CORE_PARTITIONED_H_
#define ALEX_CORE_PARTITIONED_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "paris/paris.h"

namespace alex::core {

/// Equal-size partitioned ALEX (Section 6.2): the larger (left) dataset is
/// split round-robin — entity i belongs to partition i mod n — and each
/// partition owns an independent LinkSpace and AlexEngine pairing its left
/// entities with the whole right dataset. Partition link spaces are built
/// in parallel on a thread pool; feedback is routed to the partition that
/// owns the link's left entity.
class PartitionedAlex {
 public:
  /// Datasets are borrowed and must outlive this object.
  PartitionedAlex(const rdf::Dataset* left, const rdf::Dataset* right,
                  const AlexConfig& config);

  /// Builds every partition's link space (the preprocessing step). First
  /// constructs the shared right-dataset BlockingIndex and the per-dataset
  /// term-key / value caches once, then builds all partitions against them
  /// in parallel, each with its build temporaries in a per-partition arena.
  /// Returns per-partition build seconds (Section 7.3 reports the slowest);
  /// the shared-resource construction time is reported separately via
  /// shared_index_seconds().
  std::vector<double> Build();

  /// Wall seconds spent building the shared blocking index and caches in
  /// the last Build() call (0 before Build).
  double shared_index_seconds() const { return shared_index_seconds_; }

  /// Seeds candidates from an automatic linker's output.
  void InitializeCandidates(const std::vector<paris::ScoredLink>& links);
  void InitializeCandidates(const std::vector<PairKey>& links);

  /// Routes one feedback item to its partition's engine.
  void ProcessFeedback(const feedback::FeedbackItem& item);

  /// Routes a batch of feedback items to their partitions, in order, on the
  /// calling thread. Partitions are independent (Section 6.2: "feedback can
  /// be directed to all partitions"), so this equals processing each
  /// partition's items on its own.
  void ProcessFeedbackBatch(const std::vector<feedback::FeedbackItem>& items);

  /// Ends the episode on every partition, one after another on the calling
  /// thread (each engine's policy improvement is too small to be worth a
  /// pool task); returns aggregated stats.
  EngineEpisodeStats EndEpisode();

  /// An episode's aggregated stats plus the exact candidate-set delta it
  /// produced: the links it added and the links it removed, each sorted
  /// ascending. The engines journal their own candidate inserts and erases
  /// while the window is open, and the delta is each key's net change, so
  /// taking it costs O(changes), not O(candidates). The link service feeds
  /// it straight into the versioned link index's staging area, so an
  /// episode commit publishes precisely what changed.
  struct EpisodeCommit {
    EngineEpisodeStats stats;
    std::vector<PairKey> added;
    std::vector<PairKey> removed;
  };

  /// EndEpisode() with the delta of the episode-end step alone (policy
  /// improvement; feedback already routed).
  EpisodeCommit EndEpisodeWithDelta();

  /// One full service episode: routes `items` through the partitions, ends
  /// the episode, and returns the delta across BOTH steps — feedback
  /// processing mutates candidates directly (removal on rejection,
  /// exploration on approval), so a delta window opened only around
  /// EndEpisode() would miss nearly every change.
  EpisodeCommit CommitFeedbackBatch(
      const std::vector<feedback::FeedbackItem>& items);

  /// Union of all partitions' candidate sets.
  std::unordered_set<PairKey> Candidates() const;
  /// Same union as a vector in canonical order: partition-major, sorted
  /// within each partition. It is the engines' sorted slices concatenated
  /// on the calling thread. The order is a function of the candidate SET
  /// only, so a checkpoint-restored run samples feedback from the exact
  /// sequence the uninterrupted run would have seen.
  std::vector<PairKey> CandidateVector() const;
  size_t NumCandidates() const;

  size_t num_partitions() const { return engines_.size(); }
  size_t PartitionOf(rdf::EntityId left_entity) const {
    return left_entity % engines_.size();
  }
  const AlexEngine& engine(size_t partition) const {
    return *engines_[partition];
  }
  const LinkSpace& space(size_t partition) const {
    return *spaces_[partition];
  }

  /// Total distinct links ever added by exploration, across partitions.
  size_t TotalExploredLinks() const;

  /// Aggregated link-space stats (Figure 5 reports partition 0's).
  LinkSpace::BuildStats AggregatedSpaceStats() const;

  /// Serializes every partition engine's state plus the partition layout
  /// (count and left-entity total, for restore-time validation). Spaces are
  /// rebuilt, not serialized — see AlexEngine::SaveState.
  void SaveState(BinaryWriter* w) const;

  /// Restores a snapshot saved by SaveState() into this instance, which
  /// must have been constructed over the same datasets and config (and had
  /// Build() run). `format_version` is the checkpoint container version,
  /// forwarded to every partition engine's LoadState (the per-engine policy
  /// section layout depends on it). All-or-nothing across partitions: every
  /// engine payload is staged into a fresh engine first, and the live
  /// engines are only swapped out after the entire snapshot parsed cleanly.
  Status LoadState(BinaryReader* r,
                   uint32_t format_version = ckpt::kFormatVersion);

 private:
  ThreadPool* pool();
  /// Opens and closes an EpisodeCommit delta window on every engine.
  void BeginDelta();
  void TakeDelta(EpisodeCommit* commit);

  const rdf::Dataset* left_;
  const rdf::Dataset* right_;
  AlexConfig config_;
  std::vector<std::vector<rdf::EntityId>> partition_entities_;
  std::vector<std::unique_ptr<LinkSpace>> spaces_;
  std::vector<std::unique_ptr<AlexEngine>> engines_;
  /// Lazily created by the first parallel build or feedback batch.
  std::unique_ptr<ThreadPool> pool_;
  double shared_index_seconds_ = 0.0;
};

}  // namespace alex::core

#endif  // ALEX_CORE_PARTITIONED_H_
