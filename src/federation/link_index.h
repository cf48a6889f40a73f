#ifndef ALEX_FEDERATION_LINK_INDEX_H_
#define ALEX_FEDERATION_LINK_INDEX_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "rdf/term.h"

namespace alex::fed {

/// An owl:sameAs link between an entity of the left dataset and an entity of
/// the right dataset, identified by IRI.
struct SameAsLink {
  std::string left_iri;
  std::string right_iri;

  friend bool operator==(const SameAsLink& a, const SameAsLink& b) {
    return a.left_iri == b.left_iri && a.right_iri == b.right_iri;
  }
};

/// Bidirectional index over a set of owl:sameAs links between two datasets.
///
/// This is the artifact ALEX maintains: the federated engine reads it to
/// answer cross-dataset queries, and ALEX mutates it as feedback arrives
/// (adding explored links, removing rejected ones).
///
/// Every IRI that ever appeared in a link gets a dense IriId with a stable
/// `rdf::Term` behind it, and adjacency is id -> id, with co-referents in
/// insertion order. The federated engine expands sameAs co-referents
/// through this view, so the innermost join loop allocates no strings.
///
/// `epoch()` increments on every successful Add/Remove, so it names a
/// version of the link set; a VersionedLinkIndex snapshot carries the epoch
/// it was published at. Probe caches do not need it: a probe runs after
/// sameAs expansion, so its rows depend on the endpoint's data only.
class LinkIndex {
 public:
  /// Dense id of an IRI interned by this index. Ids are never reused;
  /// TermOf()/IriOf() references stay valid across Add/Remove.
  using IriId = uint32_t;
  static constexpr IriId kInvalidIriId = UINT32_MAX;

  LinkIndex() = default;

  /// Adds a link; duplicate adds are ignored. Returns true if added.
  bool Add(const std::string& left_iri, const std::string& right_iri);

  /// Removes a link if present. Returns true if removed.
  bool Remove(const std::string& left_iri, const std::string& right_iri);

  bool Contains(const std::string& left_iri,
                const std::string& right_iri) const;

  /// Id of an IRI seen in some link (past or present), or kInvalidIriId.
  IriId IdOf(const std::string& iri) const;

  /// The interned IRI as a stable Term (always TermKind::kIri).
  const rdf::Term& TermOf(IriId id) const { return iri_terms_[id]; }

  /// The interned IRI string.
  const std::string& IriOf(IriId id) const { return iri_terms_[id].value; }

  /// Right-side co-referent ids of a left IRI id, in link insertion order.
  /// Empty for unknown/unlinked ids.
  const std::vector<IriId>& RightIdsFor(IriId left) const;

  /// Left-side co-referent ids of a right IRI id, in link insertion order.
  /// Empty for unknown/unlinked ids.
  const std::vector<IriId>& LeftIdsFor(IriId right) const;

  /// Mutation epoch: bumped by every successful Add/Remove. Caches of
  /// results derived from this index can compare epochs to decide
  /// staleness.
  uint64_t epoch() const { return epoch_; }

  /// Total number of links.
  size_t size() const { return size_; }

  /// Snapshot of all links, sorted by (left IRI, right IRI).
  std::vector<SameAsLink> AllLinks() const;

  /// Serializes the whole index — interned IRI table (in id order), both
  /// id-adjacency views with their per-key co-referent order, and the
  /// mutation epoch — so a restored index is bit-identical: same IriIds,
  /// same co-referent enumeration order, same epoch (probe caches keyed on
  /// the epoch stay coherent across a restart).
  void SaveState(BinaryWriter* w) const;

  /// Restores a snapshot saved by SaveState() into this index, replacing
  /// its contents. All-or-nothing: on a corrupt payload the index is left
  /// untouched.
  Status LoadState(BinaryReader* r);

 private:
  IriId InternIri(const std::string& iri);

  // iri_terms_ is a deque so TermOf references survive interning.
  std::unordered_map<std::string, IriId> iri_ids_;
  std::deque<rdf::Term> iri_terms_;
  std::unordered_map<IriId, std::vector<IriId>> left_ids_;
  std::unordered_map<IriId, std::vector<IriId>> right_ids_;

  uint64_t epoch_ = 0;
  size_t size_ = 0;
};

}  // namespace alex::fed

#endif  // ALEX_FEDERATION_LINK_INDEX_H_
