#include "federation/link_index.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace alex::fed {
namespace {

std::vector<std::string> Iris(const LinkIndex& index,
                              const std::vector<LinkIndex::IriId>& ids) {
  std::vector<std::string> out;
  for (LinkIndex::IriId id : ids) out.push_back(index.IriOf(id));
  return out;
}

std::vector<std::string> Rights(const LinkIndex& index,
                                const std::string& left_iri) {
  return Iris(index, index.RightIdsFor(index.IdOf(left_iri)));
}

std::vector<std::string> Lefts(const LinkIndex& index,
                               const std::string& right_iri) {
  return Iris(index, index.LeftIdsFor(index.IdOf(right_iri)));
}

TEST(LinkIndexTest, AddAndContains) {
  LinkIndex index;
  EXPECT_TRUE(index.Add("http://a/1", "http://b/1"));
  EXPECT_TRUE(index.Contains("http://a/1", "http://b/1"));
  EXPECT_FALSE(index.Contains("http://b/1", "http://a/1"));  // Directional.
  EXPECT_EQ(index.size(), 1u);
}

TEST(LinkIndexTest, DuplicateAddIgnored) {
  LinkIndex index;
  EXPECT_TRUE(index.Add("a", "b"));
  EXPECT_FALSE(index.Add("a", "b"));
  EXPECT_EQ(index.size(), 1u);
}

TEST(LinkIndexTest, BidirectionalLookup) {
  LinkIndex index;
  index.Add("a1", "b1");
  index.Add("a1", "b2");
  index.Add("a2", "b1");
  EXPECT_EQ(Rights(index, "a1"), (std::vector<std::string>{"b1", "b2"}));
  EXPECT_EQ(Lefts(index, "b1"), (std::vector<std::string>{"a1", "a2"}));
  EXPECT_TRUE(Rights(index, "zz").empty());
  EXPECT_TRUE(Lefts(index, "zz").empty());
}

TEST(LinkIndexTest, Remove) {
  LinkIndex index;
  index.Add("a", "b");
  index.Add("a", "c");
  EXPECT_TRUE(index.Remove("a", "b"));
  EXPECT_FALSE(index.Contains("a", "b"));
  EXPECT_TRUE(index.Contains("a", "c"));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(Lefts(index, "b").empty());
  EXPECT_FALSE(index.Remove("a", "b"));  // Already gone.
  EXPECT_FALSE(index.Remove("zz", "b"));
}

TEST(LinkIndexTest, RemoveLastCleansBothDirections) {
  LinkIndex index;
  index.Add("a", "b");
  index.Remove("a", "b");
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(Rights(index, "a").empty());
  EXPECT_TRUE(index.AllLinks().empty());
}

TEST(LinkIndexTest, AllLinksSorted) {
  LinkIndex index;
  index.Add("b", "y");
  index.Add("a", "z");
  index.Add("a", "x");
  auto links = index.AllLinks();
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(links[0], (SameAsLink{"a", "x"}));
  EXPECT_EQ(links[1], (SameAsLink{"a", "z"}));
  EXPECT_EQ(links[2], (SameAsLink{"b", "y"}));
}

}  // namespace
}  // namespace alex::fed
