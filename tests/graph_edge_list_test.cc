// Tests for EdgeList: canonicalization, simplification, text I/O and
// failure injection on malformed input.

#include "graph/edge_list.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "graph/types.h"

namespace gps {
namespace {

TEST(EdgeTypesTest, CanonicalOrdersEndpoints) {
  EXPECT_EQ(MakeEdge(5, 2), (Edge{2, 5}));
  EXPECT_EQ(MakeEdge(2, 5), (Edge{2, 5}));
  EXPECT_TRUE((Edge{3, 3}).IsSelfLoop());
  EXPECT_FALSE((Edge{3, 4}).IsSelfLoop());
}

TEST(EdgeTypesTest, EdgeKeyRoundTrip) {
  const Edge e = MakeEdge(123456, 789);
  EXPECT_EQ(EdgeFromKey(EdgeKey(e)), e);
  // Key is orientation-independent.
  EXPECT_EQ(EdgeKey(Edge{789, 123456}), EdgeKey(Edge{123456, 789}));
}

TEST(EdgeTypesTest, EdgeKeysAreDistinct) {
  EXPECT_NE(EdgeKey(MakeEdge(1, 2)), EdgeKey(MakeEdge(1, 3)));
  EXPECT_NE(EdgeKey(MakeEdge(1, 2)), EdgeKey(MakeEdge(2, 3)));
}

TEST(EdgeListTest, AddTracksNodeBound) {
  EdgeList list;
  EXPECT_EQ(list.NumNodes(), 0u);
  list.Add(3, 7);
  EXPECT_EQ(list.NumNodes(), 8u);
  list.Add(10, 2);
  EXPECT_EQ(list.NumNodes(), 11u);
  EXPECT_EQ(list.NumEdges(), 2u);
}

TEST(EdgeListTest, SimplifyRemovesLoopsAndDuplicates) {
  EdgeList list;
  list.Add(1, 2);
  list.Add(2, 1);  // duplicate (reversed)
  list.Add(1, 2);  // duplicate
  list.Add(3, 3);  // self loop
  list.Add(2, 3);
  const size_t removed = list.Simplify();
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(list.NumEdges(), 2u);
  for (const Edge& e : list.Edges()) EXPECT_LT(e.u, e.v);
}

TEST(EdgeListTest, SimplifyIdempotent) {
  EdgeList list;
  list.Add(1, 2);
  list.Add(4, 3);
  list.Simplify();
  EXPECT_EQ(list.Simplify(), 0u);
}

TEST(EdgeListTest, CountTouchedNodes) {
  EdgeList list;
  list.Add(0, 5);
  list.Add(5, 9);
  EXPECT_EQ(list.CountTouchedNodes(), 3u);
  EXPECT_EQ(list.NumNodes(), 10u);  // id bound, not touched count
}

TEST(EdgeListTest, ClearResets) {
  EdgeList list;
  list.Add(1, 2);
  list.Clear();
  EXPECT_EQ(list.NumEdges(), 0u);
  EXPECT_EQ(list.NumNodes(), 0u);
}

TEST(EdgeListTest, FromTextParsesEdgesAndComments) {
  auto result = EdgeList::FromText(
      "# comment line\n"
      "% matrix-market comment\n"
      "0 1\n"
      "  2   3  \n"
      "\n"
      "4\t5\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumEdges(), 3u);
  EXPECT_EQ(result->Edges()[0], MakeEdge(0, 1));
  EXPECT_EQ(result->Edges()[1], MakeEdge(2, 3));
  EXPECT_EQ(result->Edges()[2], MakeEdge(4, 5));
}

TEST(EdgeListTest, FromTextToleratesCrlfAndMissingFinalNewline) {
  auto result = EdgeList::FromText("0 1\r\n2 3\r\n4 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumEdges(), 3u);
  EXPECT_EQ(result->Edges()[1], MakeEdge(2, 3));
  EXPECT_EQ(result->Edges()[2], MakeEdge(4, 5));
}

// ---- Strictness matrix: anything after the two ids is a refusal ----------

TEST(EdgeListTest, FromTextRejectsTrailingJunk) {
  auto result = EdgeList::FromText("0 1\n1 2 garbage\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("trailing junk"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(result.status().message().find("'1 2 garbage'"),
            std::string::npos);
}

TEST(EdgeListTest, FromTextRejectsWeightColumn) {
  // A weighted edge list fed to the unweighted parser used to silently
  // drop the weights; now it is a named refusal.
  auto result = EdgeList::FromText("1 2 0.5\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("trailing junk"),
            std::string::npos);
}

TEST(EdgeListTest, FromTextRejectsThirdNodeId) {
  auto result = EdgeList::FromText("7 8 9\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("trailing junk"),
            std::string::npos);
}

TEST(EdgeListTest, FromTextRejectsCommentAfterEdge) {
  auto result = EdgeList::FromText("1 2 # inline comment\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("trailing junk"),
            std::string::npos);
}

TEST(EdgeListTest, FromTextRejectsJunkFusedToId) {
  // "12abc" must not parse as 12: after the digits the parser requires
  // blank or end of line.
  auto result = EdgeList::FromText("12abc 3\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("malformed edge"),
            std::string::npos);
}

TEST(EdgeListTest, FromTextAcceptsTrailingBlanksOnly) {
  auto result = EdgeList::FromText("1 2 \t \n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumEdges(), 1u);
}

TEST(EdgeListTest, FromTextTruncatesEchoedLineTo80Chars) {
  // A pathological multi-kilobyte line must not balloon the error text:
  // the echo is capped at 80 characters plus "...".
  const std::string junk(5000, 'x');
  auto result = EdgeList::FromText("1 2 " + junk + "\n");
  ASSERT_FALSE(result.ok());
  const std::string& message = result.status().message();
  EXPECT_LT(message.size(), 200u);
  EXPECT_NE(message.find("..."), std::string::npos);
  EXPECT_NE(message.find("trailing junk"), std::string::npos);
}

TEST(EdgeListTest, LoadAndFromTextReportIdenticalErrors) {
  // Load parses the mmap'd bytes with the same parser as FromText; the
  // error strings (message, line number, echo) must match exactly.
  const std::string text = "0 1\n# ok\n5 6 junk here\n";
  const std::string path =
      testing::TempDir() + "/gps_edge_list_err_test.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  auto from_text = EdgeList::FromText(text);
  auto from_load = EdgeList::Load(path);
  ASSERT_FALSE(from_text.ok());
  ASSERT_FALSE(from_load.ok());
  EXPECT_EQ(from_text.status().code(), from_load.status().code());
  EXPECT_EQ(from_text.status().message(), from_load.status().message());
  std::remove(path.c_str());
}

TEST(EdgeListTest, LoadRejectsDirectoryByName) {
  auto result = EdgeList::Load(testing::TempDir());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("is a directory"),
            std::string::npos);
}

TEST(EdgeListTest, FromTextRejectsMalformedLine) {
  auto result = EdgeList::FromText("0 1\nnot numbers\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(EdgeListTest, FromTextRejectsMissingEndpoint) {
  auto result = EdgeList::FromText("7\n");
  ASSERT_FALSE(result.ok());
}

TEST(EdgeListTest, FromTextRejectsNegativeIds) {
  auto result = EdgeList::FromText("-1 4\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(EdgeListTest, FromTextRejectsOverflowingIds) {
  auto result = EdgeList::FromText("4294967295 1\n");  // == kInvalidNode
  ASSERT_FALSE(result.ok());
}

TEST(EdgeListTest, SaveLoadRoundTrip) {
  EdgeList list;
  list.Add(0, 1);
  list.Add(1, 2);
  list.Add(0, 2);
  const std::string path = testing::TempDir() + "/gps_edge_list_test.txt";
  ASSERT_TRUE(list.Save(path).ok());
  auto loaded = EdgeList::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumEdges(), 3u);
  EXPECT_EQ(loaded->Edges()[0], list.Edges()[0]);
  std::remove(path.c_str());
}

TEST(EdgeListTest, FailedSaveKeepsPreviousFile) {
  // Save stages "<path>.tmp" and renames it over the target. With a
  // directory squatting on the temp name the save fails, naming the temp
  // file, and the previous file keeps its bytes.
  EdgeList list;
  list.Add(0, 1);
  list.Add(2, 4000000000u);
  const std::string path = testing::TempDir() + "/gps_edge_list_staged.txt";
  const std::string old_bytes = "7 8\n";
  std::ofstream(path, std::ios::binary) << old_bytes;
  std::filesystem::remove_all(path + ".tmp");
  ASSERT_TRUE(std::filesystem::create_directory(path + ".tmp"));
  const Status s = list.Save(path);
  std::filesystem::remove_all(path + ".tmp");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.ToString().find(path + ".tmp"), std::string::npos)
      << s.ToString();
  const auto read = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(read(), old_bytes);

  // A successful save replaces the file — the same "u v" lines as ever —
  // and leaves no temp file behind.
  ASSERT_TRUE(list.Save(path).ok());
  EXPECT_EQ(read(), "0 1\n2 4000000000\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(EdgeListTest, LoadMissingFileFails) {
  auto result = EdgeList::Load("/nonexistent/path/graph.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace gps
