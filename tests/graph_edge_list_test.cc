// Tests for EdgeList: canonicalization, simplification, text I/O (Load
// reads its file a buffer at a time and must agree with FromText across
// buffer boundaries), a file cut short while it is read, and failure
// injection on malformed input.

#include "graph/edge_list.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/types.h"
#include "util/input_file.h"

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

/// Appends "7 8" lines and one padding comment line so that `text` ends
/// exactly at byte `end`.
void PadTo(std::string* text, size_t end) {
  ASSERT_GE(end, text->size() + 2);
  while (end - text->size() > 64) *text += "7 8\n";
  *text += '#';
  text->append(end - text->size() - 1, ' ');
  *text += '\n';
}

TEST(EdgeListTest, LoadAndFromTextReportIdenticalErrors) {
  // Load runs FromText's parser over buffers it reads from the file; the
  // edges and the error strings (code, message, line number, echo) must
  // match exactly, also where a line straddles two reads.
  constexpr size_t kBuffer = kEdgeListReadBufferBytes;
  std::string straddling;  // longer than two read buffers
  PadTo(&straddling, kBuffer - 5);
  straddling += "12345 67890\n";  // a data line across the first boundary
  PadTo(&straddling, kBuffer + 1000);
  // A comment line longer than a whole buffer, across the second.
  straddling += "# ";
  straddling.append(kBuffer + 100, 'c');
  straddling += '\n';
  PadTo(&straddling, 3 * kBuffer - 4);
  straddling += "4 5\r\n";  // '\r' ends the third read, '\n' starts the fourth
  straddling += "9 10\n";
  std::string error_after_first_buffer = straddling;
  error_after_first_buffer.insert(
      error_after_first_buffer.find('\n', kBuffer + 200) + 1,
      "5 6 junk here\n");

  const std::vector<std::string> texts = {
      "0 1\n# ok\n5 6 junk here\n",
      straddling,
      error_after_first_buffer,
      straddling.substr(0, straddling.size() - 1),  // no final newline
      straddling + "11 x",  // an error on a last line without a newline
  };
  const std::string path =
      testing::TempDir() + "/gps_edge_list_err_test.txt";
  for (size_t i = 0; i < texts.size(); ++i) {
    SCOPED_TRACE("text " + std::to_string(i));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << texts[i];
    auto from_text = EdgeList::FromText(texts[i]);
    auto from_load = EdgeList::Load(path);
    EXPECT_EQ(from_text.status().code(), from_load.status().code());
    EXPECT_EQ(from_text.status().message(), from_load.status().message());
    if (from_text.ok() && from_load.ok()) {
      EXPECT_EQ(from_text->Edges(), from_load->Edges());
      EXPECT_EQ(from_text->NumNodes(), from_load->NumNodes());
    }
  }
  EXPECT_FALSE(EdgeList::FromText(texts[0]).ok());
  EXPECT_TRUE(EdgeList::FromText(texts[1]).ok());
  EXPECT_EQ(EdgeList::FromText(texts[1])->Edges().back(), (Edge{9, 10}));
  EXPECT_NE(EdgeList::FromText(texts[2]).status().message().find("junk"),
            std::string::npos);
  EXPECT_TRUE(EdgeList::FromText(texts[3]).ok());
  EXPECT_FALSE(EdgeList::FromText(texts[4]).ok());
  std::remove(path.c_str());
}

TEST(EdgeListTest, LoadReaderNamesAFileCutShortWhileRead) {
  // The reader Load uses, opened on a text file several pages long that
  // is then cut to 4096 bytes: a read past the new end is an IoError
  // naming the file, where it ended and its size at open.
  const std::string path = testing::TempDir() + "/gps_edge_list_cut.txt";
  std::string text;
  PadTo(&text, 5 * 4096);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  auto file = InputFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->size(), text.size());

  std::filesystem::resize_file(path, 4096);
  std::vector<char> buffer(1000);
  const std::string want =
      "'" + path +
      "' was cut short while being read: it ended at byte 4096 of the " +
      std::to_string(text.size()) + " it held when opened";
  for (const uint64_t offset : {uint64_t{3500}, uint64_t{8000}}) {
    const Status s = file->ReadAt(offset, buffer.data(), buffer.size());
    EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
    EXPECT_EQ(s.message(), want);
  }
  EXPECT_TRUE(file->ReadAt(3000, buffer.data(), buffer.size()).ok());
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
