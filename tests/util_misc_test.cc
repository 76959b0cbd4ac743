// Tests for Status/Result, OnlineStats, timers, text formatting, and
// staged (temp + fsync + rename) file writes.

#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "util/staged_file.h"
#include "util/status.h"
#include "util/table.h"
#include "util/text_writer.h"
#include "util/timer.h"
#include "util/welford.h"

namespace gps {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad m");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad m");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad m");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kIoError, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  EXPECT_EQ(*r, 5);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(3));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 3);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.SampleVariance(), 0.0);
}

TEST(OnlineStatsTest, KnownValues) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.Count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.PopulationVariance(), 4.0);
  EXPECT_NEAR(s.SampleVariance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.Min(), 2.0);
  EXPECT_EQ(s.Max(), 9.0);
}

TEST(OnlineStatsTest, MergeEqualsConcatenation) {
  OnlineStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 - 5.0;
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), all.Count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-12);
  EXPECT_NEAR(a.SampleVariance(), all.SampleVariance(), 1e-9);
  EXPECT_EQ(a.Min(), all.Min());
  EXPECT_EQ(a.Max(), all.Max());
}

TEST(OnlineStatsTest, MergeWithEmpty) {
  OnlineStats a, empty;
  a.Add(1.0);
  a.Merge(empty);
  EXPECT_EQ(a.Count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.Count(), 1u);
  EXPECT_EQ(empty.Mean(), 1.0);
}

TEST(WallTimerTest, MeasuresElapsedTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
  EXPECT_GT(t.ElapsedMicros(), 0.0);
}

TEST(HumanCountTest, Suffixes) {
  EXPECT_EQ(HumanCount(0), "0");
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(1000), "1.0K");
  EXPECT_EQ(HumanCount(56300000), "56.3M");
  EXPECT_EQ(HumanCount(4.9e9), "4.9B");
  EXPECT_EQ(HumanCount(1.8e12), "1.8T");
  EXPECT_EQ(HumanCount(-2500000), "-2.5M");
}

TEST(FormatDoubleTest, TrimsZeros) {
  EXPECT_EQ(FormatDouble(0.0036), "0.0036");
  EXPECT_EQ(FormatDouble(0.2160), "0.216");
  EXPECT_EQ(FormatDouble(1.0), "1");
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(2.5, 1), "2.5");
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"graph", "ARE"});
  t.AddRow({"soc-orkut-sim", "0.0028"});
  t.AddSeparator();
  t.AddRow({"x", "1"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("graph"), std::string::npos);
  EXPECT_NE(s.find("soc-orkut-sim"), std::string::npos);
  EXPECT_NE(s.find("-+-"), std::string::npos);
  // Header row and data rows must have equal width.
  const size_t first_newline = s.find('\n');
  const size_t second_newline = s.find('\n', first_newline + 1);
  EXPECT_EQ(first_newline, second_newline - first_newline - 1);
}

/// A pre-cleaned path unique to the current test (ctest runs suites in
/// parallel processes).
std::string StagedTarget() {
  const std::string path =
      testing::TempDir() + "/staged_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::remove_all(path);
  std::filesystem::remove_all(path + ".tmp");
  return path;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(StagedFileTest, CommitReplacesTargetAndLeavesNoTemp) {
  const std::string target = StagedTarget();
  std::ofstream(target) << "old";
  Result<StagedFile> file = StagedFile::Create(target);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE(file->Write("new ").ok());
  ASSERT_TRUE(file->Write("bytes").ok());
  EXPECT_EQ(ReadAll(target), "old");  // untouched until published
  ASSERT_TRUE(file->Commit().ok());
  EXPECT_EQ(ReadAll(target), "new bytes");
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
  std::filesystem::remove(target);
}

TEST(StagedFileTest, SinkErrorMidWriteKeepsOldContentsAndNoTemp) {
  const std::string target = StagedTarget();
  std::ofstream(target) << "old checkpoint";
  {
    Result<StagedFile> file = StagedFile::Create(target);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    int chunks = 0;
    TextWriter out([&](std::string_view chunk) {
      if (++chunks == 2) return Status::IoError("device full");
      return file->Write(chunk);
    });
    for (int i = 0; i < 50000; ++i) out.Double(i * 0.1).Char('\n');
    const Status s = out.Finish();
    EXPECT_EQ(s.code(), StatusCode::kIoError);
    EXPECT_EQ(s.message(), "device full");
    EXPECT_EQ(chunks, 2);  // the sink is not called after its error
    EXPECT_TRUE(std::filesystem::exists(target + ".tmp"));
  }  // destroyed unpublished: the temp file goes with it
  EXPECT_EQ(ReadAll(target), "old checkpoint");
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
  std::filesystem::remove(target);
}

TEST(StagedFileTest, RefusesTargetThatIsNotARegularFile) {
  // Publish() renames over its target, so a FIFO or a device node there
  // would be replaced by a regular file. Create refuses such a target by
  // name, stages nothing, and the target keeps its type.
  const engine_test::ScopedTempDir dir("staged", "targets");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const std::string fifo = (dir / "fifo").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const std::string subdir = (dir / "subdir").string();
  ASSERT_TRUE(std::filesystem::create_directory(subdir));
  for (const std::string& target : {fifo, subdir}) {
    Result<StagedFile> file = StagedFile::Create(target);
    ASSERT_FALSE(file.ok()) << target;
    EXPECT_EQ(file.status().code(), StatusCode::kIoError);
    EXPECT_EQ(file.status().message(),
              "cannot replace '" + target + "': not a regular file");
    EXPECT_FALSE(std::filesystem::exists(target + ".tmp")) << target;
  }
  EXPECT_TRUE(std::filesystem::is_fifo(fifo));
  EXPECT_TRUE(std::filesystem::is_directory(subdir));
  EXPECT_TRUE(std::filesystem::is_empty(subdir));
}

TEST(StagedFileTest, LinkAtTheTempNameIsReplacedNotWrittenThrough) {
  // Create removes whatever squats on "<target>.tmp" and creates the name
  // anew. A symlink there is never followed (not even a dangling one,
  // which would create its target), and a hard link's shared file is
  // never truncated: the file behind the link keeps its bytes, and the
  // published target is a regular file holding the new ones.
  const engine_test::ScopedTempDir dir("staged", "links");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const std::string victim = (dir / "victim.txt").string();
  std::ofstream(victim) << "victim bytes";
  const std::string missing = (dir / "missing.txt").string();
  const auto publish = [&](const std::string& target) {
    SCOPED_TRACE(target);
    Result<StagedFile> file = StagedFile::Create(target);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE(file->Write("new bytes").ok());
    ASSERT_TRUE(file->Commit().ok());
    EXPECT_EQ(ReadAll(victim), "victim bytes");
    EXPECT_FALSE(std::filesystem::exists(missing));
    EXPECT_TRUE(std::filesystem::is_regular_file(
        std::filesystem::symlink_status(target)));
    EXPECT_EQ(ReadAll(target), "new bytes");
    EXPECT_FALSE(std::filesystem::exists(
        std::filesystem::symlink_status(target + ".tmp")));
  };
  const std::string symlinked = (dir / "symlinked").string();
  std::filesystem::create_symlink(victim, symlinked + ".tmp");
  publish(symlinked);
  const std::string dangling = (dir / "dangling").string();
  std::filesystem::create_symlink(missing, dangling + ".tmp");
  publish(dangling);
  const std::string hard_linked = (dir / "hard_linked").string();
  std::filesystem::create_hard_link(victim, hard_linked + ".tmp");
  publish(hard_linked);
  EXPECT_EQ(std::filesystem::hard_link_count(victim), 1u);
}

}  // namespace
}  // namespace gps
