// End-to-end tests for the gps_cli binary: every subcommand, checkpoint /
// resume round trips, and error paths. The binary path is injected by
// CMake via GPS_CLI_PATH.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialize.h"
#include "engine_test_util.h"

#ifndef GPS_CLI_PATH
#define GPS_CLI_PATH "gps_cli"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

/// Runs `command` through the shell and collects its stdout.
CommandResult RunShell(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  CommandResult result;
  if (!pipe) return result;
  char buffer[4096];
  while (fgets(buffer, sizeof(buffer), pipe)) result.output += buffer;
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

/// Runs the CLI; `output` holds stdout and stderr together.
CommandResult RunCli(const std::string& args) {
  return RunShell(std::string(GPS_CLI_PATH) + " " + args + " 2>&1");
}

// ctest runs these cases in parallel processes; every path must be unique
// per test or TearDown in one process deletes a file another is reading.
std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "/" + (info ? info->name() : "unknown") + "_" +
         name;
}

/// TempPath with whatever an earlier run left there removed, so a stale
/// file cannot stand where a checkpoint directory is about to go.
std::string FreshPath(const std::string& name) {
  const std::string path = TempPath(name);
  std::filesystem::remove_all(path);
  return path;
}

/// Slurps a file's raw bytes for byte-identity assertions.
std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Runs the CLI with stdout alone in `output` and stderr in `*err`.
CommandResult RunCliSplit(const std::string& args, std::string* err) {
  const std::string err_path = TempPath("stderr.txt");
  const CommandResult result =
      RunShell(std::string(GPS_CLI_PATH) + " " + args + " 2>" + err_path);
  *err = FileBytes(err_path);
  std::remove(err_path.c_str());
  return result;
}

/// Path of shard s's file in checkpoint directory `dir`, as its manifest
/// names it.
std::string ShardFile(const std::string& dir, uint32_t s) {
  return gps::engine_test::ShardPath(dir, s).string();
}

/// Every regular file under `dir`, name -> contents. Equal maps mean
/// byte-identical checkpoint directories.
std::map<std::string, std::string> DirBytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[entry.path().filename().string()] =
          FileBytes(entry.path().string());
    }
  }
  return files;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_path_ = TempPath("cli_graph.txt");
    const CommandResult gen = RunCli(
        "generate --name com-amazon-sim --scale 0.02 --output " +
        graph_path_);
    ASSERT_EQ(gen.exit_code, 0) << gen.output;
  }
  void TearDown() override { std::remove(graph_path_.c_str()); }

  std::string graph_path_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  const CommandResult r = RunCli("");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  const CommandResult r = RunCli("frobnicate");
  EXPECT_NE(r.exit_code, 0);
}

TEST_F(CliTest, RemovedSubcommandsAreUnknown) {
  // `resume` (one bare GPS-INSTREAM file) folded into resume-shards, and
  // `checkpoint-shards` into `estimate --checkpoint DIR`: both are usage
  // errors now.
  for (const std::string command : {"resume", "checkpoint-shards"}) {
    const CommandResult r = RunCli(command + " --input " + graph_path_);
    EXPECT_EQ(r.exit_code, 2) << command << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown subcommand '" + command + "'"),
              std::string::npos)
        << r.output;
  }
}

TEST_F(CliTest, CorpusListsEntries) {
  const CommandResult r = RunCli("corpus");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("soc-orkut-sim"), std::string::npos);
  EXPECT_NE(r.output.find("infra-road-sim"), std::string::npos);
}

TEST_F(CliTest, GenerateRejectsUnknownName) {
  const CommandResult r = RunCli("generate --name nope --output /dev/null");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("NOT_FOUND"), std::string::npos);
}

TEST_F(CliTest, ExactCountsRun) {
  const CommandResult r = RunCli("exact --input " + graph_path_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("triangles"), std::string::npos);
  EXPECT_NE(r.output.find("clustering"), std::string::npos);
  // Higher-order motif oracles are opt-in (expensive on big graphs).
  EXPECT_EQ(r.output.find("4cliques"), std::string::npos);
  const CommandResult motifs =
      RunCli("exact --input " + graph_path_ + " --higher-motifs");
  EXPECT_EQ(motifs.exit_code, 0) << motifs.output;
  EXPECT_NE(motifs.output.find("4cliques"), std::string::npos);
  EXPECT_NE(motifs.output.find("3paths"), std::string::npos);
  EXPECT_NE(motifs.output.find("4cycles"), std::string::npos);
  EXPECT_NE(motifs.output.find("5cliques"), std::string::npos);
  EXPECT_NE(motifs.output.find("tailed_triangles"), std::string::npos);
}

TEST_F(CliTest, ExactMissingFileFails) {
  const CommandResult r = RunCli("exact --input /nonexistent.txt");
  EXPECT_NE(r.exit_code, 0);
}

TEST_F(CliTest, EstimateBothFrameworks) {
  const CommandResult r = RunCli("estimate --input " + graph_path_ +
                                 " --capacity 2000 --seed 5");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("in-stream estimates"), std::string::npos);
  EXPECT_NE(r.output.find("post-stream estimates"), std::string::npos);
}

TEST_F(CliTest, EstimateWithEachWeight) {
  for (const char* weight :
       {"uniform", "adjacency", "triangle", "triangle-wedge"}) {
    const CommandResult r =
        RunCli("estimate --input " + graph_path_ +
               " --capacity 1000 --estimator in-stream --weight " + weight);
    EXPECT_EQ(r.exit_code, 0) << weight << ": " << r.output;
  }
  const CommandResult bad = RunCli("estimate --input " + graph_path_ +
                                   " --weight bogus");
  EXPECT_NE(bad.exit_code, 0);
}

TEST_F(CliTest, FailedCheckpointWriteKeepsPreviousFile) {
  // Checkpoint files are staged beside their targets. When a shard file
  // cannot be staged (a directory squats on its temp name) the run fails
  // by name and the previous checkpoint keeps every byte.
  const std::string dir = FreshPath("cli_staged");
  ASSERT_EQ(RunCli("estimate --input " + graph_path_ +
                   " --capacity 1500 --seed 3 --checkpoint " + dir)
                .exit_code,
            0);
  const std::map<std::string, std::string> old_files = DirBytes(dir);
  const std::string squat = dir + "/shard-0000.gps.tmp";
  ASSERT_TRUE(std::filesystem::create_directory(squat));
  const CommandResult r = RunCli("estimate --input " + graph_path_ +
                                 " --capacity 1500 --seed 4 --checkpoint " +
                                 dir);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("checkpoint error"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(squat), std::string::npos) << r.output;
  std::filesystem::remove_all(squat);
  EXPECT_EQ(DirBytes(dir), old_files);
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, FailedOutputWritesKeepPreviousFiles) {
  // convert (binary and text), --stats-out and --trace stage their output
  // beside the target, like the checkpoints. With a directory squatting
  // on the temp name each fails by the temp file's name, the previous
  // file keeps its bytes, and no temp file is left.
  const struct {
    const char* name;
    const char* args;
  } kCases[] = {
      {"out.gps", "convert --input {G} --to binary --output {}"},
      {"out.txt", "convert --input {G} --to text --output {}"},
      {"stats.json",
       "estimate --input {G} --capacity 500 --shards 2 --stats-out {}"},
      {"trace.json",
       "estimate --input {G} --capacity 500 --shards 2 --trace {}"},
  };
  for (const auto& c : kCases) {
    const std::string path = TempPath(c.name);
    std::string args = c.args;
    args.replace(args.find("{G}"), 3, graph_path_);
    args.replace(args.find("{}"), 2, path);
    const std::string old_bytes = "previous output\n";
    std::ofstream(path, std::ios::binary) << old_bytes;
    std::filesystem::remove_all(path + ".tmp");
    ASSERT_TRUE(std::filesystem::create_directory(path + ".tmp"));
    const CommandResult r = RunCli(args);
    EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(path + ".tmp"), std::string::npos)
        << args << "\n" << r.output;
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(bytes.str(), old_bytes) << args;
    EXPECT_TRUE(std::filesystem::is_directory(path + ".tmp")) << args;
    std::filesystem::remove_all(path + ".tmp");

    // Unobstructed, the same command replaces the file in one rename.
    const CommandResult ok = RunCli(args);
    EXPECT_EQ(ok.exit_code, 0) << args << "\n" << ok.output;
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << args;
    std::remove(path.c_str());
  }
}

TEST_F(CliTest, BadStatsAndTraceTargetsFailBeforeTheStream) {
  // --stats-out and --trace are renamed over their targets after the run.
  // A FIFO or a directory there, a target naming --input in any spelling
  // (it would replace the edge list), or both naming one file (only the
  // second would be left) fails the run by name before the input is
  // read: no estimate is printed, and no file changes.
  const gps::engine_test::ScopedTempDir dir("cli", "targets");
  std::filesystem::create_directories(dir);
  const std::string fifo = dir / "fifo";
  const std::string subdir = dir / "subdir";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  ASSERT_TRUE(std::filesystem::create_directory(subdir));
  const std::filesystem::path input(graph_path_);
  const std::string input_respelled =
      (input.parent_path() / "." / input.filename()).string();
  const std::string out = dir / "out.json";
  const std::string not_regular = "': not a regular file";
  const struct {
    std::string flags;
    std::string error;
  } kCases[] = {
      {"--stats-out " + fifo, "cannot replace '" + fifo + not_regular},
      {"--stats-out " + subdir, "cannot replace '" + subdir + not_regular},
      {"--trace " + fifo, "cannot replace '" + fifo + not_regular},
      {"--trace " + subdir, "cannot replace '" + subdir + not_regular},
      {"--stats-out " + input_respelled,
       "--stats-out and --input name the same file"},
      {"--trace " + graph_path_, "--trace and --input name the same file"},
      {"--stats-out " + out + " --trace " + out,
       "--trace and --stats-out name the same file"},
  };
  const std::string input_bytes = FileBytes(graph_path_);
  for (const std::string command :
       {"estimate --capacity 500 --shards 2", "monitor --every 1000"}) {
    for (const auto& c : kCases) {
      const std::string args =
          command + " --input " + graph_path_ + " " + c.flags;
      SCOPED_TRACE(args);
      std::string err;
      const CommandResult r = RunCliSplit(args, &err);
      EXPECT_EQ(r.exit_code, 1) << r.output << err;
      EXPECT_EQ(r.output, "") << r.output;
      EXPECT_NE(err.find(c.error), std::string::npos) << err;
    }
  }
  EXPECT_TRUE(std::filesystem::is_fifo(fifo));
  EXPECT_TRUE(std::filesystem::is_directory(subdir));
  EXPECT_EQ(FileBytes(graph_path_), input_bytes);
  EXPECT_FALSE(std::filesystem::exists(out));
}

TEST_F(CliTest, CheckpointTargetThatIsNotADirectoryFailsBeforeTheStream) {
  // --checkpoint and --save name a directory: an existing file there is
  // refused by name before the input is read, so nothing is printed, and
  // the file keeps its bytes. (A missing directory is created at the
  // first checkpoint, as every other checkpoint test shows.)
  const std::string file = TempPath("not_a_dir");
  std::ofstream(file) << "keep\n";
  const std::string dir = FreshPath("ckpt");
  ASSERT_EQ(RunCli("estimate --input " + graph_path_ +
                   " --capacity 1500 --checkpoint " + dir)
                .exit_code,
            0);
  for (const std::string& args :
       {"estimate --input " + graph_path_ + " --capacity 1500 --checkpoint " +
            file,
        "monitor --input " + graph_path_ +
            " --capacity 1500 --every 2000 --checkpoint-every 3000 "
            "--checkpoint " +
            file,
        "resume-shards --manifest " + dir + "/manifest.gpsm --input " +
            graph_path_ + " --save " + file}) {
    SCOPED_TRACE(args);
    std::string err;
    const CommandResult r = RunCliSplit(args, &err);
    EXPECT_EQ(r.exit_code, 1) << r.output << err;
    EXPECT_EQ(r.output, "");
    EXPECT_NE(err.find("'" + file + "' exists and is not a directory"),
              std::string::npos)
        << err;
    EXPECT_EQ(FileBytes(file), "keep\n");
  }
  std::remove(file.c_str());
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, CheckpointDoesNotWriteThroughALinkAtItsTempNames) {
  // Symlinks squatting on a shard file's and the manifest's temp names
  // are replaced, not followed: the file they point at keeps its bytes,
  // and the checkpoint is written as if they were not there.
  const std::string dir = FreshPath("link_squatted");
  const std::string victim = TempPath("victim.txt");
  std::ofstream(victim) << "victim bytes\n";
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  for (const char* temp : {"/shard-0000.gps.tmp", "/manifest.gpsm.tmp"}) {
    std::filesystem::create_symlink(victim, dir + temp);
  }
  const std::string run = "estimate --input " + graph_path_ +
                          " --capacity 1500 --seed 3 --checkpoint ";
  const CommandResult r = RunCli(run + dir);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(FileBytes(victim), "victim bytes\n");
  // The same run into a fresh directory writes the same files.
  const std::string fresh = FreshPath("fresh");
  ASSERT_EQ(RunCli(run + fresh).exit_code, 0);
  EXPECT_EQ(DirBytes(dir), DirBytes(fresh));
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_TRUE(entry.is_regular_file() && !entry.is_symlink())
        << entry.path();
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(fresh);
  std::remove(victim.c_str());
}

TEST_F(CliTest, ManifestCommandsRefuseBareInStreamFile) {
  // A K=1 checkpoint directory's shard file holds the bytes that
  // `estimate --checkpoint FILE` once wrote as a single GPS-INSTREAM
  // file. Such a file is not a checkpoint on its own: both manifest
  // readers refuse it, naming the header they found.
  const std::string dir = FreshPath("bare_dir");
  ASSERT_EQ(RunCli("estimate --input " + graph_path_ +
                   " --capacity 1500 --checkpoint " + dir)
                .exit_code,
            0);
  const std::string bare = ShardFile(dir, 0);
  for (const std::string& command :
       {"merge-checkpoints --manifest " + bare,
        "resume-shards --manifest " + bare + " --input " + graph_path_}) {
    const CommandResult r = RunCli(command);
    EXPECT_EQ(r.exit_code, 1) << command << "\n" << r.output;
    EXPECT_NE(r.output.find("expected GPS-MANIFEST, found GPS-INSTREAM"),
              std::string::npos)
        << command << "\n" << r.output;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, CheckpointDirectoryAsManifestIsRefusedByName) {
  // Every checkpoint is a directory, so passing the directory itself is
  // the likely slip: the refusal names the manifest inside it.
  const std::string dir = FreshPath("dir_manifest");
  ASSERT_EQ(RunCli("estimate --input " + graph_path_ +
                   " --capacity 1000 --shards 2 --checkpoint " + dir)
                .exit_code,
            0);
  for (const std::string& command :
       {"merge-checkpoints --manifest " + dir,
        "resume-shards --manifest " + dir + " --input " + graph_path_}) {
    const CommandResult r = RunCli(command);
    EXPECT_EQ(r.exit_code, 1) << command << "\n" << r.output;
    EXPECT_NE(r.output.find("is a checkpoint directory; pass " + dir +
                            "/manifest.gpsm"),
              std::string::npos)
        << command << "\n" << r.output;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, FlagMissingValueFails) {
  const CommandResult r = RunCli("estimate --input");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("needs a value"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandNamesTheCommand) {
  const CommandResult r = RunCli("frobnicate");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown subcommand 'frobnicate'"),
            std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownFlagFails) {
  const CommandResult r =
      RunCli("estimate --input " + graph_path_ + " --bogus 1");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown flag '--bogus'"), std::string::npos);
}

TEST_F(CliTest, FlagValidationIsPerSubcommand) {
  // --shards belongs to estimate, not exact.
  const CommandResult r =
      RunCli("exact --input " + graph_path_ + " --shards 2");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown flag '--shards'"), std::string::npos);
}

TEST_F(CliTest, EstimateSharded) {
  const CommandResult r =
      RunCli("estimate --input " + graph_path_ +
             " --capacity 2000 --shards 4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("4 shards"), std::string::npos);
  EXPECT_NE(r.output.find("merged in-stream estimates"), std::string::npos);
  EXPECT_NE(r.output.find("merged post-stream estimates"),
            std::string::npos);
}

TEST_F(CliTest, SchedulerAndRouterFlagsAreUnknown) {
  // The engine has one producer loop and one sequential worker loop with
  // a fixed hand-off batch; the flags that selected a work-stealing
  // scheduler, a router pool, core pinning or the batch size are refused
  // like any other unknown flag (usage error, exit 2).
  const auto expect_unknown = [](const std::string& command,
                                 const std::string& flag,
                                 const std::string& value) {
    const std::string args = command + " " + flag + " " + value;
    const CommandResult r = RunCli(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown flag '" + flag + "'"), std::string::npos)
        << args << "\n" << r.output;
  };
  const std::string dir = FreshPath("ckpt");
  for (const std::string& command :
       {"estimate --input " + graph_path_ + " --capacity 500 --shards 2",
        "monitor --input " + graph_path_ +
            " --capacity 500 --shards 2 --every 2000",
        "estimate --input " + graph_path_ +
            " --capacity 500 --shards 2 --estimator in-stream --checkpoint " +
            dir}) {
    expect_unknown(command, "--steal", "on");
    expect_unknown(command, "--routers", "2");
    expect_unknown(command, "--pin", "on");
    expect_unknown(command, "--batch", "256");
  }
  expect_unknown("resume-shards --manifest " + dir +
                     "/manifest.gpsm --input " + graph_path_,
                 "--batch", "256");
  // A batch this large aborted the run on its allocation while the flag
  // existed.
  expect_unknown("estimate --input " + graph_path_ + " --capacity 2000",
                 "--batch", "1000000000000");
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST_F(CliTest, EstimateSerialPostStream) {
  const CommandResult r = RunCli("estimate --input " + graph_path_ +
                                 " --capacity 2000 --estimator post");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("post-stream estimates"), std::string::npos);
}

TEST_F(CliTest, EstimateRefusesThreadsFlag) {
  // Every Algorithm-2 pass runs on all hardware threads (the bytes never
  // depend on the count), so --threads is gone: a usage error, exit 2,
  // serial or sharded.
  for (const std::string extra : {"", " --shards 2"}) {
    const CommandResult r =
        RunCli("estimate --input " + graph_path_ +
               " --capacity 2000 --estimator post --threads 2" + extra);
    EXPECT_EQ(r.exit_code, 2) << extra << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown flag '--threads'"), std::string::npos)
        << extra << "\n" << r.output;
  }
}

TEST_F(CliTest, ShardedCheckpointWritesManifest) {
  const std::string dir = TempPath("sharded_ckpt_dir");
  const CommandResult r =
      RunCli("estimate --input " + graph_path_ +
             " --capacity 1000 --shards 2 --checkpoint " + dir);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("sharded checkpoint written"), std::string::npos);
  EXPECT_TRUE(std::ifstream(dir + "/manifest.gpsm").good());
  EXPECT_TRUE(std::ifstream(ShardFile(dir, 1)).good());
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, ShardedCheckpointRejectsPostEstimator) {
  // Post-stream shards keep no in-stream state to persist, at any K.
  for (const std::string shards : {"1", "2"}) {
    const std::string dir = FreshPath("nope" + shards);
    const CommandResult r =
        RunCli("estimate --input " + graph_path_ + " --shards " + shards +
               " --estimator post --checkpoint " + dir);
    EXPECT_EQ(r.exit_code, 1) << shards << "\n" << r.output;
    EXPECT_NE(r.output.find("in-stream"), std::string::npos) << r.output;
    EXPECT_FALSE(std::filesystem::exists(dir)) << shards;
  }
}

TEST_F(CliTest, EstimateRejectsZeroShards) {
  const CommandResult r =
      RunCli("estimate --input " + graph_path_ + " --shards 0");
  EXPECT_NE(r.exit_code, 0);
}

TEST_F(CliTest, EstimateRejectsOverflowingShards) {
  // 2^32 would truncate to 0 shards; must be rejected, not crash.
  const CommandResult r =
      RunCli("estimate --input " + graph_path_ + " --shards 4294967296");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("--shards must be in"), std::string::npos);
}

// Every shard gets ceil(C/K) >= 1 slots, so K above the capacity would
// sample K edges on a C-edge budget: refused by name, explicit capacity
// and --mem-derived capacity alike. K equal to the capacity still runs.
TEST_F(CliTest, ShardsAboveCapacityAreRefused) {
  for (const std::string command :
       {"estimate", "monitor --every 1000"}) {
    SCOPED_TRACE(command);
    const CommandResult r = RunCli(command + " --input " + graph_path_ +
                                   " --capacity 2 --shards 4");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("error: --shards 4 exceeds the capacity 2 set "
                            "by --capacity"),
              std::string::npos)
        << r.output;
  }
  const CommandResult equal = RunCli(
      "estimate --input " + graph_path_ + " --capacity 4 --shards 4");
  EXPECT_EQ(equal.exit_code, 0) << equal.output;
}

TEST_F(CliTest, ShardsAboveMemDerivedCapacityAreRefused) {
  // --mem 5K derives a capacity of 7 slots.
  for (const std::string command :
       {"estimate", "monitor --every 1000"}) {
    SCOPED_TRACE(command);
    const CommandResult r = RunCli(command + " --input " + graph_path_ +
                                   " --mem 5K --shards 64");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("error: --shards 64 exceeds the capacity 7 that "
                            "--mem derives"),
              std::string::npos)
        << r.output;
  }
}

/// Sanitizer runtimes cannot start under RunCliCapped's limit; the gps_cli
/// of a sanitized test build is sanitized too.
bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

/// Runs the CLI with its address space capped at about 2.9 GB, far below
/// what a reservoir at the 2^28 capacity ceiling reserves.
CommandResult RunCliCapped(const std::string& args) {
  return RunShell("ulimit -v 3000000; " + std::string(GPS_CLI_PATH) + " " +
                  args + " 2>&1");
}

TEST_F(CliTest, UnallocatableCeilingCapacityIsRefused) {
  if (SanitizedBuild()) GTEST_SKIP() << "sanitizers cannot run under ulimit";
  for (const std::string command :
       {"estimate", "monitor --every 1000"}) {
    SCOPED_TRACE(command);
    const CommandResult r = RunCliCapped(command + " --input " + graph_path_ +
                                         " --capacity 268435456");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // One error line: the first is the last.
    EXPECT_EQ(r.output.find("error: "), r.output.rfind("error: "))
        << r.output;
    EXPECT_NE(r.output.find("error: cannot allocate a reservoir of capacity "
                            "268435456"),
              std::string::npos)
        << r.output;
  }
}

TEST_F(CliTest, UnallocatableCeilingCheckpointIsRefused) {
  if (SanitizedBuild()) GTEST_SKIP() << "sanitizers cannot run under ulimit";
  // One shard at the 2^28 capacity ceiling holding no records: every
  // field is valid, and the reservoir it names cannot be allocated.
  const std::string dir = FreshPath("ceiling_ckpt");
  std::filesystem::create_directories(dir);
  const std::string shard =
      "GPS-INSTREAM 2\n2 9 1 1\n0 0 0 0 0\n0\n"
      "GPS-RESERVOIR 1\n268435456 3\n0 0\n1 2 3 4\n0\n";
  const std::string shard_path =
      dir + "/" + gps::ShardFileName(0, gps::ChecksumBytes(shard));
  std::ofstream(shard_path) << shard;
  std::ofstream(dir + "/manifest.gpsm")
      << "GPS-MANIFEST 6\n1 3 268435456 0\n2 9 1 1\n0\n"
      << gps::ChecksumBytes(shard) << "\n";
  for (const std::string& command :
       {"merge-checkpoints --manifest " + dir + "/manifest.gpsm",
        "resume-shards --manifest " + dir + "/manifest.gpsm --input " +
            graph_path_}) {
    SCOPED_TRACE(command);
    const CommandResult r = RunCliCapped(command);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // One error line: the first is the last.
    EXPECT_EQ(r.output.find("error: "), r.output.rfind("error: "))
        << r.output;
    EXPECT_NE(r.output.find("shard file " + shard_path),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("cannot allocate a reservoir of capacity "
                            "268435456"),
              std::string::npos)
        << r.output;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, EstimateShardedPostOnly) {
  const CommandResult r =
      RunCli("estimate --input " + graph_path_ +
             " --capacity 2000 --shards 4 --estimator post");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("merged post-stream estimates"),
            std::string::npos);
  EXPECT_EQ(r.output.find("merged in-stream"), std::string::npos);
}

TEST_F(CliTest, EstimateRejectsUnknownEstimator) {
  const CommandResult r = RunCli("estimate --input " + graph_path_ +
                                 " --estimator sideways");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown estimator"), std::string::npos);
}

TEST_F(CliTest, RejectsMisparsedNumericFlags) {
  // Misparsed operator input must fail loudly, naming the flag — not
  // silently degrade ("--capacity abc" used to become 0, "--shards 2x"
  // used to become 2).
  const struct {
    const char* args;
    const char* flag;
  } kCases[] = {
      {"--capacity abc", "--capacity"},
      {"--capacity -5", "--capacity"},
      {"--shards 2x", "--shards"},
      {"--seed 1e9", "--seed"},
      {"--capacity 99999999999999999999999", "--capacity"},
  };
  for (const auto& c : kCases) {
    const CommandResult r =
        RunCli("estimate --input " + graph_path_ + " " + c.args);
    EXPECT_NE(r.exit_code, 0) << c.args;
    EXPECT_NE(r.output.find(c.flag), std::string::npos) << r.output;
  }
}

TEST_F(CliTest, GenerateRejectsMisparsedScale) {
  const CommandResult r = RunCli(
      "generate --name com-amazon-sim --scale 1.2.3 --output /dev/null");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("--scale"), std::string::npos);
}

// Extracts the estimates block starting at `label` (through the
// clustering line), so live and checkpoint-merge outputs can be compared
// byte for byte.
std::string EstimatesBlock(const std::string& output,
                           const std::string& label) {
  const size_t start = output.find(label);
  if (start == std::string::npos) return "<label '" + label + "' missing>";
  size_t end = output.find("clustering", start);
  if (end == std::string::npos) return "<clustering line missing>";
  end = output.find('\n', end);
  return output.substr(start, end - start);
}

TEST_F(CliTest, CheckpointMergeMatchesLiveByteForByte) {
  const std::string dir = FreshPath("ckpt_shards_dir");
  const std::string params =
      " --capacity 1500 --seed 11 --shards 4 --estimator in-stream";
  const CommandResult live =
      RunCli("estimate --input " + graph_path_ + params);
  ASSERT_EQ(live.exit_code, 0) << live.output;

  const CommandResult ckpt = RunCli("estimate --input " + graph_path_ +
                                    params + " --checkpoint " + dir);
  ASSERT_EQ(ckpt.exit_code, 0) << ckpt.output;
  EXPECT_NE(ckpt.output.find("sharded checkpoint written"),
            std::string::npos);

  const CommandResult merged =
      RunCli("merge-checkpoints --manifest " + dir + "/manifest.gpsm");
  ASSERT_EQ(merged.exit_code, 0) << merged.output;

  const std::string label = "merged in-stream estimates";
  const std::string live_block = EstimatesBlock(live.output, label);
  EXPECT_EQ(live_block, EstimatesBlock(ckpt.output, label));
  EXPECT_EQ(live_block, EstimatesBlock(merged.output, label));
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, CheckpointReadersTakeOneManifest) {
  // A checkpoint is one manifest: a second --manifest is refused by name,
  // before anything is read.
  const std::string dir = FreshPath("one_manifest");
  ASSERT_EQ(RunCli("estimate --input " + graph_path_ +
                   " --capacity 1000 --shards 2 --checkpoint " + dir)
                .exit_code,
            0);
  const std::string manifest = dir + "/manifest.gpsm";
  for (const std::string& command :
       {"merge-checkpoints --manifest " + manifest + " --manifest " +
            manifest,
        "resume-shards --manifest " + manifest + " --manifest " + manifest +
            " --input " + graph_path_}) {
    SCOPED_TRACE(command);
    const CommandResult r = RunCli(command);
    EXPECT_NE(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("flag '--manifest' given twice"),
              std::string::npos)
        << r.output;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, MergeCheckpointsRequiresManifestFlag) {
  const CommandResult r = RunCli("merge-checkpoints");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("--manifest"), std::string::npos);
}

TEST_F(CliTest, RejectsZeroCountFlags) {
  // Zero is as much operator error as a misparse for positive-count
  // flags; the error must name the flag (PR 2 strict-parsing rules).
  const struct {
    const char* command_args;
    const char* flag;
  } kCases[] = {
      {"monitor --input {} --every 0", "--every"},
      {"monitor --input {} --every 10 --checkpoint-every 0",
       "--checkpoint-every"},
  };
  for (const auto& c : kCases) {
    std::string args = c.command_args;
    args.replace(args.find("{}"), 2, graph_path_);
    const CommandResult r = RunCli(args);
    EXPECT_NE(r.exit_code, 0) << args;
    EXPECT_NE(r.output.find(std::string("flag '") + c.flag +
                            "' must be >= 1"),
              std::string::npos)
        << args << ": " << r.output;
  }
  // And negatives still fail the unsigned parse, naming the flag.
  const CommandResult negative =
      RunCli("monitor --input " + graph_path_ + " --every -3");
  EXPECT_NE(negative.exit_code, 0);
  EXPECT_NE(negative.output.find("--every"), std::string::npos)
      << negative.output;
}

TEST_F(CliTest, MonitorNeedsEvery) {
  const CommandResult r = RunCli("monitor --input " + graph_path_);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("--every"), std::string::npos);
}

TEST_F(CliTest, MonitorRejectsBadOutputAndCheckpointCombos) {
  // CSV is the monitor's one layout: --output is an unknown flag.
  const CommandResult bad_output = RunCli(
      "monitor --input " + graph_path_ + " --every 100 --output yaml");
  EXPECT_EQ(bad_output.exit_code, 2) << bad_output.output;
  EXPECT_NE(bad_output.output.find("unknown flag '--output'"),
            std::string::npos)
      << bad_output.output;

  const CommandResult no_dir = RunCli("monitor --input " + graph_path_ +
                                      " --every 100 --checkpoint-every 50");
  EXPECT_NE(no_dir.exit_code, 0);
  EXPECT_NE(no_dir.output.find("--checkpoint"), std::string::npos);

  const CommandResult no_every =
      RunCli("monitor --input " + graph_path_ +
             " --every 100 --checkpoint " + TempPath("nope"));
  EXPECT_NE(no_every.exit_code, 0);
  EXPECT_NE(no_every.output.find("--checkpoint-every"), std::string::npos);
}

// Splits `output` into lines.
std::vector<std::string> Lines(const std::string& output) {
  std::vector<std::string> lines;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST_F(CliTest, MonitorEmitsCsvTimeSeriesEndingAtStreamEnd) {
  const std::string params = " --capacity 1500 --seed 11 --shards 2";
  const CommandResult r = RunCli("monitor --input " + graph_path_ + params +
                                 " --every 1000");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::vector<std::string> lines = Lines(r.output);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("edges,triangles,", 0), 0u) << lines[0];

  // Rows at 1000, 2000, ... plus a final partial row; edge counts are
  // the first CSV column and strictly increase.
  unsigned long long last_edges = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    unsigned long long edges = 0;
    ASSERT_EQ(std::sscanf(lines[i].c_str(), "%llu,", &edges), 1)
        << lines[i];
    EXPECT_GT(edges, last_edges);
    if (i + 1 < lines.size()) {
      EXPECT_EQ(edges, i * 1000ull);
    }
    last_edges = edges;
  }

  // The final row lands exactly at the end of the stream: one more
  // monitor run with a sampling interval larger than the stream yields
  // ONLY that final row, byte-identical (same input, seed, layout).
  const CommandResult single = RunCli("monitor --input " + graph_path_ +
                                      params + " --every 99999999");
  ASSERT_EQ(single.exit_code, 0) << single.output;
  const std::vector<std::string> single_lines = Lines(single.output);
  ASSERT_EQ(single_lines.size(), 2u) << single.output;
  EXPECT_EQ(lines.back(), single_lines.back());
}

TEST_F(CliTest, MonitorFinalRowMatchesEstimateExactly) {
  const std::string params = " --capacity 1500 --seed 11 --shards 2";
  const CommandResult mon = RunCli("monitor --input " + graph_path_ +
                                   params + " --every 2000");
  ASSERT_EQ(mon.exit_code, 0) << mon.output;
  const std::vector<std::string> lines = Lines(mon.output);
  ASSERT_GE(lines.size(), 2u);
  double tri = 0.0, wed = 0.0;
  unsigned long long edges = 0;
  ASSERT_EQ(std::sscanf(lines.back().c_str(),
                        "%llu,%lf,%*f,%*f,%*f,%lf", &edges, &tri, &wed),
            3)
      << lines.back();

  const CommandResult est = RunCli("estimate --input " + graph_path_ +
                                   params + " --estimator in-stream");
  ASSERT_EQ(est.exit_code, 0) << est.output;
  // The estimate table renders counts with the same "%.0f" the expected
  // string uses here (string comparison, so the rounding mode can never
  // disagree). Cell padding depends on the other rows, so parse the
  // row's second cell instead of matching a padded line verbatim.
  const auto table_cell = [&est](const std::string& row_label) {
    const size_t row = est.output.find(" " + row_label);
    EXPECT_NE(row, std::string::npos) << est.output;
    if (row == std::string::npos) return std::string();
    const size_t bar = est.output.find('|', row);
    std::istringstream cell(est.output.substr(bar + 1));
    std::string value;
    cell >> value;
    return value;
  };
  char tri_cell[64], wed_cell[64];
  std::snprintf(tri_cell, sizeof(tri_cell), "%.0f", tri);
  std::snprintf(wed_cell, sizeof(wed_cell), "%.0f", wed);
  EXPECT_EQ(table_cell("triangles"), tri_cell)
      << "monitor's final triangles " << tri
      << " not found in estimate output:\n"
      << est.output;
  EXPECT_EQ(table_cell("wedges"), wed_cell) << est.output;
}

TEST_F(CliTest, MonitorEmptyStreamStillEmitsFinalRow) {
  // The documented contract guarantees at least one data row; a stream
  // with zero edges yields a single zero-estimate row at edges=0. (A
  // 0-byte file is refused outright by the input preflight, so the
  // canonical empty stream is a comment-only file.)
  const std::string empty_input = TempPath("empty.el");
  std::ofstream(empty_input) << "# no edges\n";
  const CommandResult r =
      RunCli("monitor --input " + empty_input + " --every 10 --no-permute");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::vector<std::string> lines = Lines(r.output);
  ASSERT_EQ(lines.size(), 2u) << r.output;
  EXPECT_EQ(lines[1].rfind("0,0,", 0), 0u) << lines[1];
  std::remove(empty_input.c_str());
}

TEST_F(CliTest, MonitorFailedCheckpointKeepsEveryRowAndTheOldCheckpoint) {
  // A directory squatting on a shard's temp name fails the first periodic
  // checkpoint. The monitor warns once, stops checkpointing and streams
  // on: it prints the row at every tick and the final row — the same
  // stdout as a run without checkpoints — then exits 1, and the
  // directory keeps the previous checkpoint's bytes.
  const std::string params =
      " --capacity 1500 --seed 11 --shards 2 --every 2000";
  const CommandResult plain =
      RunCli("monitor --input " + graph_path_ + params);
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  // The header, a row at 2000, 4000, ... and the final row.
  const std::vector<std::string> lines = Lines(plain.output);
  ASSERT_GE(lines.size(), 4u) << plain.output;
  for (size_t i = 1; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].rfind(std::to_string(i * 2000) + ",", 0), 0u)
        << lines[i];
  }
  EXPECT_GT(std::stoull(lines.back()), (lines.size() - 2) * 2000)
      << lines.back();

  const std::string dir = FreshPath("mon_squatted");
  ASSERT_EQ(RunCli("estimate --input " + graph_path_ +
                   " --capacity 1500 --shards 2 --estimator in-stream "
                   "--checkpoint " +
                   dir)
                .exit_code,
            0);
  const std::map<std::string, std::string> old_files = DirBytes(dir);
  const std::string squat = dir + "/shard-0000.gps.tmp";
  ASSERT_TRUE(std::filesystem::create_directory(squat));
  std::string err;
  const CommandResult r =
      RunCliSplit("monitor --input " + graph_path_ + params +
                      " --checkpoint-every 3000 --checkpoint " + dir,
                  &err);
  EXPECT_EQ(r.exit_code, 1) << r.output << err;
  EXPECT_EQ(r.output, plain.output);
  const size_t named = err.find(squat);
  ASSERT_NE(named, std::string::npos) << err;
  EXPECT_EQ(err.find(squat, named + 1), std::string::npos) << err;
  std::filesystem::remove_all(squat);
  EXPECT_EQ(DirBytes(dir), old_files);
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, MonitorTableOutput) {
  // The table layout is gone and CSV needs no flag: --output names no
  // layout, not even csv.
  for (const std::string layout : {"table", "csv"}) {
    const CommandResult r = RunCli("monitor --input " + graph_path_ +
                                   " --every 5000 --output " + layout);
    EXPECT_EQ(r.exit_code, 2) << layout << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown flag '--output'"), std::string::npos)
        << layout << "\n" << r.output;
  }
}

TEST_F(CliTest, MonitorCheckpointEveryThenResumeShards) {
  const std::string dir = TempPath("monitor_ckpt");
  const std::string params = " --capacity 1200 --seed 13 --shards 2";
  const CommandResult mon =
      RunCli("monitor --input " + graph_path_ + params +
             " --every 2500 --checkpoint-every 2500 --checkpoint " + dir);
  ASSERT_EQ(mon.exit_code, 0) << mon.output;
  ASSERT_TRUE(std::ifstream(dir + "/manifest.gpsm").good());

  // The directory holds the END-of-stream state, so a resume continues
  // from the full input (feeding zero further edges keeps the
  // estimates). A 0-byte file would be refused by the preflight; a
  // comment-only file is the well-formed zero-edge stream.
  const std::string empty_input = TempPath("empty.el");
  std::ofstream(empty_input) << "# no further edges\n";
  const CommandResult resumed =
      RunCli("resume-shards --manifest " + dir + "/manifest.gpsm --input " +
             empty_input + " --no-permute");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("resumed 2 shards"), std::string::npos);
  EXPECT_NE(resumed.output.find("merged in-stream estimates"),
            std::string::npos);
  std::remove(empty_input.c_str());
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, ResumeShardsContinuationMatchesUninterruptedByteForByte) {
  // Canonicalize and sort the generated edge list so --no-permute streams
  // it verbatim, then split it: streaming part A, checkpointing, and
  // resuming over part B must print the same estimates block as an
  // uninterrupted run over the whole file.
  std::vector<std::pair<long, long>> edges;
  {
    std::ifstream in(graph_path_);
    long u = 0, v = 0;
    while (in >> u >> v) {
      if (u == v) continue;
      edges.emplace_back(std::min(u, v), std::max(u, v));
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  ASSERT_GT(edges.size(), 100u);
  const std::string full = TempPath("full.el");
  const std::string part_a = TempPath("a.el");
  const std::string part_b = TempPath("b.el");
  {
    std::ofstream fo(full), ao(part_a), bo(part_b);
    for (size_t i = 0; i < edges.size(); ++i) {
      fo << edges[i].first << ' ' << edges[i].second << '\n';
      (i < edges.size() / 2 ? ao : bo)
          << edges[i].first << ' ' << edges[i].second << '\n';
    }
  }

  for (const std::string shards : {"1", "4"}) {
    SCOPED_TRACE("shards=" + shards);
    const std::string params =
        " --capacity 900 --seed 17 --estimator in-stream --shards " + shards;
    const CommandResult uninterrupted =
        RunCli("estimate --input " + full + params + " --no-permute");
    ASSERT_EQ(uninterrupted.exit_code, 0) << uninterrupted.output;

    const std::string dir = FreshPath("resume_dir" + shards);
    const CommandResult ckpt =
        RunCli("estimate --input " + part_a + params +
               " --no-permute --checkpoint " + dir);
    ASSERT_EQ(ckpt.exit_code, 0) << ckpt.output;
    const CommandResult resumed =
        RunCli("resume-shards --manifest " + dir + "/manifest.gpsm --input " +
               part_b + " --no-permute");
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;

    // "in-stream estimates" ends both labels, K=1's and the merged one.
    const std::string label = "in-stream estimates";
    EXPECT_EQ(EstimatesBlock(uninterrupted.output, label),
              EstimatesBlock(resumed.output, label));
    std::filesystem::remove_all(dir);
  }

  std::remove(full.c_str());
  std::remove(part_a.c_str());
  std::remove(part_b.c_str());
}

TEST_F(CliTest, ListMotifsShowsRegistry) {
  const CommandResult r = RunCli("list-motifs");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* name :
       {"4clique", "3path", "4cycle", "5clique", "tailed_triangle"}) {
    EXPECT_NE(r.output.find(name), std::string::npos) << name;
  }
}

TEST_F(CliTest, EstimateWithMotifsPrintsMotifRows) {
  const CommandResult r =
      RunCli("estimate --input " + graph_path_ +
             " --capacity 2000 --seed 5 --shards 2 --motifs 3path,4clique"
             " --estimator in-stream --degree 3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("motif:3path"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("motif:4clique"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("edges"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("deg(3)"), std::string::npos) << r.output;
}

TEST_F(CliTest, EstimateMotifsRouteThroughEngineAtOneShard) {
  // A K=1 motif run checkpoints a shard file that carries the
  // accumulators.
  const std::string dir = TempPath("motif_ckpt");
  const CommandResult r =
      RunCli("estimate --input " + graph_path_ +
             " --capacity 1500 --motifs 3path --estimator in-stream"
             " --checkpoint " + dir);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("motif:3path"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("sharded checkpoint written"), std::string::npos)
      << r.output;
  // The checkpoint merges back with the motif column intact.
  const CommandResult merged =
      RunCli("merge-checkpoints --manifest " + dir + "/manifest.gpsm");
  EXPECT_EQ(merged.exit_code, 0) << merged.output;
  EXPECT_NE(merged.output.find("motif:3path"), std::string::npos)
      << merged.output;
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, EstimateRejectsBadMotifFlags) {
  const CommandResult unknown = RunCli(
      "estimate --input " + graph_path_ + " --motifs 3path,pentagon");
  EXPECT_NE(unknown.exit_code, 0);
  EXPECT_NE(unknown.output.find("pentagon"), std::string::npos)
      << unknown.output;

  const CommandResult post = RunCli("estimate --input " + graph_path_ +
                                    " --motifs 3path --estimator post");
  EXPECT_NE(post.exit_code, 0);
  EXPECT_NE(post.output.find("in-stream"), std::string::npos)
      << post.output;
}

TEST_F(CliTest, GenericTriangleAndWedgeMotifsAreUnknown) {
  // Algorithm 3's triangles and wedges rows are the one estimate of each;
  // the registry has no generic "tri" or "wedge" motif to shadow them.
  const CommandResult tri = RunCli("estimate --input " + graph_path_ +
                                   " --capacity 1500 --motifs tri");
  EXPECT_EQ(tri.exit_code, 1) << tri.output;
  EXPECT_NE(tri.output.find("unknown motif 'tri'"), std::string::npos)
      << tri.output;

  const CommandResult wedge =
      RunCli("monitor --input " + graph_path_ +
             " --capacity 1500 --every 3000 --motifs 4clique,wedge");
  EXPECT_EQ(wedge.exit_code, 1) << wedge.output;
  EXPECT_NE(wedge.output.find("unknown motif 'wedge'"), std::string::npos)
      << wedge.output;
}

TEST_F(CliTest, MotifIntervalsAreMarkedAsLowerBounds) {
  // Every motif variance is the Σ Ŝ(Ŝ-1) lower bound: each motif row's
  // interval carries a marker and the block a footnote, in estimate and
  // in merge-checkpoints. Blocks without motif rows carry neither.
  const std::string footnote =
      "\n* variance lower bound (snapshot covariances left out): narrower "
      "than a 95% CI\n";
  // The last cell of a table row, padding dropped.
  const auto ci_cell = [](std::string line) {
    line.erase(line.find_last_not_of(' ') + 1);
    return line.substr(line.rfind('|') + 2);
  };
  const auto expect_marked = [&](const std::string& output) {
    size_t motif_rows = 0;
    size_t graph_rows = 0;
    for (const std::string& line : Lines(output)) {
      if (line.rfind(" motif:4clique ", 0) == 0) {
        ++motif_rows;
        EXPECT_EQ(ci_cell(line).back(), '*') << line;
      } else if (line.rfind(" triangles ", 0) == 0 ||
                 line.rfind(" wedges ", 0) == 0) {
        ++graph_rows;
        EXPECT_EQ(ci_cell(line).back(), ']') << line;
      }
    }
    EXPECT_GE(motif_rows, 1u) << output;
    EXPECT_GE(graph_rows, 2u) << output;
    EXPECT_NE(output.find(footnote), std::string::npos) << output;
  };
  const std::string dir = FreshPath("marked_motifs");
  const CommandResult est =
      RunCli("estimate --input " + graph_path_ +
             " --capacity 1500 --shards 2 --motifs 4clique"
             " --estimator in-stream --checkpoint " + dir);
  ASSERT_EQ(est.exit_code, 0) << est.output;
  expect_marked(est.output);
  const CommandResult merged =
      RunCli("merge-checkpoints --manifest " + dir + "/manifest.gpsm");
  ASSERT_EQ(merged.exit_code, 0) << merged.output;
  expect_marked(merged.output);
  std::filesystem::remove_all(dir);

  const CommandResult plain = RunCli("estimate --input " + graph_path_ +
                                     " --capacity 1500 --shards 2");
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(plain.output.find("motif"), std::string::npos) << plain.output;
  EXPECT_EQ(plain.output.find("]*"), std::string::npos) << plain.output;
  EXPECT_EQ(plain.output.find("lower bound"), std::string::npos)
      << plain.output;
}

TEST_F(CliTest, MonitorWithMotifsExtendsCsvSchema) {
  const CommandResult r =
      RunCli("monitor --input " + graph_path_ +
             " --capacity 1500 --seed 11 --shards 2 --every 3000"
             " --motifs 4clique,3path");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::vector<std::string> lines = Lines(r.output);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines[0].find(",4clique,4clique_lo,4clique_hi,"
                          "4clique_ci_width,3path,"),
            std::string::npos)
      << lines[0];
  // Every data row carries the motif columns (base 12 + 2 * 4).
  for (size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(std::count(lines[i].begin(), lines[i].end(), ','), 19)
        << lines[i];
  }
}

TEST_F(CliTest, ResumeShardsAdoptsTheCheckpointMotifSet) {
  // The motif set is part of the checkpoint: resume-shards prints its
  // motif rows without being told, and takes no --motifs flag.
  const std::string dir = FreshPath("resume_motifs");
  ASSERT_EQ(RunCli("estimate --input " + graph_path_ +
                   " --capacity 1000 --shards 2 --motifs 3path,4clique"
                   " --estimator in-stream --checkpoint " + dir)
                .exit_code,
            0);
  const CommandResult ok = RunCli("resume-shards --manifest " + dir +
                                  "/manifest.gpsm --input " + graph_path_);
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("motif:3path"), std::string::npos) << ok.output;
  EXPECT_NE(ok.output.find("motif:4clique"), std::string::npos)
      << ok.output;
  const CommandResult flag =
      RunCli("resume-shards --manifest " + dir + "/manifest.gpsm"
             " --input " + graph_path_ + " --motifs 3path,4clique");
  EXPECT_EQ(flag.exit_code, 2) << flag.output;
  EXPECT_NE(flag.output.find("unknown flag '--motifs' for 'resume-shards'"),
            std::string::npos)
      << flag.output;
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, ResumeShardsRequiresManifest) {
  const CommandResult r = RunCli("resume-shards --input " + graph_path_);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("--manifest"), std::string::npos);
}

TEST_F(CliTest, ResumeShardsRejectsMissingManifest) {
  const CommandResult r = RunCli("resume-shards --manifest /nonexistent.gpsm"
                                 " --input " + graph_path_);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("NOT_FOUND"), std::string::npos) << r.output;
}

TEST_F(CliTest, ResumeSavePersistsContinuedState) {
  // estimate --checkpoint -> resume-shards --save -> resume-shards at
  // K=1: the chain continues from the SAVED state, not the original.
  const std::string first = FreshPath("chain1");
  const std::string second = FreshPath("chain2");
  const CommandResult est =
      RunCli("estimate --input " + graph_path_ +
             " --capacity 1500 --estimator in-stream --checkpoint " + first);
  ASSERT_EQ(est.exit_code, 0) << est.output;
  unsigned long long edges = 0;
  ASSERT_EQ(std::sscanf(est.output.c_str(), "stream: %llu edges", &edges), 1)
      << est.output;

  const CommandResult saved =
      RunCli("resume-shards --manifest " + first + "/manifest.gpsm --input " +
             graph_path_ + " --save " + second);
  EXPECT_EQ(saved.exit_code, 0) << saved.output;
  EXPECT_NE(saved.output.find("resumed 1 shards at " +
                              std::to_string(edges) + " processed edges"),
            std::string::npos)
      << saved.output;
  EXPECT_NE(saved.output.find("in-stream estimates (Algorithm 3)"),
            std::string::npos)
      << saved.output;
  EXPECT_NE(saved.output.find("sharded checkpoint written to " + second),
            std::string::npos)
      << saved.output;

  const CommandResult resumed =
      RunCli("resume-shards --manifest " + second +
             "/manifest.gpsm --input " + graph_path_);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("resumed 1 shards at " +
                                std::to_string(2 * edges) +
                                " processed edges"),
            std::string::npos)
      << resumed.output;
  std::filesystem::remove_all(first);
  std::filesystem::remove_all(second);
}

/// The names in checkpoint directory `dir`, and the names its manifest
/// gives them: the manifest and its K shard files.
std::pair<std::vector<std::string>, std::vector<std::string>>
CheckpointNames(const std::string& dir, uint32_t k) {
  std::vector<std::string> found;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    found.push_back(entry.path().filename().string());
  }
  std::vector<std::string> named = {"manifest.gpsm"};
  for (uint32_t s = 0; s < k; ++s) {
    named.push_back(std::filesystem::path(ShardFile(dir, s)).filename().string());
  }
  std::sort(found.begin(), found.end());
  std::sort(named.begin(), named.end());
  return {found, named};
}

TEST_F(CliTest, CheckpointKilledBeforeItsManifestKeepsThePreviousOne) {
  // A checkpoint killed after publishing its shard files, before renaming
  // its manifest, leaves them beside the previous checkpoint under the
  // names its own manifest would give them. Those names are the
  // previous files' only when the bytes are too, so the directory still
  // merges to its own block.
  const std::string dir = FreshPath("killed_prev");
  const std::string longer = FreshPath("killed_longer");
  ASSERT_EQ(RunCli("estimate --input " + graph_path_ +
                   " --capacity 1000 --shards 2 --checkpoint " + dir)
                .exit_code,
            0);
  const CommandResult own =
      RunCli("merge-checkpoints --manifest " + dir + "/manifest.gpsm");
  ASSERT_EQ(own.exit_code, 0) << own.output;
  ASSERT_EQ(RunCli("resume-shards --manifest " + dir + "/manifest.gpsm" +
                   " --input " + graph_path_ + " --save " + longer)
                .exit_code,
            0);
  for (uint32_t s = 0; s < 2; ++s) {
    const std::filesystem::path file = ShardFile(longer, s);
    std::filesystem::copy_file(file,
                               std::filesystem::path(dir) / file.filename());
  }
  const CommandResult merged =
      RunCli("merge-checkpoints --manifest " + dir + "/manifest.gpsm");
  EXPECT_EQ(merged.exit_code, 0) << merged.output;
  EXPECT_EQ(merged.output, own.output);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(longer);
}

TEST_F(CliTest, CheckpointDirectoryHoldsOnlyTheLatestCheckpoint) {
  // Every checkpoint into one directory removes the shard files of the
  // ones before it, and of the previous format's names: after monitor's
  // periodic checkpoints, a second monitor run and resume-shards --save
  // into the source directory, the directory holds its manifest, the K
  // files it names and the one file no checkpoint wrote.
  const std::string dir = FreshPath("latest_only");
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/notes.txt") << "kept\n";
  std::ofstream(dir + "/shard-0000.gps") << "GPS-INSTREAM 1\n";
  const std::string monitor = "monitor --input " + graph_path_ +
                              " --capacity 1000 --shards 2 --every 1000"
                              " --checkpoint-every 1000 --checkpoint " +
                              dir;
  for (const std::string& command :
       {monitor + " --seed 1", monitor + " --seed 2",
        "resume-shards --manifest " + dir + "/manifest.gpsm --input " +
            graph_path_ + " --save " + dir}) {
    SCOPED_TRACE(command);
    const CommandResult r = RunCli(command);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    auto [found, named] = CheckpointNames(dir, 2);
    named.push_back("notes.txt");
    std::sort(named.begin(), named.end());
    EXPECT_EQ(found, named);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, VersionReportsFormats) {
  const CommandResult r = RunCli("version");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // Each row names a component, then its value on the same line.
  const auto row_has = [&r](const std::string& component,
                            const std::string& value) {
    const size_t at = r.output.find(component);
    if (at == std::string::npos) return false;
    const size_t end = r.output.find('\n', at);
    return r.output.substr(at, end - at).find(value) != std::string::npos;
  };
  EXPECT_TRUE(row_has("manifest format", "v6")) << r.output;
  EXPECT_TRUE(row_has("shard-file format", "v2")) << r.output;
  EXPECT_TRUE(row_has("stream format", "v1")) << r.output;
  EXPECT_NE(r.output.find("metrics"), std::string::npos);
  EXPECT_NE(r.output.find("intersect simd"), std::string::npos);
}

TEST_F(CliTest, VersionRejectsFlags) {
  const CommandResult r = RunCli("version --bogus 1");
  EXPECT_NE(r.exit_code, 0);
}

TEST_F(CliTest, EstimateStatsPrintsMetrics) {
  const CommandResult r = RunCli("estimate --input " + graph_path_ +
                                 " --capacity 500 --shards 2 --stats");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("metrics:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"engine.edges_ingested\""), std::string::npos);
  EXPECT_NE(r.output.find("\"reservoir.admissions\""), std::string::npos);
}

// The --stats name list, in order: each section sorted by name in byte
// order, so merge.sample_size.shard10 precedes shard2.
TEST_F(CliTest, StatsNameListGolden) {
  const CommandResult r = RunCli("estimate --input " + graph_path_ +
                                 " --capacity 500 --shards 12 --stats");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const size_t block = r.output.find("metrics:\n");
  ASSERT_NE(block, std::string::npos) << r.output;
  // Sections sit 6 spaces deep, metric names 8; histogram fields deeper.
  std::vector<std::string> names;
  std::istringstream lines(r.output.substr(block));
  for (std::string line; std::getline(lines, line);) {
    const size_t quote = line.find('"');
    if (quote != 6 && quote != 8) continue;
    names.push_back(line.substr(quote + 1, line.find('"', quote + 1) -
                                               quote - 1));
  }
  std::vector<std::string> golden = {
      "counters",
      "intersect.gallop",
      "intersect.merge",
      "intersect.simd",
      "reservoir.admissions",
      "reservoir.evictions",
      "reservoir.precheck_rejects",
      "ring.pop_empty",
      "ring.push_fail",
      "worker.batches_processed",
      "gauges",
      "engine.edges_ingested",
      "intersect.comparisons_saved"};
  for (const char* shard :
       {"0", "1", "10", "11", "2", "3", "4", "5", "6", "7", "8", "9"}) {
    golden.push_back(std::string("merge.sample_size.shard") + shard);
  }
  for (const char* name :
       {"merge.union_sample_size", "reservoir.sample_size", "reservoir.zstar",
        "ring.occupancy_hwm", "store.arena_bytes", "store.load_factor",
        "store.probe_len_p99", "worker.busy_seconds",
        "worker.estimation_seconds", "worker.idle_seconds", "histograms",
        "worker.batch_latency"}) {
    golden.push_back(name);
  }
  EXPECT_EQ(names, golden);
}

// --stats is observation-only: a K=1 run prints the plain run's stdout,
// byte for byte, before its metrics block.
TEST_F(CliTest, EstimateStatsKeepsSerialEstimates) {
  const std::string base_args =
      "estimate --input " + graph_path_ + " --capacity 500 --seed 5";
  const CommandResult plain = RunCli(base_args);
  const CommandResult stats = RunCli(base_args + " --stats");
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  ASSERT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_EQ(stats.output.substr(0, plain.output.size()), plain.output);
  EXPECT_EQ(stats.output.substr(plain.output.size(), 9), "metrics:\n")
      << stats.output;
}

TEST_F(CliTest, EstimateStatsOutWritesFile) {
  const std::string stats_path = TempPath("stats.json");
  const CommandResult r =
      RunCli("estimate --input " + graph_path_ +
             " --capacity 500 --shards 2 --stats-out " + stats_path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("metrics written to"), std::string::npos);
  std::ifstream in(stats_path);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"counters\""), std::string::npos);
  std::remove(stats_path.c_str());
}

TEST_F(CliTest, EstimateTraceWritesChromeTraceFile) {
  const std::string trace_path = TempPath("trace.json");
  const CommandResult r =
      RunCli("estimate --input " + graph_path_ +
             " --capacity 500 --shards 2 --trace " + trace_path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("trace written to"), std::string::npos);
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.str().find("\"shard-0\""), std::string::npos);
  EXPECT_NE(text.str().find("\"batch\""), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST_F(CliTest, MonitorStatsAndTrace) {
  const std::string trace_path = TempPath("mon_trace.json");
  const CommandResult r = RunCli(
      "monitor --input " + graph_path_ +
      " --capacity 500 --shards 2 --every 2000 --stats --trace " +
      trace_path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("metrics:"), std::string::npos);
  EXPECT_NE(r.output.find("trace written to"), std::string::npos);
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  // The monitor's periodic estimate spans land on the producer track.
  EXPECT_NE(text.str().find("\"estimate\""), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST_F(CliTest, StatsFlagIsPerSubcommand) {
  const CommandResult r = RunCli("exact --input " + graph_path_ + " --stats");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("stats"), std::string::npos);
}

TEST_F(CliTest, MemAndCapacityAreMutuallyExclusive) {
  const CommandResult r = RunCli("estimate --input " + graph_path_ +
                                 " --mem 1M --capacity 2000");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("mutually exclusive"), std::string::npos)
      << r.output;
}

TEST_F(CliTest, MemTooSmallIsNamedRefusal) {
  // 4K covers only the fixed overhead: zero reservoir slots. The refusal
  // names the minimum workable budget instead of crashing or clamping.
  const CommandResult r = RunCli("estimate --input " + graph_path_ +
                                 " --mem 4K");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("cannot hold even one"), std::string::npos)
      << r.output;
  const CommandResult junk = RunCli("estimate --input " + graph_path_ +
                                    " --mem 512MB");
  EXPECT_NE(junk.exit_code, 0);
  EXPECT_NE(junk.output.find("--mem"), std::string::npos) << junk.output;
}

TEST_F(CliTest, MemDerivedCapacityMatchesExplicitCapacity) {
  // An in-stream LayoutForCapacity(2000) costs 4096 + 145 * 2000 = 294096
  // bytes, so a --mem of exactly that must run the estimator with
  // capacity 2000 and print byte-identical estimates (capacity is the
  // only thing --mem changes).
  const std::string params = " --seed 5 --estimator in-stream";
  const CommandResult explicit_run =
      RunCli("estimate --input " + graph_path_ + params +
             " --capacity 2000");
  ASSERT_EQ(explicit_run.exit_code, 0) << explicit_run.output;
  const CommandResult mem_run = RunCli(
      "estimate --input " + graph_path_ + params + " --mem 294096");
  ASSERT_EQ(mem_run.exit_code, 0) << mem_run.output;

  const std::string label = "in-stream estimates";
  EXPECT_EQ(EstimatesBlock(explicit_run.output, label),
            EstimatesBlock(mem_run.output, label));
  // The startup allocation report names every budget term and the
  // derived capacity.
  for (const char* term : {"derived capacity", "2000", "slot columns",
                           "in-stream records", "adjacency arena"}) {
    EXPECT_NE(mem_run.output.find(term), std::string::npos)
        << term << "\n" << mem_run.output;
  }
}

TEST_F(CliTest, PostStreamMemBudgetPaysForNoInStreamRecords) {
  // 278096 = 4096 + 137 * 2000 bought 2000 slots while every slot carried
  // two covariance columns. A post-stream run keeps no Algorithm 3
  // records, so its slots cost 121 bytes and the budget buys 2264; only
  // an in-stream run pays 145 bytes a slot (1889 slots).
  const std::string budget = " --seed 5 --mem 278096";
  const CommandResult post = RunCli("estimate --input " + graph_path_ +
                                    budget + " --estimator post");
  ASSERT_EQ(post.exit_code, 0) << post.output;
  EXPECT_NE(post.output.find("derived capacity 2264"), std::string::npos)
      << post.output;
  const CommandResult post_explicit =
      RunCli("estimate --input " + graph_path_ +
             " --seed 5 --capacity 2264 --estimator post");
  ASSERT_EQ(post_explicit.exit_code, 0) << post_explicit.output;
  const std::string label = "post-stream estimates";
  EXPECT_EQ(EstimatesBlock(post.output, label),
            EstimatesBlock(post_explicit.output, label));

  for (const char* estimator : {"in-stream", "both"}) {
    const CommandResult run =
        RunCli("estimate --input " + graph_path_ + budget +
               " --estimator " + estimator);
    ASSERT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find("derived capacity 1889"), std::string::npos)
        << estimator << "\n" << run.output;
  }
  const CommandResult monitor = RunCli("monitor --input " + graph_path_ +
                                       budget + " --every 100000");
  ASSERT_EQ(monitor.exit_code, 0) << monitor.output;
  EXPECT_NE(monitor.output.find("derived capacity 1889"), std::string::npos)
      << monitor.output;
}

// ---- convert + GPS-STREAM binary input -----------------------------------

TEST_F(CliTest, ConvertRoundTripIsByteIdentical) {
  const std::string binary = TempPath("convert.gps");
  const std::string back = TempPath("convert_back.txt");
  const CommandResult to_bin = RunCli("convert --input " + graph_path_ +
                                      " --output " + binary);
  ASSERT_EQ(to_bin.exit_code, 0) << to_bin.output;
  EXPECT_NE(to_bin.output.find("GPS-STREAM v1"), std::string::npos);
  EXPECT_NE(to_bin.output.find("digest-verified"), std::string::npos);
  const CommandResult to_text =
      RunCli("convert --input " + binary + " --output " + back);
  ASSERT_EQ(to_text.exit_code, 0) << to_text.output;
  // text -> binary -> text reproduces the original file byte for byte:
  // the stream format loses nothing.
  EXPECT_EQ(FileBytes(graph_path_), FileBytes(back));
  std::remove(binary.c_str());
  std::remove(back.c_str());
}

TEST_F(CliTest, EstimateFromBinaryMatchesTextByteForByte) {
  const std::string binary = TempPath("estimate.gps");
  ASSERT_EQ(RunCli("convert --input " + graph_path_ + " --output " +
                   binary).exit_code,
            0);
  const std::string params = " --capacity 2000 --seed 5";
  const CommandResult text = RunCli("estimate --input " + graph_path_ +
                                    params);
  const CommandResult bin = RunCli("estimate --input " + binary + params);
  ASSERT_EQ(text.exit_code, 0) << text.output;
  ASSERT_EQ(bin.exit_code, 0) << bin.output;
  // FULL stdout equality: same banner, same estimates, same formatting —
  // the input format is completely transparent to the estimate path.
  EXPECT_EQ(text.output, bin.output);
  std::remove(binary.c_str());
}

TEST_F(CliTest, InputFormatFlagIsUnknown) {
  // The GPS-STREAM magic picks the decoder: no text edge list starts with
  // it (the strict parser refuses those bytes), so forcing a decoder
  // could only change which error prints. The flag is gone everywhere.
  for (const std::string command :
       {"estimate", "resume-shards", "monitor", "convert", "exact"}) {
    const CommandResult r =
        RunCli(command + " --input " + graph_path_ + " --input-format text");
    EXPECT_EQ(r.exit_code, 2) << command << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown flag '--input-format' for '" + command +
                            "'"),
              std::string::npos)
        << command << "\n" << r.output;
  }
}

TEST_F(CliTest, InputPreflightRefusesDirectoryAndEmptyFile) {
  const CommandResult dir = RunCli("estimate --input " + testing::TempDir() +
                                   " --capacity 100");
  EXPECT_NE(dir.exit_code, 0);
  EXPECT_NE(dir.output.find("is a directory"), std::string::npos)
      << dir.output;
  const std::string empty = TempPath("empty.txt");
  { std::ofstream touch(empty); }
  const CommandResult empty_run =
      RunCli("estimate --input " + empty + " --capacity 100");
  EXPECT_NE(empty_run.exit_code, 0);
  EXPECT_NE(empty_run.output.find("is empty"), std::string::npos)
      << empty_run.output;
  // convert shares the preflight.
  const CommandResult conv = RunCli("convert --input " + empty +
                                    " --output /dev/null");
  EXPECT_NE(conv.exit_code, 0);
  EXPECT_NE(conv.output.find("is empty"), std::string::npos) << conv.output;
  std::remove(empty.c_str());
}

TEST_F(CliTest, InputPreflightRefusesFifoByName) {
  // A FIFO with no writer as --input: every stream-reading subcommand
  // refuses it by name at once instead of waiting for a writer.
  const gps::engine_test::ScopedTempDir dir("cli", "fifo_input");
  std::filesystem::create_directories(dir);
  const std::string fifo = dir / "fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const std::string output = (dir / "out.gps").string();
  for (const std::string& command : std::vector<std::string>{
           "estimate --capacity 100", "monitor --every 1000", "exact",
           "convert --output " + output}) {
    const std::string args = command + " --input " + fifo;
    SCOPED_TRACE(args);
    std::string err;
    const CommandResult r = RunCliSplit(args, &err);
    EXPECT_EQ(r.exit_code, 1) << r.output << err;
    EXPECT_NE(err.find("'" + fifo + "' is not a regular file"),
              std::string::npos)
        << err;
  }
  EXPECT_TRUE(std::filesystem::is_fifo(fifo));
}

TEST_F(CliTest, CheckpointReadersRefuseFifoByName) {
  // A FIFO with no writer as a manifest, or standing where a shard file
  // should be: both checkpoint readers refuse it by name at once instead
  // of waiting for a writer.
  const gps::engine_test::ScopedTempDir dir("cli", "fifo_checkpoint");
  std::filesystem::create_directories(dir);
  const std::string fifo = dir / "manifest-fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const std::string checkpoint = dir / "ck";
  ASSERT_EQ(RunCli("estimate --input " + graph_path_ +
                   " --capacity 1000 --shards 2 --checkpoint " + checkpoint)
                .exit_code,
            0);
  const std::string shard = ShardFile(checkpoint, 1);
  ASSERT_TRUE(std::filesystem::remove(shard));
  ASSERT_EQ(::mkfifo(shard.c_str(), 0600), 0);
  const std::string manifest = checkpoint + "/manifest.gpsm";
  for (const auto& [args, named] :
       std::vector<std::pair<std::string, std::string>>{
           {"merge-checkpoints --manifest " + fifo, fifo},
           {"resume-shards --manifest " + fifo + " --input " + graph_path_,
            fifo},
           {"merge-checkpoints --manifest " + manifest, shard},
           {"resume-shards --manifest " + manifest + " --input " +
                graph_path_,
            shard}}) {
    SCOPED_TRACE(args);
    std::string err;
    const CommandResult r = RunCliSplit(args, &err);
    EXPECT_EQ(r.exit_code, 1) << r.output << err;
    EXPECT_NE(err.find("'" + named + "' is not a regular file"),
              std::string::npos)
        << err;
  }
  EXPECT_TRUE(std::filesystem::is_fifo(fifo));
  EXPECT_TRUE(std::filesystem::is_fifo(shard));
}

TEST_F(CliTest, EstimateRefusesCorruptBinaryByName) {
  const std::string binary = TempPath("corrupt.gps");
  ASSERT_EQ(RunCli("convert --input " + graph_path_ + " --output " +
                   binary).exit_code,
            0);
  // Flip the final byte (the last block's digest).
  std::string bytes = FileBytes(binary);
  ASSERT_GT(bytes.size(), 48u);
  bytes[bytes.size() - 1] ^= 0x01;
  {
    std::ofstream out(binary, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const CommandResult r = RunCli("estimate --input " + binary +
                                 " --capacity 100");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("digest mismatch"), std::string::npos)
      << r.output;
  std::remove(binary.c_str());
}

TEST_F(CliTest, ConvertValidatesFlags) {
  EXPECT_NE(RunCli("convert --input " + graph_path_).exit_code, 0);
  const CommandResult bad_to = RunCli("convert --input " + graph_path_ +
                                      " --output /dev/null --to xml");
  EXPECT_NE(bad_to.exit_code, 0);
  EXPECT_NE(bad_to.output.find("unknown --to 'xml'"), std::string::npos)
      << bad_to.output;
  // Binary output always has the default block size.
  const CommandResult bad_block =
      RunCli("convert --input " + graph_path_ +
             " --output /dev/null --block-edges 4");
  EXPECT_EQ(bad_block.exit_code, 2) << bad_block.output;
  EXPECT_NE(bad_block.output.find("unknown flag '--block-edges'"),
            std::string::npos)
      << bad_block.output;
}

}  // namespace
