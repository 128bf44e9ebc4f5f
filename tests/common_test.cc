#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/aligned.h"
#include "common/csv.h"
#include "common/fnv1a.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace mllibstar {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kIoError,
        StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::Ok();
}

Result<int> DoubleIfPositive(int x) {
  MLLIBSTAR_RETURN_NOT_OK(FailIfNegative(x));
  return 2 * x;
}

Result<int> ChainedMacro(int x) {
  MLLIBSTAR_ASSIGN_OR_RETURN(int doubled, DoubleIfPositive(x));
  return doubled + 1;
}

TEST(ResultTest, MacrosPropagateErrors) {
  EXPECT_EQ(ChainedMacro(3).value(), 7);
  EXPECT_EQ(ChainedMacro(-3).status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, SplitKeepsEmptyPieces) {
  const auto pieces = StrSplit("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
}

TEST(StringsTest, SplitEmptyString) {
  const auto pieces = StrSplit("", ',');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "");
}

TEST(StringsTest, JoinRoundTrips) {
  EXPECT_EQ(StrJoin({"x", "y", "z"}, ","), "x,y,z");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringsTest, TrimRemovesWhitespace) {
  EXPECT_EQ(StrTrim("  a b \t\r\n"), "a b");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim(" \t "), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StrStartsWith("hello", "he"));
  EXPECT_TRUE(StrStartsWith("hello", ""));
  EXPECT_FALSE(StrStartsWith("he", "hello"));
}

TEST(StringsTest, ParseInt64Valid) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64("0").value(), 0);
}

TEST(StringsTest, ParseInt64Invalid) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
}

TEST(StringsTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-2e3").value(), -2000.0);
}

TEST(StringsTest, ParseDoubleInvalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5junk").ok());
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2 KB");
  EXPECT_EQ(HumanBytes(uint64_t{3} * 1024 * 1024 * 1024), "3 GB");
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedDrawRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RngTest, BoundedDrawsArePinned) {
  // Recorded before the rejection threshold became lazy: the same
  // draws, the same rejections (2^63 + 1 rejects almost half of them)
  // and the same generator state after them, pinned by the next
  // unbounded draw.
  const struct {
    uint64_t bound;
    uint64_t digest;
  } cases[] = {
      {1, 0xe76336b54e37f6ceull},
      {17, 0x63bf8229bbe3d309ull},
      {1870, 0x0b61f1e53204db15ull},
      {18705, 0x5c25e2bf7b0558b5ull},
      {(uint64_t{1} << 32) + 15, 0x401dfec4867b8da4ull},
      {(uint64_t{1} << 63) + 1, 0x8171550f59f7ce00ull},
      {~uint64_t{0}, 0x2b12271f8f8d4b69ull},
  };
  for (const auto& c : cases) {
    Rng rng(2024);
    uint64_t digest = kFnv1aBasis;
    for (int i = 0; i < 10000; ++i) Fnv1aMix(rng.NextUint64(c.bound), &digest);
    Fnv1aMix(rng.NextUint64(), &digest);
    EXPECT_EQ(digest, c.digest) << "bound " << c.bound;
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ZipfStaysInRangeAndIsSkewed) {
  Rng rng(13);
  const uint64_t n = 1000;
  const ZipfSampler zipf(n, 1.2);
  int low_bucket = 0;
  const int draws = 10000;
  for (int i = 0; i < draws; ++i) {
    const uint64_t k = zipf.Draw(&rng);
    ASSERT_LT(k, n);
    if (k < n / 10) ++low_bucket;
  }
  // A skewed distribution puts far more than 10% of mass in the lowest
  // 10% of indices.
  EXPECT_GT(low_bucket, draws / 2);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(21);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextUint64(), child.NextUint64());
}

// ------------------------------------------------------ AlignedVector

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerHeap = true;  // malloc is the sanitizer's own
#else
constexpr bool kSanitizerHeap = false;
#endif

// The process's resident set, from /proc/self/statm.
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t pages = 0;
  size_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

// Heap blocks: below malloc's mmap threshold, above its small bins.
constexpr size_t kBlock = size_t{64} << 10;

// Leaves `bytes` of written, freed memory inside the malloc heap:
// blocks each written with 'x', every other one freed. The live blocks
// between keep the free ones from merging into the heap top, so their
// pages stay resident until released. Returns the live blocks.
std::vector<std::unique_ptr<char[]>> LeaveResidentFreeMemory(size_t bytes) {
  std::vector<std::unique_ptr<char[]>> blocks;
  for (size_t done = 0; done < 2 * bytes; done += kBlock) {
    blocks.emplace_back(new char[kBlock]);
    std::fill_n(blocks.back().get(), kBlock, 'x');
  }
  std::vector<std::unique_ptr<char[]>> live;
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (i % 2 == 1) live.push_back(std::move(blocks[i]));
  }
  blocks.clear();
  return live;
}

// Allocating a dataset-sized array hands the heap's free pages back to
// the OS, and so does freeing one: the resident set then follows the
// live arrays, not the heap's layout (DESIGN §17).
TEST(AlignedVectorTest, DatasetSizedArraysReleaseFreeHeapPages) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "releasing free heap pages needs glibc's malloc_trim";
#endif
  if (kSanitizerHeap) GTEST_SKIP() << "the sanitizer owns malloc's heap";
  constexpr size_t kFree = size_t{16} << 20;
  constexpr size_t kMargin = size_t{8} << 20;

  // Live data survives every release.
  const auto expect_live =
      [](const std::vector<std::unique_ptr<char[]>>& live) {
        for (const auto& block : live) {
          EXPECT_EQ(std::count(block.get(), block.get() + kBlock, 'x'),
                    static_cast<std::ptrdiff_t>(kBlock));
        }
      };

  // Allocating: 16 MiB free and resident before; the new array itself
  // writes 1 MiB.
  {
    const auto live = LeaveResidentFreeMemory(kFree);
    const size_t before = ResidentBytes();
    AlignedVector<char> array(kHeapReleaseBytes, 'a');
    EXPECT_LT(ResidentBytes() + kMargin, before);
    expect_live(live);
  }
  // Freeing: the array is live while 16 MiB of free memory is left.
  {
    auto array = std::make_unique<AlignedVector<char>>(kHeapReleaseBytes);
    const auto live = LeaveResidentFreeMemory(kFree);
    const size_t before = ResidentBytes();
    array.reset();
    EXPECT_LT(ResidentBytes() + kMargin, before);
    expect_live(live);
  }
  // Arrays below the size leave the free pages where they are.
  {
    const auto live = LeaveResidentFreeMemory(kFree);
    const size_t before = ResidentBytes();
    { AlignedVector<char> array(kHeapReleaseBytes / 2, 'a'); }
    EXPECT_GT(ResidentBytes() + kMargin, before);
    expect_live(live);
  }
}

// ---------------------------------------------------------------- CSV

TEST(CsvTest, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "/csv_test.csv";
  {
    auto writer = CsvWriter::Open(path, {"a", "b"});
    ASSERT_TRUE(writer.ok());
    writer->WriteRow({"1", "2"});
    writer->WriteRow({"3", "4"});
    writer->Flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4");
}

TEST(CsvTest, OpenFailsOnBadPath) {
  auto writer = CsvWriter::Open("/nonexistent-dir/x.csv", {"a"});
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitAll();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitAll();
  EXPECT_EQ(counter.load(), 1);
}

// SparkCluster keeps one long-lived pool across many rounds, so the
// pool must accept work after a WaitAll round-trip (regression test:
// WaitAll is a fence, not a shutdown).
TEST(ThreadPoolTest, SubmitAfterWaitAllStillExecutes) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.WaitAll();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

// Stress: many tiny tasks submitted concurrently from several
// producer threads into one shared pool. Run under ASan/UBSan in CI.
TEST(ThreadPoolTest, ManyProducersManySmallTasksStress) {
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 500;
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.WaitAll();
  EXPECT_EQ(counter.load(), kProducers * kTasksPerProducer);
}

// WaitAll from several threads at once must all unblock.
TEST(ThreadPoolTest, ConcurrentWaitAllUnblocks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&pool] { pool.WaitAll(); });
  }
  for (auto& t : waiters) t.join();
  EXPECT_EQ(counter.load(), 100);
}

}  // namespace
}  // namespace mllibstar
