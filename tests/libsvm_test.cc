#include "data/libsvm.h"

#include <gtest/gtest.h>

#include <fstream>

namespace mllibstar {
namespace {

std::string WriteTempFile(const std::string& name,
                          const std::string& contents) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(LibSvmReadTest, ParsesOneBasedFile) {
  const std::string path = WriteTempFile(
      "onebased.svm", "+1 1:0.5 3:1.5\n-1 2:2.0\n");
  auto result = ReadLibSvm(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& ds = *result;
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.num_features(), 3u);
  EXPECT_DOUBLE_EQ(ds.point(0).label, 1.0);
  EXPECT_EQ(ds.point(0).features.indices[0], 0u);  // shifted to 0-based
  EXPECT_DOUBLE_EQ(ds.point(0).features.values[1], 1.5);
  EXPECT_DOUBLE_EQ(ds.point(1).label, -1.0);
}

TEST(LibSvmReadTest, ParsesZeroBasedFile) {
  const std::string path = WriteTempFile(
      "zerobased.svm", "1 0:1.0 4:2.0\n");
  auto result = ReadLibSvm(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_features(), 5u);
  EXPECT_EQ(result->point(0).features.indices[0], 0u);
}

TEST(LibSvmReadTest, MapsZeroOneLabels) {
  const std::string path = WriteTempFile("zeroone.svm", "0 1:1\n1 1:1\n");
  auto result = ReadLibSvm(path);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->point(0).label, -1.0);
  EXPECT_DOUBLE_EQ(result->point(1).label, 1.0);
}

TEST(LibSvmReadTest, SkipsCommentsAndBlankLines) {
  const std::string path = WriteTempFile(
      "comments.svm", "# header\n\n+1 1:1\n   \n-1 2:1\n");
  auto result = ReadLibSvm(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(LibSvmReadTest, ForcedFeatureCount) {
  const std::string path = WriteTempFile("forced.svm", "+1 1:1\n");
  auto result = ReadLibSvm(path, 100);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_features(), 100u);
}

TEST(LibSvmReadTest, MissingFileIsIoError) {
  auto result = ReadLibSvm("/does/not/exist.svm");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(LibSvmReadTest, MalformedTokenIsInvalidArgument) {
  const std::string path = WriteTempFile("bad.svm", "+1 nonsense\n");
  auto result = ReadLibSvm(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LibSvmReadTest, NegativeIndexRejected) {
  const std::string path = WriteTempFile("neg.svm", "+1 -2:1\n");
  auto result = ReadLibSvm(path);
  EXPECT_FALSE(result.ok());
}

TEST(LibSvmReadTest, IndexPastFeatureIndexIsOutOfRange) {
  // 2^32 would truncate to 0 and the 1-based shift would wrap it.
  const std::string path = WriteTempFile("wide.svm", "1 4294967296:1\n");
  auto result = ReadLibSvm(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(LibSvmReadTest, LargestFeatureIndexIsAccepted) {
  const std::string path = WriteTempFile("widest.svm", "1 0:1 4294967295:1\n");
  auto result = ReadLibSvm(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_features(), size_t{1} << 32);
  EXPECT_EQ(result->point(0).features.indices[1], 4294967295u);
}

TEST(LibSvmReadTest, NonFiniteLabelIsInvalidArgument) {
  for (const char* label : {"nan", "inf", "-inf"}) {
    const std::string path = WriteTempFile(
        "nanlabel.svm", std::string(label) + " 1:1\n");
    auto result = ReadLibSvm(path);
    EXPECT_FALSE(result.ok()) << label;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << label;
  }
}

TEST(LibSvmReadTest, NonFiniteValueIsInvalidArgument) {
  for (const char* value : {"nan", "inf", "-inf"}) {
    const std::string path = WriteTempFile(
        "nanvalue.svm", "1 1:1 2:" + std::string(value) + "\n");
    auto result = ReadLibSvm(path);
    EXPECT_FALSE(result.ok()) << value;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << value;
  }
}

TEST(LibSvmRoundTripTest, WriteThenReadPreservesData) {
  Dataset ds(4, "rt");
  DataPoint p1;
  p1.label = 1.0;
  p1.features.Push(0, 0.5);
  p1.features.Push(3, -1.25);
  ds.Add(p1);
  DataPoint p2;
  p2.label = -1.0;
  p2.features.Push(1, 2.0);
  ds.Add(p2);

  const std::string path = testing::TempDir() + "/roundtrip.svm";
  ASSERT_TRUE(WriteLibSvm(ds, path).ok());
  auto result = ReadLibSvm(path, 4);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_DOUBLE_EQ(result->point(0).label, 1.0);
  EXPECT_EQ(result->point(0).features.indices[1], 3u);
  EXPECT_DOUBLE_EQ(result->point(0).features.values[1], -1.25);
  EXPECT_DOUBLE_EQ(result->point(1).features.values[0], 2.0);
}

}  // namespace
}  // namespace mllibstar
