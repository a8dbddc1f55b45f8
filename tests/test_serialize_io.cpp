#include <gtest/gtest.h>

#include <sstream>

#include "common/matrix.hpp"
#include "rbc/serialize_io.hpp"

namespace rbc::io {
namespace {

TEST(SerializeIo, PodRoundTrip) {
  std::stringstream stream;
  write_pod(stream, std::uint32_t{0xDEADBEEF});
  write_pod(stream, 3.25);
  write_pod(stream, std::int64_t{-42});
  std::uint32_t a = 0;
  double b = 0;
  std::int64_t c = 0;
  read_pod(stream, a);
  read_pod(stream, b);
  read_pod(stream, c);
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, 3.25);
  EXPECT_EQ(c, -42);
}

TEST(SerializeIo, ExpectPodThrowsOnMismatch) {
  std::stringstream stream;
  write_pod(stream, std::uint32_t{1});
  EXPECT_THROW(expect_pod(stream, std::uint32_t{2}, "field"),
               std::runtime_error);
}

TEST(SerializeIo, TruncatedPodThrows) {
  std::stringstream stream;
  stream.write("ab", 2);
  std::uint64_t value = 0;
  EXPECT_THROW(read_pod(stream, value), std::runtime_error);
}

TEST(SerializeIo, StringRoundTrip) {
  std::stringstream stream;
  write_string(stream, "l2");
  write_string(stream, "");
  write_string(stream, std::string(1000, 'x'));
  EXPECT_EQ(read_string(stream), "l2");
  EXPECT_EQ(read_string(stream), "");
  EXPECT_EQ(read_string(stream).size(), 1000u);
}

TEST(SerializeIo, ParamsRoundTripFieldByField) {
  // Every field off its default, so a swapped or dropped field shows.
  const RbcParams params{.num_reps = 17,
                         .points_per_rep = 23,
                         .seed = 0x0123456789ABCDEFull,
                         .sampling = Sampling::kBernoulli,
                         .use_overlap_rule = false,
                         .use_lemma_rule = true,
                         .use_early_exit = false,
                         .use_annulus_bound = true,
                         .approx_eps = 0.25f,
                         .num_probes = 3};
  std::stringstream stream;
  write_params(stream, params);
  // 4 + 4 + 8 bytes, 5 one-byte fields, 4 + 4 bytes: no padding.
  EXPECT_EQ(stream.str().size(), 29u);
  const RbcParams back = read_params(stream);
  EXPECT_EQ(back.num_reps, params.num_reps);
  EXPECT_EQ(back.points_per_rep, params.points_per_rep);
  EXPECT_EQ(back.seed, params.seed);
  EXPECT_EQ(back.sampling, params.sampling);
  EXPECT_EQ(back.use_overlap_rule, params.use_overlap_rule);
  EXPECT_EQ(back.use_lemma_rule, params.use_lemma_rule);
  EXPECT_EQ(back.use_early_exit, params.use_early_exit);
  EXPECT_EQ(back.use_annulus_bound, params.use_annulus_bound);
  EXPECT_EQ(back.approx_eps, params.approx_eps);
  EXPECT_EQ(back.num_probes, params.num_probes);
}

TEST(SerializeIo, VecRoundTripIncludingEmpty) {
  std::stringstream stream;
  const std::vector<float> values = {1.5f, -2.25f, 0.0f};
  const std::vector<index_t> empty;
  write_vec(stream, values);
  write_vec(stream, empty);
  std::vector<float> values_back;
  std::vector<index_t> empty_back = {7};  // must be cleared by read
  read_vec(stream, values_back);
  read_vec(stream, empty_back);
  EXPECT_EQ(values_back, values);
  EXPECT_TRUE(empty_back.empty());
}

TEST(SerializeIo, MatrixRoundTripDropsPadding) {
  Matrix<float> m(3, 21);  // stride 32: padding must not be serialized
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 21; ++j)
      m.at(i, j) = static_cast<float>(i * 100 + j);
  std::stringstream stream;
  write_matrix(stream, m);
  // Payload: 2 dims + 3*21 floats — no stride leakage.
  EXPECT_EQ(stream.str().size(), 2 * sizeof(index_t) + 63 * sizeof(float));
  const Matrix<float> back = read_matrix(stream);
  ASSERT_EQ(back.rows(), 3u);
  ASSERT_EQ(back.cols(), 21u);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 21; ++j) EXPECT_EQ(back.at(i, j), m.at(i, j));
    for (index_t j = 21; j < back.stride(); ++j)
      EXPECT_EQ(back.row(i)[j], 0.0f) << "padding must be re-zeroed";
  }
}

TEST(SerializeIo, TruncatedMatrixThrows) {
  Matrix<float> m(4, 8);
  std::stringstream stream;
  write_matrix(stream, m);
  const std::string full = stream.str();
  std::stringstream cut(full.substr(0, full.size() - 10));
  EXPECT_THROW((void)read_matrix(cut), std::runtime_error);
}

}  // namespace
}  // namespace rbc::io
