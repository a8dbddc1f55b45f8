#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <sstream>
#include <string>

#include "api/api.hpp"
#include "metricspace/dataset.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

// RbcParams has padding bytes, which constructing it leaves as it found
// them, and the dense and payload streams store the params. Builds from
// equal params constructed over storage holding different garbage must
// still save identical bytes.
TEST(Serialize, SavedBytesDoNotDependOnParamsPadding) {
  const Matrix<float> X = testutil::clustered_matrix(300, 6, 4, 21);
  const metricspace::DatasetHandle words = metricspace::make_string_dataset(
      {"ab", "abc", "b", "bca", "cab", "abcd", "dc", "cd", "a", "bb"});
  const auto save = [&](unsigned char garbage, const std::string& kind) {
    alignas(RbcParams) unsigned char storage[sizeof(RbcParams)];
    std::memset(storage, garbage, sizeof storage);
    const RbcParams& params = *::new (storage)
        RbcParams{.num_reps = 12, .points_per_rep = 20, .seed = 3};
    IndexOptions options;
    options.rbc = params;
    std::ostringstream os;
    if (kind == "dense") {
      auto index = make_index("rbc-oneshot", options);
      index->build(X);
      index->save(os);
    } else {
      options.metric = "edit";
      auto index = make_index("rbc-exact", options);
      index->build_payload(words);
      index->save(os);
    }
    return os.str();
  };
  for (const std::string kind : {"dense", "payload"})
    EXPECT_EQ(save(0x00, kind), save(0xA5, kind)) << kind;
}

}  // namespace
}  // namespace rbc
