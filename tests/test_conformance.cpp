// Instantiates the cross-backend conformance suite (tests/conformance.hpp)
// over every factory-registered backend, and proves the instantiation
// actually covers the registry — a backend registered without conformance
// coverage fails ConformanceCoverage, so the suite cannot silently rot.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "conformance.hpp"
#include "distance/dispatch.hpp"

namespace rbc {
namespace {

using conformance::ConformanceTest;

TEST_P(ConformanceTest, AnswersMatchTheReference) {
  conformance::check_answers(GetParam());
}

TEST_P(ConformanceTest, RequestErrorsFollowTheUnifiedContract) {
  conformance::check_error_contract(GetParam());
}

TEST_P(ConformanceTest, DegenerateInputsAreHandled) {
  conformance::check_degenerate_inputs(GetParam());
}

TEST_P(ConformanceTest, SerializeRoundTripIsExact) {
  conformance::check_serialize_roundtrip(GetParam());
}

TEST_P(ConformanceTest, ConcurrentSearchesAreConsistent) {
  conformance::check_concurrent_search(GetParam());
}

TEST_P(ConformanceTest, ShardedVariantsAreBitIdenticalToTheirInner) {
  conformance::check_sharded_bit_parity(GetParam());
}

TEST_P(ConformanceTest, MetricMatrixMatchesThePerMetricReference) {
  conformance::check_metric_matrix(GetParam());
}

TEST_P(ConformanceTest, UnsupportedMetricsFollowTheUniformContract) {
  conformance::check_unsupported_metric_contract(GetParam());
}

TEST_P(ConformanceTest, MetricSerializeRoundTripsPreserveTheMetric) {
  conformance::check_metric_serialize_roundtrip(GetParam());
}

TEST_P(ConformanceTest, ShardedCosineIsBitIdenticalToTheInner) {
  conformance::check_sharded_metric_parity(GetParam());
}

TEST_P(ConformanceTest, MutationEntryPointsFollowTheUniformContract) {
  conformance::check_mutation_contract(GetParam());
}

TEST_P(ConformanceTest, NonFiniteRowsAreRejected) {
  conformance::check_nonfinite_rows(GetParam());
}

TEST_P(ConformanceTest, MutateThenSearchMatchesAScratchRebuild) {
  conformance::check_mutate_then_search(GetParam());
}

TEST_P(ConformanceTest, MutatedSerializeRoundTripIsExact) {
  conformance::check_mutated_serialize_roundtrip(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredBackends, ConformanceTest,
                         ::testing::ValuesIn(registered_backends()),
                         [](const auto& info) {
                           return conformance::sanitized(info.param);
                         });

// ---------------------------------------- generic metric-space conformance

using conformance::GenericSpaceConformanceTest;

TEST_P(GenericSpaceConformanceTest, DeclaredSpacesHaveMatrixCoverage) {
  conformance::check_payload_space_coverage(GetParam());
}

TEST_P(GenericSpaceConformanceTest, AnswersMatchThePerSpaceReference) {
  conformance::check_payload_answers(GetParam());
}

TEST_P(GenericSpaceConformanceTest, RequestErrorsFollowTheUnifiedContract) {
  conformance::check_payload_error_contract(GetParam());
}

TEST_P(GenericSpaceConformanceTest, SerializeRoundTripIsExact) {
  conformance::check_payload_serialize_roundtrip(GetParam());
}

TEST_P(GenericSpaceConformanceTest, ShardedVariantsAreBitIdenticalToTheirInner) {
  conformance::check_payload_sharded_parity(GetParam());
}

TEST_P(GenericSpaceConformanceTest, ConcurrentSearchesAreConsistent) {
  conformance::check_payload_concurrent_search(GetParam());
}

INSTANTIATE_TEST_SUITE_P(PayloadCapableBackends, GenericSpaceConformanceTest,
                         ::testing::ValuesIn(
                             conformance::payload_capable_backends()),
                         [](const auto& info) {
                           return conformance::sanitized(info.param);
                         });

// The acceptance bar of the metric redesign: for every supported
// (backend, metric) pair of the dispatched backends, forcing each compiled
// ISA must return bit-identical results — the prefilter + scalar-re-measure
// contract, now holding per metric. Scoped to the backends that actually
// consult the dispatcher (trees never do; the sharded composite is pinned
// separately by its bit-parity checks).
TEST(MetricIsaParity, DispatchedBackendsAreBitIdenticalAcrossForcedIsas) {
  std::vector<dispatch::Isa> isas;
  for (const dispatch::Isa isa :
       {dispatch::Isa::kScalar, dispatch::Isa::kAvx2, dispatch::Isa::kAvx512})
    if (dispatch::isa_available(isa)) isas.push_back(isa);

  const conformance::Dataset data =
      std::move(conformance::datasets().front());
  const index_t k = 5;
  for (const std::string& backend : {std::string("bruteforce"),
                                     std::string("rbc-exact"),
                                     std::string("rbc-oneshot")}) {
    const std::vector<std::string> supported =
        make_index(backend, conformance::suite_options())
            ->info()
            .supported_metrics;
    for (const std::string& name : supported) {
      KnnResult reference;
      for (std::size_t i = 0; i < isas.size(); ++i) {
        SCOPED_TRACE(backend + " metric=" + name + " isa=" +
                     dispatch::isa_name(isas[i]));
        dispatch::force_isa(isas[i]);
        IndexOptions options = conformance::suite_options();
        options.metric = name;
        auto index = make_index(backend, options);
        index->build(data.X);  // built AND searched under the forced ISA
        KnnResult result = index->knn_search({.queries = &data.Q, .k = k}).knn;
        if (i == 0)
          reference = std::move(result);
        else
          EXPECT_TRUE(testutil::knn_equal(reference, result))
              << backend << "/" << name << " diverged between "
              << dispatch::isa_name(isas[0]) << " and "
              << dispatch::isa_name(isas[i]);
      }
    }
  }
  dispatch::clear_forced_isa();
}

// Acceptance bar of the compressed scan tier: for the exact dispatched
// backends, building with storage "fp16" or "int8" must return answers
// bit-identical to the float32 build — across every dataset, the L2-family
// metrics, and every compiled ISA. The quantized kernels only prefilter;
// survivors of the error-inflated bound are re-measured against the float
// rows (kernel_scan.hpp), so nothing observable may change.
TEST(QuantizedStorage, ExactBackendsAreBitIdenticalToFloat32AcrossIsas) {
  std::vector<dispatch::Isa> isas;
  for (const dispatch::Isa isa :
       {dispatch::Isa::kScalar, dispatch::Isa::kAvx2, dispatch::Isa::kAvx512})
    if (dispatch::isa_available(isa)) isas.push_back(isa);

  const std::vector<conformance::Dataset> sets = conformance::datasets();
  const index_t k = 5;
  for (const std::string& backend :
       {std::string("bruteforce"), std::string("rbc-exact")}) {
    for (const std::string& metric : {std::string("l2"),
                                      std::string("cosine")}) {
      for (const conformance::Dataset& data : sets) {
        for (const dispatch::Isa isa : isas) {
          dispatch::force_isa(isa);
          IndexOptions options = conformance::suite_options();
          options.metric = metric;
          auto reference = make_index(backend, options);
          reference->build(data.X);
          const KnnResult expected =
              reference->knn_search({.queries = &data.Q, .k = k}).knn;
          for (const std::string& storage : {std::string("fp16"),
                                             std::string("int8")}) {
            SCOPED_TRACE(backend + "/" + metric + "/" + storage + " on " +
                         data.name + " isa=" + dispatch::isa_name(isa));
            options.storage = storage;
            auto index = make_index(backend, options);
            index->build(data.X);
            EXPECT_EQ(index->info().storage, storage);
            EXPECT_TRUE(testutil::knn_equal(
                expected,
                index->knn_search({.queries = &data.Q, .k = k}).knn));
          }
        }
      }
    }
  }
  dispatch::clear_forced_isa();
}

// rbc-oneshot runs the quantized scan standalone (no re-measure — the
// structure is already approximate), so it reports quantized distances.
// Recall against the exact answer must stay essentially at the float32
// build's level: the codes perturb each distance by at most err_max, which
// only reorders near-ties.
TEST(QuantizedStorage, OneShotQuantizedKeepsFloat32Recall) {
  const conformance::Dataset data =
      std::move(conformance::datasets().front());
  auto exact = conformance::build_index("bruteforce", data.X);
  const KnnResult truth =
      exact->knn_search({.queries = &data.Q, .k = 1}).knn;

  IndexOptions options = conformance::suite_options();
  auto base = make_index("rbc-oneshot", options);
  base->build(data.X);
  const double base_recall = conformance::recall_at_1(
      base->knn_search({.queries = &data.Q, .k = 1}).knn, truth);

  for (const std::string& storage : {std::string("fp16"),
                                     std::string("int8")}) {
    SCOPED_TRACE("storage=" + storage);
    options.storage = storage;
    auto index = make_index("rbc-oneshot", options);
    index->build(data.X);
    EXPECT_FALSE(index->info().exact);
    const double recall = conformance::recall_at_1(
        index->knn_search({.queries = &data.Q, .k = 1}).knn, truth);
    EXPECT_GE(recall, base_recall - 0.05)
        << "quantized one-shot recall " << recall
        << " fell below the float32 build's " << base_recall;
  }
}

// Mutation composes with compressed storage: the delta-shard wrapper
// rebuilds its inner structure through the same options, so a mutated
// quantized index answers bit-identically to a mutated float32 one.
TEST(QuantizedStorage, MutatedQuantizedIndexMatchesFloat32) {
  const conformance::Dataset data =
      std::move(conformance::datasets().front());
  const Matrix<float> extra = testutil::random_matrix(7, data.X.cols(), 909);
  const std::vector<index_t> extra_ids = {900, 901, 902, 903,
                                          904, 905, 906};
  const std::vector<index_t> removed = {3, 17, 902};

  for (const std::string& backend :
       {std::string("bruteforce"), std::string("rbc-exact")}) {
    IndexOptions options = conformance::suite_options();
    options.background_merge = false;
    auto reference = make_index(backend, options);
    options.storage = "int8";
    auto quantized = make_index(backend, options);
    for (Index* index : {reference.get(), quantized.get()}) {
      index->build(data.X);
      index->insert(extra, extra_ids);
      ASSERT_EQ(index->remove(removed), 3u);
    }
    SCOPED_TRACE(backend);
    EXPECT_TRUE(testutil::knn_equal(
        reference->knn_search({.queries = &data.Q, .k = 4}).knn,
        quantized->knn_search({.queries = &data.Q, .k = 4}).knn));
  }
}

// The capability matrix: quantized modes exist exactly where the Euclidean
// scan kernels run. Everything else rejects them with the uniform
// invalid_argument shape, and declares float32-only support.
TEST(QuantizedStorage, UnsupportedCombinationsFollowTheUniformContract) {
  const auto expect_rejected = [](const std::string& backend,
                                  IndexOptions options) {
    options.storage = "int8";
    try {
      (void)make_index(backend, options);
      FAIL() << backend << " accepted storage 'int8' under metric '"
             << options.metric << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported storage"),
                std::string::npos)
          << e.what();
    }
  };
  IndexOptions options = conformance::suite_options();
  // Scan backends: quantized tied to the L2 family.
  options.metric = "l1";
  for (const std::string& backend :
       {std::string("bruteforce"), std::string("rbc-exact"),
        std::string("rbc-oneshot"), std::string("sharded:bruteforce")})
    expect_rejected(backend, options);
  options.metric = "ip";
  expect_rejected("bruteforce", options);
  // Trees and device backends: float32 only, every metric.
  options.metric = "l2";
  for (const std::string& backend :
       {std::string("kdtree"), std::string("balltree"),
        std::string("covertree"), std::string("gpu-bf"),
        std::string("gpu-oneshot")})
    expect_rejected(backend, options);
  // Unknown names are caller errors too.
  options.storage = "int4";
  EXPECT_THROW((void)make_index("bruteforce", options),
               std::invalid_argument);

  // The declared capability matrix matches: quantized names present for
  // the scan backends, absent for the trees.
  const std::vector<std::string> quantized = {"float32", "fp16", "int8"};
  EXPECT_EQ(make_index("bruteforce")->info().supported_storage, quantized);
  EXPECT_EQ(make_index("rbc-exact")->info().supported_storage, quantized);
  EXPECT_EQ(make_index("sharded:rbc-exact", conformance::suite_options())
                ->info()
                .supported_storage,
            quantized);
  EXPECT_EQ(make_index("kdtree")->info().supported_storage,
            std::vector<std::string>{"float32"});
}

// The registry is the source of truth: every registered backend must have
// instantiated conformance tests. This walks gtest's own test registry, so
// replacing the ValuesIn source above with a hardcoded subset — the failure
// mode the old copy-pasted per-backend tests had — fails here.
TEST(ConformanceCoverage, EveryRegisteredBackendIsInstantiated) {
  std::set<std::string> instantiated;
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  for (int i = 0; i < unit.total_test_suite_count(); ++i) {
    const ::testing::TestSuite& suite = *unit.GetTestSuite(i);
    if (std::string(suite.name()).find("ConformanceTest") == std::string::npos)
      continue;
    for (int j = 0; j < suite.total_test_count(); ++j)
      if (const char* param = suite.GetTestInfo(j)->value_param())
        instantiated.insert(param);
  }
  for (const std::string& backend : registered_backends()) {
    // value_param() is PrintToString of the std::string param — quoted.
    EXPECT_TRUE(instantiated.count('"' + backend + '"') == 1)
        << "registered backend '" << backend
        << "' has no instantiated conformance tests";
  }
}

// Same source-of-truth rule for the generic metric-space matrix: every
// backend that declares payload capability (non-empty supported_spaces)
// must have instantiated generic-space conformance tests — narrowing the
// ValuesIn source above to a hardcoded subset fails here.
TEST(ConformanceCoverage, EveryPayloadCapableBackendIsInstantiated) {
  std::set<std::string> instantiated;
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  for (int i = 0; i < unit.total_test_suite_count(); ++i) {
    const ::testing::TestSuite& suite = *unit.GetTestSuite(i);
    if (std::string(suite.name()).find("GenericSpaceConformanceTest") ==
        std::string::npos)
      continue;
    for (int j = 0; j < suite.total_test_count(); ++j)
      if (const char* param = suite.GetTestInfo(j)->value_param())
        instantiated.insert(param);
  }
  for (const std::string& backend : registered_backends()) {
    const bool payload_capable =
        !make_index(backend, conformance::suite_options())
             ->info()
             .supported_spaces.empty();
    if (!payload_capable) continue;
    EXPECT_TRUE(instantiated.count('"' + backend + '"') == 1)
        << "backend '" << backend
        << "' declares supported_spaces but has no instantiated "
           "generic-space conformance tests";
  }
}

// Same source-of-truth rule for the mutation matrix: every backend that
// declares supports_mutation must have instantiated mutate-then-search
// coverage — a backend opting into mutation without the conformance lock
// (e.g. by instantiating the suite from a hardcoded subset) fails here.
TEST(ConformanceCoverage, EveryMutableBackendHasMutationTests) {
  std::set<std::string> instantiated;
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  for (int i = 0; i < unit.total_test_suite_count(); ++i) {
    const ::testing::TestSuite& suite = *unit.GetTestSuite(i);
    if (std::string(suite.name()).find("ConformanceTest") == std::string::npos)
      continue;
    for (int j = 0; j < suite.total_test_count(); ++j) {
      const ::testing::TestInfo& info = *suite.GetTestInfo(j);
      if (std::string(info.name()).find("MutateThenSearch") ==
          std::string::npos)
        continue;
      if (const char* param = info.value_param()) instantiated.insert(param);
    }
  }
  for (const std::string& backend : registered_backends()) {
    const bool mutable_backend =
        make_index(backend, conformance::suite_options())
            ->info()
            .supports_mutation;
    if (!mutable_backend) continue;
    EXPECT_TRUE(instantiated.count('"' + backend + '"') == 1)
        << "backend '" << backend
        << "' declares supports_mutation but has no instantiated "
           "mutate-then-search conformance tests";
  }
}

}  // namespace
}  // namespace rbc
