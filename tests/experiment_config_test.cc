// Tests for the experiment-config parser behind tools/objrep_driver.
#include <gtest/gtest.h>

#include "core/experiment_config.h"

namespace objrep {
namespace {

TEST(ExperimentConfigTest, ParsesFullConfig) {
  const char* text = R"(
# a comment
parents = 2000
size_unit = 5
use_factor = 4        # trailing comment
overlap_factor = 1
child_rels = 2
buffer_pages = 50
cache = on
size_cache = 300
cluster = off
seed = 99

queries = 77
num_top = 12
pr_update = 0.25
update_batch = 3
hot_access_prob = 0.5
hot_region_fraction = 0.2
smart_threshold = 123

strategies = DFS, bfs, DfsCache
)";
  ExperimentConfig cfg;
  ASSERT_TRUE(ParseExperimentConfig(text, &cfg).ok());
  EXPECT_EQ(cfg.db.num_parents, 2000u);
  EXPECT_EQ(cfg.db.use_factor, 4u);
  EXPECT_EQ(cfg.db.num_child_rels, 2u);
  EXPECT_EQ(cfg.db.buffer_pages, 50u);
  EXPECT_TRUE(cfg.db.build_cache);
  EXPECT_EQ(cfg.db.size_cache, 300u);
  EXPECT_FALSE(cfg.db.build_cluster);
  EXPECT_EQ(cfg.db.seed, 99u);
  EXPECT_EQ(cfg.workload.num_queries, 77u);
  EXPECT_EQ(cfg.workload.num_top, 12u);
  EXPECT_DOUBLE_EQ(cfg.workload.pr_update, 0.25);
  EXPECT_EQ(cfg.workload.update_batch, 3u);
  EXPECT_DOUBLE_EQ(cfg.workload.hot_access_prob, 0.5);
  EXPECT_EQ(cfg.options.smart_threshold, 123u);
  ASSERT_EQ(cfg.strategies.size(), 3u);
  EXPECT_EQ(cfg.strategies[0], StrategyKind::kDfs);
  EXPECT_EQ(cfg.strategies[1], StrategyKind::kBfs);
  EXPECT_EQ(cfg.strategies[2], StrategyKind::kDfsCache);
}

TEST(ExperimentConfigTest, AutoProvisionsStructures) {
  ExperimentConfig cfg;
  ASSERT_TRUE(
      ParseExperimentConfig("strategies = DFSCLUST, SMART", &cfg).ok());
  EXPECT_TRUE(cfg.db.build_cluster);
  EXPECT_TRUE(cfg.db.build_cache);
  ASSERT_TRUE(
      ParseExperimentConfig("strategies = DFSCLUST+CACHE", &cfg).ok());
  EXPECT_TRUE(cfg.db.build_cluster);
  EXPECT_TRUE(cfg.db.build_cache);
  ASSERT_TRUE(ParseExperimentConfig("strategies = BFS-JI", &cfg).ok());
  EXPECT_TRUE(cfg.db.build_join_index);
}

TEST(ExperimentConfigTest, ErrorsNameTheLine) {
  ExperimentConfig cfg;
  Status s = ParseExperimentConfig("parents = 100\nbogus_key = 3\n", &cfg);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);

  s = ParseExperimentConfig("parents = notanumber\nstrategies = DFS", &cfg);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 1"), std::string::npos);

  s = ParseExperimentConfig("parents 100\nstrategies = DFS", &cfg);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("key = value"), std::string::npos);
}

TEST(ExperimentConfigTest, NumbersAreWholeAndFinite) {
  ExperimentConfig cfg;
  for (const char* line :
       {"pr_update = nan", "pr_update = inf", "hot_region_fraction = -inf",
        "pr_update = 0.5x", "parents = -5", "parents = +5",
        "parents = 4294967296", "seed = 1e3", "buffer_pages = 0x10"}) {
    std::string text = std::string(line) + "\nstrategies = DFS";
    EXPECT_TRUE(ParseExperimentConfig(text, &cfg).IsInvalidArgument())
        << line;
  }
  ASSERT_TRUE(ParseExperimentConfig(
                  "pr_update = 1e-1\nparents = 4000\nstrategies = DFS", &cfg)
                  .ok());
  EXPECT_DOUBLE_EQ(cfg.workload.pr_update, 0.1);
}

TEST(ExperimentConfigTest, RequiresStrategies) {
  ExperimentConfig cfg;
  Status s = ParseExperimentConfig("parents = 1000\n", &cfg);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no strategies"), std::string::npos);
}

TEST(ExperimentConfigTest, RejectsUnknownStrategy) {
  ExperimentConfig cfg;
  Status s = ParseExperimentConfig("strategies = DFS, WARPDRIVE", &cfg);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("WARPDRIVE"), std::string::npos);
}

TEST(ExperimentConfigTest, ValidatesSpecAfterParsing) {
  ExperimentConfig cfg;
  // use_factor 3 does not divide 10000 parents.
  Status s =
      ParseExperimentConfig("use_factor = 3\nstrategies = DFS", &cfg);
  EXPECT_FALSE(s.ok());
}

TEST(ExperimentConfigTest, StrategyNamesRoundTrip) {
  for (StrategyKind kind :
       {StrategyKind::kDfs, StrategyKind::kBfs, StrategyKind::kBfsNoDup,
        StrategyKind::kDfsCache, StrategyKind::kDfsClust,
        StrategyKind::kSmart, StrategyKind::kDfsClustCache}) {
    StrategyKind parsed;
    ASSERT_TRUE(ParseStrategyName(StrategyKindName(kind), &parsed).ok())
        << StrategyKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
}

TEST(ExperimentConfigTest, OnOffSpellings) {
  ExperimentConfig cfg;
  ASSERT_TRUE(
      ParseExperimentConfig("cache = TRUE\nstrategies = DFS", &cfg).ok());
  EXPECT_TRUE(cfg.db.build_cache);
  ASSERT_TRUE(
      ParseExperimentConfig("cache = 0\nstrategies = DFS", &cfg).ok());
  EXPECT_FALSE(cfg.db.build_cache);
  EXPECT_FALSE(
      ParseExperimentConfig("cache = maybe\nstrategies = DFS", &cfg).ok());
}

}  // namespace
}  // namespace objrep
