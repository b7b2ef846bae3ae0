#include "common/args.h"

#include <gtest/gtest.h>

namespace taskbench {
namespace {

Args Make(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, PositionalAndOptions) {
  const Args args = Make({"run", "--grid=4x4", "--processor", "GPU"});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.GetString("grid"), "4x4");
  EXPECT_EQ(args.GetString("processor"), "GPU");
  EXPECT_EQ(args.GetString("missing", "dflt"), "dflt");
}

TEST(ArgsTest, BareFlagIsTrue) {
  const Args args = Make({"--verbose", "--csv=out.csv"});
  auto verbose = args.GetBool("verbose", false);
  ASSERT_TRUE(verbose.ok());
  EXPECT_TRUE(*verbose);
  auto absent = args.GetBool("quiet", false);
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);
}

TEST(ArgsTest, IntParsing) {
  const Args args = Make({"--iters=12", "--bad=12x"});
  auto good = args.GetInt("iters", 0);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 12);
  EXPECT_FALSE(args.GetInt("bad", 0).ok());
  auto fallback = args.GetInt("absent", 7);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(*fallback, 7);
}

TEST(ArgsTest, DoubleParsing) {
  const Args args = Make({"--lr=0.5"});
  auto lr = args.GetDouble("lr", 0);
  ASSERT_TRUE(lr.ok());
  EXPECT_DOUBLE_EQ(*lr, 0.5);
}

TEST(ArgsTest, BoolRejectsGarbage) {
  const Args args = Make({"--flag=banana"});
  EXPECT_FALSE(args.GetBool("flag", false).ok());
}

TEST(ArgsTest, SpaceSeparatedValueNotConsumedForNextOption) {
  const Args args = Make({"--a", "--b=2"});
  auto a = args.GetBool("a", false);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(*a);
  EXPECT_EQ(args.GetString("b"), "2");
}

TEST(ArgsTest, UnknownKeysDetectsTypos) {
  const Args args = Make({"--grdi=4x4", "--processor=CPU"});
  EXPECT_EQ(args.GetString("grid", "8x8"), "8x8");
  EXPECT_EQ(args.GetString("processor"), "CPU");
  const auto unknown = args.UnreadKeys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "grdi");
  const Status status = args.CheckAllRead();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("--grdi"), std::string::npos)
      << status.ToString();
}

TEST(ArgsTest, EveryAccessorMarksItsKeyRead) {
  const Args args =
      Make({"--s=x", "--i=1", "--d=0.5", "--b", "--h=1", "--never=2"});
  EXPECT_EQ(args.UnreadKeys().size(), 6u);
  args.GetString("s");
  ASSERT_TRUE(args.GetInt("i", 0).ok());
  ASSERT_TRUE(args.GetDouble("d", 0).ok());
  ASSERT_TRUE(args.GetBool("b", false).ok());
  EXPECT_TRUE(args.Has("h"));
  EXPECT_EQ(args.UnreadKeys(), std::vector<std::string>{"never"});
}

TEST(ArgsTest, CheckAllReadNamesEveryUnreadKey) {
  const Args args = Make({"run", "--grid=4x4", "--zz=1", "--aa"});
  args.GetString("grid");
  args.GetString("absent");  // reading an absent key is harmless
  const Status status = args.CheckAllRead();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("--aa, --zz"), std::string::npos)
      << status.ToString();
  args.GetBool("aa", false);
  args.GetInt("zz", 0);
  EXPECT_TRUE(args.CheckAllRead().ok());
}

TEST(ArgsTest, PathOptionRefusesBareUse) {
  const Args args = Make({"--trace", "--csv=", "--out", "o.json",
                          "--metrics-json=m.json", "--again", "--again=a"});
  const auto bare = args.GetPath("trace");
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bare.status().message().find("--trace"), std::string::npos)
      << bare.status().ToString();
  EXPECT_FALSE(args.GetPath("csv").ok());  // an empty path is no path
  EXPECT_EQ(*args.GetPath("out"), "o.json");
  EXPECT_EQ(*args.GetPath("metrics-json"), "m.json");
  EXPECT_EQ(*args.GetPath("again"), "a");  // the last value wins
  EXPECT_EQ(*args.GetPath("absent"), "");
  EXPECT_TRUE(args.CheckAllRead().ok());  // GetPath marks keys read
}

TEST(ArgsTest, NoOptionsPassesCheck) {
  const Args args = Make({"run", "positional"});
  EXPECT_TRUE(args.UnreadKeys().empty());
  EXPECT_TRUE(args.CheckAllRead().ok());
}

}  // namespace
}  // namespace taskbench
