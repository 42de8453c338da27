// Shared CLI/option parsing: list splitting, strict numeric parsing,
// and the algorithm-name parser the tools and the service share.
#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "util/error.h"
#include "util/options.h"

namespace pviz {
namespace {

TEST(SplitList, BasicAndEmptyTokens) {
  EXPECT_EQ(util::splitList("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(util::splitList("a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(util::splitList("").empty());
  EXPECT_TRUE(util::splitList(",,,").empty());
  EXPECT_EQ(util::splitList("solo"), (std::vector<std::string>{"solo"}));
}

TEST(ParseInt, StrictWholeToken) {
  EXPECT_EQ(util::parseInt("42", "x"), 42);
  EXPECT_EQ(util::parseInt("-7", "x"), -7);
  EXPECT_THROW(util::parseInt("", "x"), Error);
  EXPECT_THROW(util::parseInt("12x", "x"), Error);
  EXPECT_THROW(util::parseInt("x12", "x"), Error);
  EXPECT_THROW(util::parseInt("1.5", "x"), Error);
  EXPECT_THROW(util::parseInt("99999999999999999999999", "x"), Error);
}

TEST(ParseInt, RejectsWithThePlainFlagAndToken) {
  // A usage error names the flag and the token, not a source location.
  for (const char* token : {"", "12x", "1.5", "99999999999999999999"}) {
    SCOPED_TRACE(token);
    try {
      util::parseInt(token, "--port");
      ADD_FAILURE() << "accepted";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--port: '") + token + "' is not an integer");
    }
  }
}

TEST(ParseBounded, AcceptsTheClosedRange) {
  EXPECT_EQ(util::parseBounded("1", "--cycles", 1, 1000), 1);
  EXPECT_EQ(util::parseBounded("1000", "--cycles", 1, 1000), 1000);
  EXPECT_EQ(util::parseBounded("-3", "--x", -3, -3), -3);
}

TEST(ParseBounded, RejectsWithTheFlagAndTheRange) {
  for (const char* token :
       {"0", "1001", "5000", "-1", "", "12x", "1.5", "99999999999999999999",
        "4294967297"}) {  // 2^32 + 1: a cast to int would read 1
    SCOPED_TRACE(token);
    try {
      util::parseBounded(token, "--cycles", 1, 1000);
      ADD_FAILURE() << "accepted";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--cycles must be an integer in [1, 1000], got '") +
                    token + "'");
    }
  }
}

TEST(ParseDouble, StrictWholeToken) {
  EXPECT_DOUBLE_EQ(util::parseDouble("2.5", "x"), 2.5);
  EXPECT_DOUBLE_EQ(util::parseDouble("-1e3", "x"), -1000.0);
  EXPECT_THROW(util::parseDouble("", "x"), Error);
  EXPECT_THROW(util::parseDouble("watts", "x"), Error);
  EXPECT_THROW(util::parseDouble("3.5w", "x"), Error);
}

TEST(ParseLists, ErrorsCarryNoSourceLocation) {
  const auto message = [](auto&& parse) {
    try {
      parse();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message([] { util::parseDouble("watts", "--budget"); }),
            "--budget: 'watts' is not a number");
  EXPECT_EQ(message([] { util::parseSizeList("32,0"); }),
            "size list: '0' must be positive");
  EXPECT_EQ(message([] { util::parseSizeList(",,"); }), "size list is empty");
  EXPECT_EQ(message([] { util::parseCapList("120,-40"); }),
            "cap list: '-40' must be positive");
  EXPECT_EQ(message([] { util::parseCapList(""); }), "cap list is empty");
}

TEST(ParseSizeList, ValidAndMalformed) {
  EXPECT_EQ(util::parseSizeList("32,64,128"),
            (std::vector<std::int64_t>{32, 64, 128}));
  EXPECT_EQ(util::parseSizeList("256"), (std::vector<std::int64_t>{256}));
  // Empty list (nothing or only separators).
  EXPECT_THROW(util::parseSizeList(""), Error);
  EXPECT_THROW(util::parseSizeList(",,"), Error);
  // Non-numeric tokens.
  EXPECT_THROW(util::parseSizeList("32,huge"), Error);
  // Non-positive sizes.
  EXPECT_THROW(util::parseSizeList("32,0"), Error);
  EXPECT_THROW(util::parseSizeList("-64"), Error);
}

TEST(ParseCapList, ValidAndMalformed) {
  EXPECT_EQ(util::parseCapList("120,80.5,40"),
            (std::vector<double>{120.0, 80.5, 40.0}));
  EXPECT_THROW(util::parseCapList(""), Error);
  EXPECT_THROW(util::parseCapList("120,lots"), Error);
  EXPECT_THROW(util::parseCapList("120,-40"), Error);
  EXPECT_THROW(util::parseCapList("0"), Error);
}

TEST(ParseAlgorithm, TokensRoundTrip) {
  for (core::Algorithm algorithm : core::allAlgorithms()) {
    EXPECT_EQ(core::parseAlgorithmToken(core::algorithmToken(algorithm)),
              algorithm);
  }
}

TEST(ParseAlgorithm, UnknownNameThrows) {
  EXPECT_THROW(core::parseAlgorithmToken("marchingcubes"), Error);
  EXPECT_THROW(core::parseAlgorithmToken(""), Error);
  EXPECT_THROW(core::parseAlgorithmToken("Contour"), Error);  // case matters
}

TEST(ParseAlgorithmList, SubsetsAllAndErrors) {
  EXPECT_EQ(core::parseAlgorithmList("contour,slice"),
            (std::vector<core::Algorithm>{core::Algorithm::Contour,
                                          core::Algorithm::Slice}));
  EXPECT_EQ(core::parseAlgorithmList("all"), core::allAlgorithms());
  EXPECT_EQ(core::parseAlgorithmList(""), core::allAlgorithms());
  EXPECT_THROW(core::parseAlgorithmList("contour,nope"), Error);
  EXPECT_THROW(core::parseAlgorithmList(",,"), Error);
}

}  // namespace
}  // namespace pviz
