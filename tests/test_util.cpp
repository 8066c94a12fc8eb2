// Unit tests for the util layer: geometry, Morton codes, RNG, statistics,
// and buffer serialization.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/buffer.hpp"
#include "util/check.hpp"
#include "util/morton.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/vec3.hpp"

namespace bat {
namespace {

// ---- Box ---------------------------------------------------------------

TEST(BoxTest, DefaultIsEmpty) {
    Box b;
    EXPECT_TRUE(b.empty());
}

TEST(BoxTest, ExtendPointMakesNonEmpty) {
    Box b;
    b.extend({1, 2, 3});
    EXPECT_FALSE(b.empty());
    EXPECT_EQ(b.lower, Vec3(1, 2, 3));
    EXPECT_EQ(b.upper, Vec3(1, 2, 3));
}

TEST(BoxTest, ExtendGrowsBothCorners) {
    Box b;
    b.extend({1, 5, 3});
    b.extend({4, 2, 6});
    EXPECT_EQ(b.lower, Vec3(1, 2, 3));
    EXPECT_EQ(b.upper, Vec3(4, 5, 6));
}

TEST(BoxTest, ExtendBoxUnions) {
    Box a({0, 0, 0}, {1, 1, 1});
    Box b({2, -1, 0.5f}, {3, 0.5f, 2});
    a.extend(b);
    EXPECT_EQ(a.lower, Vec3(0, -1, 0));
    EXPECT_EQ(a.upper, Vec3(3, 1, 2));
}

TEST(BoxTest, LongestAxis) {
    EXPECT_EQ(Box({0, 0, 0}, {3, 1, 1}).longest_axis(), 0);
    EXPECT_EQ(Box({0, 0, 0}, {1, 3, 1}).longest_axis(), 1);
    EXPECT_EQ(Box({0, 0, 0}, {1, 1, 3}).longest_axis(), 2);
}

TEST(BoxTest, ContainsIsInclusive) {
    const Box b({0, 0, 0}, {1, 1, 1});
    EXPECT_TRUE(b.contains({0, 0, 0}));
    EXPECT_TRUE(b.contains({1, 1, 1}));
    EXPECT_TRUE(b.contains({0.5f, 0.5f, 0.5f}));
    EXPECT_FALSE(b.contains({1.001f, 0.5f, 0.5f}));
    EXPECT_FALSE(b.contains({0.5f, -0.001f, 0.5f}));
}

TEST(BoxTest, OverlapsSharedFace) {
    const Box a({0, 0, 0}, {1, 1, 1});
    const Box b({1, 0, 0}, {2, 1, 1});
    EXPECT_TRUE(a.overlaps(b));
    const Box c({1.01f, 0, 0}, {2, 1, 1});
    EXPECT_FALSE(a.overlaps(c));
}

TEST(BoxTest, ContainsBox) {
    const Box outer({0, 0, 0}, {4, 4, 4});
    EXPECT_TRUE(outer.contains_box(Box({1, 1, 1}, {2, 2, 2})));
    EXPECT_TRUE(outer.contains_box(outer));
    EXPECT_FALSE(outer.contains_box(Box({1, 1, 1}, {5, 2, 2})));
}

TEST(BoxTest, IntersectionOfDisjointIsEmpty) {
    const Box a({0, 0, 0}, {1, 1, 1});
    const Box b({2, 2, 2}, {3, 3, 3});
    EXPECT_TRUE(intersection(a, b).empty());
    EXPECT_FALSE(intersection(a, Box({0.5f, 0.5f, 0.5f}, {2, 2, 2})).empty());
}

TEST(BoxTest, CenterAndExtent) {
    const Box b({0, 2, 4}, {2, 6, 10});
    EXPECT_EQ(b.center(), Vec3(1, 4, 7));
    EXPECT_EQ(b.extent(), Vec3(2, 4, 6));
}

// ---- Morton ------------------------------------------------------------

TEST(MortonTest, EncodeDecodeZero) {
    std::uint32_t x, y, z;
    morton_decode(morton_encode(0, 0, 0), x, y, z);
    EXPECT_EQ(x, 0u);
    EXPECT_EQ(y, 0u);
    EXPECT_EQ(z, 0u);
}

TEST(MortonTest, EncodeDecodeMax) {
    const std::uint32_t m = (1u << kMortonBitsPerAxis) - 1;
    std::uint32_t x, y, z;
    morton_decode(morton_encode(m, m, m), x, y, z);
    EXPECT_EQ(x, m);
    EXPECT_EQ(y, m);
    EXPECT_EQ(z, m);
}

TEST(MortonTest, XIsMostSignificant) {
    // The code for (1,0,0) must exceed (0,1,1) for same-magnitude bits.
    EXPECT_GT(morton_encode(1, 0, 0), morton_encode(0, 1, 1));
    EXPECT_GT(morton_encode(0, 1, 0), morton_encode(0, 0, 1));
}

TEST(MortonTest, SingleBitPositions) {
    // Bit k of z lands at code bit 3k, y at 3k+1, x at 3k+2.
    for (int k = 0; k < kMortonBitsPerAxis; ++k) {
        EXPECT_EQ(morton_encode(1u << k, 0, 0), std::uint64_t{1} << (3 * k + 2));
        EXPECT_EQ(morton_encode(0, 1u << k, 0), std::uint64_t{1} << (3 * k + 1));
        EXPECT_EQ(morton_encode(0, 0, 1u << k), std::uint64_t{1} << (3 * k));
    }
}

TEST(MortonTest, BitAxisMatchesEncoding) {
    EXPECT_EQ(morton_bit_axis(0), 2);  // LSB is a z bit
    EXPECT_EQ(morton_bit_axis(1), 1);
    EXPECT_EQ(morton_bit_axis(2), 0);
    EXPECT_EQ(morton_bit_axis(62), 0);  // MSB is an x bit
}

class MortonRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MortonRoundTrip, RoundTrips) {
    Pcg32 rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        const std::uint32_t x = rng.next_u32() & ((1u << kMortonBitsPerAxis) - 1);
        const std::uint32_t y = rng.next_u32() & ((1u << kMortonBitsPerAxis) - 1);
        const std::uint32_t z = rng.next_u32() & ((1u << kMortonBitsPerAxis) - 1);
        std::uint32_t rx, ry, rz;
        morton_decode(morton_encode(x, y, z), rx, ry, rz);
        EXPECT_EQ(x, rx);
        EXPECT_EQ(y, ry);
        EXPECT_EQ(z, rz);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MortonRoundTrip, ::testing::Values(1, 2, 3, 42, 1337));

TEST(MortonTest, PositionEncodingOrdersByLocality) {
    const Box bounds({0, 0, 0}, {1, 1, 1});
    // Nearby points should share long prefixes more often than far ones.
    const auto a = morton_encode_position({0.1f, 0.1f, 0.1f}, bounds);
    const auto b = morton_encode_position({0.1001f, 0.1f, 0.1f}, bounds);
    const auto c = morton_encode_position({0.9f, 0.9f, 0.9f}, bounds);
    EXPECT_LT(a ^ b, a ^ c);
}

TEST(MortonTest, PositionOnUpperBoundaryClamps) {
    const Box bounds({0, 0, 0}, {1, 1, 1});
    const auto code = morton_encode_position({1.f, 1.f, 1.f}, bounds);
    std::uint32_t x, y, z;
    morton_decode(code, x, y, z);
    const std::uint32_t m = (1u << kMortonBitsPerAxis) - 1;
    EXPECT_EQ(x, m);
    EXPECT_EQ(y, m);
    EXPECT_EQ(z, m);
}

TEST(MortonTest, DegenerateAxisMapsToZero) {
    const Box bounds({0, 0, 0}, {1, 0, 1});  // flat in y
    const auto code = morton_encode_position({0.5f, 0.f, 0.5f}, bounds);
    std::uint32_t x, y, z;
    morton_decode(code, x, y, z);
    EXPECT_EQ(y, 0u);
}

// ---- RNG ---------------------------------------------------------------

TEST(RngTest, Deterministic) {
    Pcg32 a(99), b(99);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u32(), b.next_u32());
    }
}

TEST(RngTest, SeedsDiffer) {
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        same += a.next_u32() == b.next_u32();
    }
    EXPECT_LT(same, 3);
}

TEST(RngTest, FloatInUnitInterval) {
    Pcg32 rng(5);
    for (int i = 0; i < 1000; ++i) {
        const float f = rng.next_float();
        EXPECT_GE(f, 0.f);
        EXPECT_LT(f, 1.f);
    }
}

TEST(RngTest, DoubleInUnitInterval) {
    Pcg32 rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, BoundedStaysInBounds) {
    Pcg32 rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.next_bounded(17), 17u);
    }
}

TEST(RngTest, BoundedCoversRange) {
    Pcg32 rng(7);
    std::vector<int> hits(8, 0);
    for (int i = 0; i < 4000; ++i) {
        ++hits[rng.next_bounded(8)];
    }
    for (int h : hits) {
        EXPECT_GT(h, 300);  // roughly uniform
    }
}

TEST(RngTest, UniformRange) {
    Pcg32 rng(11);
    for (int i = 0; i < 1000; ++i) {
        const float v = rng.uniform(-2.f, 3.f);
        EXPECT_GE(v, -2.f);
        EXPECT_LT(v, 3.f);
    }
}

TEST(RngTest, NormalHasRoughlyUnitVariance) {
    Pcg32 rng(13);
    double sum = 0, sum2 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.next_normal();
        sum += v;
        sum2 += v * v;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RngTest, MixSeedSpreads) {
    EXPECT_NE(mix_seed(1, 0), mix_seed(1, 1));
    EXPECT_NE(mix_seed(1, 0), mix_seed(2, 0));
}

// ---- stats ---------------------------------------------------------------

TEST(StatsTest, MeanAndStddev) {
    const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(StatsTest, GeomeanOfPowers) {
    const std::vector<double> xs{1, 4, 16};
    EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
}

TEST(StatsTest, GeomeanRejectsNonPositive) {
    const std::vector<double> xs{1, 0, 2};
    EXPECT_THROW(geomean(xs), Error);
}

TEST(StatsTest, MedianOddEven) {
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(StatsTest, Percentile) {
    std::vector<double> xs;
    for (int i = 0; i <= 100; ++i) {
        xs.push_back(i);
    }
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 0.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 50.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 100.0);
}

TEST(StatsTest, RunningStatsMatchesBatch) {
    const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
    RunningStats rs;
    for (double x : xs) {
        rs.add(x);
    }
    EXPECT_EQ(rs.count(), xs.size());
    EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
    EXPECT_NEAR(rs.stddev(), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), 2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(StatsTest, MergeMatchesConcatenation) {
    // Parallel Welford (Chan et al.): merging two partial accumulators must
    // agree with accumulating the concatenated sample stream.
    std::vector<double> xs;
    std::uint64_t state = 99;
    for (int i = 0; i < 1000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        xs.push_back(static_cast<double>(state % 100000) / 3.0 - 5000.0);
    }
    for (const std::size_t split : {std::size_t{0}, std::size_t{1}, xs.size() / 3,
                                    xs.size() - 1, xs.size()}) {
        RunningStats a;
        RunningStats b;
        RunningStats whole;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            (i < split ? a : b).add(xs[i]);
            whole.add(xs[i]);
        }
        a.merge(b);
        EXPECT_EQ(a.count(), whole.count());
        EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
        EXPECT_NEAR(a.stddev(), whole.stddev(), 1e-9);
        EXPECT_DOUBLE_EQ(a.min(), whole.min());
        EXPECT_DOUBLE_EQ(a.max(), whole.max());
    }
}

TEST(StatsTest, MergeWithEmptyIsIdentity) {
    RunningStats a;
    a.add(1.0);
    a.add(3.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);

    RunningStats b;
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
    EXPECT_DOUBLE_EQ(b.min(), 1.0);
    EXPECT_DOUBLE_EQ(b.max(), 3.0);
}

TEST(StatsTest, EmptyInputs) {
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({}), 0.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    RunningStats rs;
    EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
    EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

// ---- buffer ----------------------------------------------------------------

TEST(BufferTest, PodRoundTrip) {
    BufferWriter w;
    w.write(std::uint32_t{0xdeadbeef});
    w.write(3.5);
    w.write(std::int16_t{-7});
    BufferReader r(w.bytes());
    EXPECT_EQ(r.read<std::uint32_t>(), 0xdeadbeefu);
    EXPECT_DOUBLE_EQ(r.read<double>(), 3.5);
    EXPECT_EQ(r.read<std::int16_t>(), -7);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(BufferTest, StringRoundTrip) {
    BufferWriter w;
    w.write_string("hello");
    w.write_string("");
    w.write_string("wörld");
    BufferReader r(w.bytes());
    EXPECT_EQ(r.read_string(), "hello");
    EXPECT_EQ(r.read_string(), "");
    EXPECT_EQ(r.read_string(), "wörld");
}

TEST(BufferTest, SpanRoundTrip) {
    const std::vector<double> xs{1.5, 2.5, -3.0};
    BufferWriter w;
    w.write_span(std::span<const double>(xs));
    std::vector<double> out(3);
    BufferReader r(w.bytes());
    r.read_into(std::span<double>(out));
    EXPECT_EQ(out, xs);
}

TEST(BufferTest, PadToWritesZeros) {
    std::vector<std::byte> storage(16, std::byte{0xAB});  // stale bytes
    BufferWriter w(std::move(storage));
    EXPECT_EQ(w.size(), 0u);  // the storage is emptied
    w.write(std::uint8_t{1});
    w.pad_to(8);
    EXPECT_EQ(w.size(), 8u);
    w.pad_to(8);
    EXPECT_EQ(w.size(), 8u);  // already there: no change
    for (std::size_t i = 1; i < 8; ++i) {
        EXPECT_EQ(w.bytes()[i], std::byte{0}) << i;
    }
    EXPECT_THROW(w.pad_to(4), Error);  // never backwards
}

TEST(BufferTest, UnderrunThrows) {
    BufferWriter w;
    w.write(std::uint16_t{1});
    BufferReader r(w.bytes());
    EXPECT_THROW(r.read<std::uint64_t>(), Error);
}

TEST(BufferTest, SeekAndSkip) {
    BufferWriter w;
    w.write(std::uint32_t{1});
    w.write(std::uint32_t{2});
    w.write(std::uint32_t{3});
    BufferReader r(w.bytes());
    r.skip(4);
    EXPECT_EQ(r.read<std::uint32_t>(), 2u);
    r.seek(0);
    EXPECT_EQ(r.read<std::uint32_t>(), 1u);
    EXPECT_THROW(r.seek(100), Error);
}

// ---- check ------------------------------------------------------------------

TEST(CheckTest, PassingCheckIsSilent) {
    EXPECT_NO_THROW(BAT_CHECK(1 + 1 == 2));
}

TEST(CheckTest, FailingCheckThrowsWithContext) {
    try {
        BAT_CHECK_MSG(false, "context " << 42);
        FAIL() << "should have thrown";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
    }
}

}  // namespace
}  // namespace bat
