// Tests for the src/io/ persistence subsystem: endian-explicit primitives,
// the snapshot record framing, the SolveBatch codec (bit-identical round
// trips), and the CacheStore's journal/compaction/corruption-recovery
// semantics that back the cross-run warm start — pinned against committed
// golden bytes, so no codec change can silently alter existing cache files.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "golden_fixtures.hpp"
#include "io/binary.hpp"
#include "io/cache_store.hpp"
#include "io/snapshot.hpp"

namespace qross::io {
namespace {

// Fresh per-test scratch directory so corruption in one test never leaks
// into another's files.
class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("qross_io_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ / name; }

  std::filesystem::path dir_;
};

qubo::SolveBatch random_batch(std::uint64_t seed, std::size_t results,
                              std::size_t bits) {
  Rng rng(seed);
  qubo::SolveBatch batch;
  batch.results.resize(results);
  for (auto& r : batch.results) {
    r.qubo_energy = rng.uniform(-1e6, 1e6);
    r.assignment.resize(bits);
    for (auto& b : r.assignment) b = rng.bernoulli(0.5) ? 1 : 0;
  }
  return batch;
}

void expect_bit_identical(const qubo::SolveBatch& a, const qubo::SolveBatch& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t k = 0; k < a.results.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.results[k].qubo_energy),
              std::bit_cast<std::uint64_t>(b.results[k].qubo_energy));
    EXPECT_EQ(a.results[k].assignment, b.results[k].assignment);
  }
}

CacheEntry make_entry(std::uint64_t tag, std::size_t results = 3,
                      std::size_t bits = 21) {
  CacheEntry entry;
  entry.key = {tag, ~tag};
  entry.run_ms = static_cast<double>(tag) * 0.5;
  entry.batch =
      std::make_shared<const qubo::SolveBatch>(random_batch(tag, results, bits));
  return entry;
}

// --- primitives -------------------------------------------------------------

TEST_F(IoTest, PrimitivesAreLittleEndianAndBoundsChecked) {
  ByteWriter out;
  out.u8(0xAB);
  out.u32(0x01020304u);
  out.u64(0x1122334455667788ull);
  out.f64(-0.0);
  const auto bytes = out.bytes();
  ASSERT_EQ(bytes.size(), 1u + 4 + 8 + 8);
  EXPECT_EQ(bytes[1], 0x04);  // least-significant byte first
  EXPECT_EQ(bytes[4], 0x01);
  EXPECT_EQ(bytes[5], 0x88);

  ByteReader in(bytes);
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0x01020304u);
  EXPECT_EQ(in.u64(), 0x1122334455667788ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(in.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_THROW(in.u8(), DecodeError);
}

TEST_F(IoTest, FastPathMatchesTheByteLoopAndKeepsBoundsChecks) {
  // The little-endian memcpy path must produce exactly the bytes of the
  // portable shift loop, and a short read must still throw before any byte
  // is consumed.
  const std::uint64_t values[] = {0, 1, 0x80, 0xFFFFFFFFull,
                                  0x0123456789ABCDEFull, ~0ull};
  for (const auto value : values) {
    ByteWriter out;
    out.u32(static_cast<std::uint32_t>(value));
    out.u64(value);
    ASSERT_EQ(out.size(), 12u);
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(out.bytes()[k], static_cast<std::uint8_t>(value >> (8 * k)));
    }
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(out.bytes()[4 + k],
                static_cast<std::uint8_t>(value >> (8 * k)));
    }
    ByteReader in(out.bytes());
    EXPECT_EQ(in.u32(), static_cast<std::uint32_t>(value));
    EXPECT_EQ(in.u64(), value);
  }
  const std::vector<std::uint8_t> seven(7, 0xAB);
  ByteReader in(seven);
  EXPECT_THROW(in.u64(), DecodeError);
  EXPECT_EQ(in.offset(), 0u);
  EXPECT_EQ(in.u32(), 0xABABABABu);
  EXPECT_THROW(in.u32(), DecodeError);
  EXPECT_EQ(in.remaining(), 3u);

  // reserve() never changes the bytes, only the allocation count.
  ByteWriter reserved;
  reserved.u8(7);
  reserved.reserve(1000);
  reserved.u32(9);
  ASSERT_EQ(reserved.size(), 5u);
  EXPECT_EQ(reserved.bytes()[0], 7);
  EXPECT_EQ(reserved.bytes()[1], 9);
}

// A payload from a non-canonical encoder: terms out of order, one key sent
// twice and one pair that cancels to exactly 0.0.  It decodes by summing in
// payload order and re-encodes to the bytes of the model built in order.
TEST_F(IoTest, UnsortedAndRepeatedModelTermsReencodeCanonically) {
  ByteWriter messy;
  messy.u32(4);
  messy.f64(0.5);
  messy.u32(5);
  const auto term = [&](std::uint32_t i, std::uint32_t j, double w) {
    messy.u32(i);
    messy.u32(j);
    messy.f64(w);
  };
  term(2, 3, 1.0);
  term(0, 1, 0.25);
  term(2, 3, 0.5);
  term(1, 1, -3.0);
  term(0, 1, -0.25);
  ByteReader in(messy.bytes());
  const qubo::QuboModel decoded = decode_model(in);
  EXPECT_EQ(in.remaining(), 0u);

  qubo::QuboModel ordered(4);
  ordered.set_offset(0.5);
  ordered.add_term(1, 1, -3.0);
  ordered.add_term(2, 3, 1.0 + 0.5);
  ByteWriter a;
  ByteWriter b;
  encode_model(a, decoded);
  encode_model(b, ordered);
  EXPECT_EQ(a.bytes().size(), 16u + 2 * 16u);
  EXPECT_EQ(a.take(), b.take());
}

TEST_F(IoTest, BatchRoundTripIsBitIdentical) {
  // Property sweep over batch shapes, including empty batches, empty
  // assignments, and non-multiple-of-8 bit counts (partial final byte).
  const std::vector<std::tuple<std::uint64_t, std::size_t, std::size_t>>
      shapes = {{1, 0, 0}, {2, 1, 1},   {3, 4, 7},
                {4, 8, 8}, {5, 16, 65}, {6, 3, 1024}};
  for (const auto& [seed, results, bits] : shapes) {
    const auto original = random_batch(seed, results, bits);
    ByteWriter out;
    encode_batch(out, original);
    ByteReader in(out.bytes());
    const auto decoded = decode_batch(in);
    expect_bit_identical(original, decoded);
    EXPECT_EQ(in.remaining(), 0u);
  }
}

TEST_F(IoTest, BatchRoundTripPreservesSpecialEnergies) {
  qubo::SolveBatch batch;
  for (const double e : {0.0, -0.0, std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::denorm_min()}) {
    batch.results.push_back({{1, 0, 1}, e});
  }
  ByteWriter out;
  encode_batch(out, batch);
  ByteReader in(out.bytes());
  expect_bit_identical(batch, decode_batch(in));
}

// --- record framing ---------------------------------------------------------

TEST_F(IoTest, ScanSkipsBadChecksumAndKeepsFraming) {
  ByteWriter out;
  write_header(out);
  const std::vector<std::uint8_t> p1 = {1, 2, 3, 4};
  const std::vector<std::uint8_t> p2 = {9, 9};
  write_record(out, kRecordCacheEntry, p1, kFormatVersion);
  write_record(out, kRecordCacheEntry, p2, kFormatVersion);
  auto bytes = out.take();
  bytes[16 + 16 + 1] ^= 0xFF;  // flip a byte inside record 1's payload

  ByteReader in(bytes);
  ASSERT_EQ(read_header(in), HeaderStatus::ok);
  std::vector<std::size_t> sizes;
  const auto stats = scan_records(
      in, kFormatVersion, [&](std::uint32_t, auto payload) {
        sizes.push_back(payload.size());
        return true;
      });
  EXPECT_EQ(stats.records, 1u);  // record 2 survives
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_FALSE(stats.truncated);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 2u);
}

TEST_F(IoTest, ScanStopsCleanlyOnTruncatedTail) {
  ByteWriter out;
  write_header(out);
  write_record(out, kRecordCacheEntry, std::vector<std::uint8_t>(100, 7),
               kFormatVersion);
  write_record(out, kRecordCacheEntry, std::vector<std::uint8_t>(50, 8),
               kFormatVersion);
  auto bytes = out.take();
  bytes.resize(bytes.size() - 30);  // tear the second record's payload

  ByteReader in(bytes);
  ASSERT_EQ(read_header(in), HeaderStatus::ok);
  const auto stats = scan_records(in, kFormatVersion,
                                  [](std::uint32_t, auto) { return true; });
  EXPECT_EQ(stats.records, 1u);
  EXPECT_TRUE(stats.truncated);
}

TEST_F(IoTest, HeaderRejectsForeignAndFutureFiles) {
  {
    const std::vector<std::uint8_t> garbage = {'n', 'o', 't', ' ', 'u', 's'};
    ByteReader in(garbage);
    EXPECT_EQ(read_header(in), HeaderStatus::bad_magic);
  }
  {
    ByteWriter out;
    write_header(out);
    auto bytes = out.take();
    bytes[8] = 0xFF;  // version field (little-endian u32 after the magic)
    ByteReader in(bytes);
    std::uint32_t version = 0;
    EXPECT_EQ(read_header(in, &version), HeaderStatus::future_version);
    EXPECT_GT(version, kFormatVersion);
  }
}

// --- record checksums -------------------------------------------------------

std::vector<std::uint8_t> read_golden(const std::string& name) {
  const auto bytes = read_file(std::string(QROSS_TEST_DATA_DIR) + "/" + name);
  EXPECT_TRUE(bytes.has_value()) << name;
  return bytes.value_or(std::vector<std::uint8_t>{});
}

/// Re-frames every record of a snapshot-format file at `version`, payloads
/// untouched: the file an older (or newer) writer makes of the same entries.
std::vector<std::uint8_t> reframe(std::span<const std::uint8_t> file,
                                  std::uint32_t version) {
  ByteReader in(file);
  std::uint32_t from = 0;
  EXPECT_EQ(read_header(in, &from), HeaderStatus::ok);
  ByteWriter out(
      std::vector<std::uint8_t>(kSnapshotMagic.begin(), kSnapshotMagic.end()));
  out.u32(version);
  out.u32(0);  // flags
  const auto stats = scan_records(
      in, from, [&](std::uint32_t type, std::span<const std::uint8_t> payload) {
        write_record(out, type, payload, version);
        return true;
      });
  EXPECT_EQ(stats.skipped, 0u);
  return out.take();
}

TEST_F(IoTest, RecordChecksumFollowsTheVersion) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(record_checksum(1, payload), checksum64(payload));
  EXPECT_EQ(record_checksum(2, payload), checksum64_v2(payload));
  EXPECT_NE(checksum64(payload), checksum64_v2(payload));
}

// checksum64_v2 spelled out the slow way: the payload zero-padded to whole
// little-endian words, word i into lane i % 4, then the byte length and the
// four lanes through one more lane.
std::uint64_t reference_checksum_v2(std::span<const std::uint8_t> bytes) {
  using Lane = HashLane<0x9e3779b97f4a7c15ULL, 32>;
  Lane lanes[4] = {{0xC5C5C5C5C5C5C5C5ULL},
                   {0x5C5C5C5C5C5C5C5CULL},
                   {0xA3A3A3A3A3A3A3A3ULL},
                   {0x3A3A3A3A3A3A3A3AULL}};
  for (std::size_t i = 0; 8 * i < bytes.size(); ++i) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < 8 && 8 * i + k < bytes.size(); ++k) {
      word |= static_cast<std::uint64_t>(bytes[8 * i + k]) << (8 * k);
    }
    lanes[i % 4].mix(word);
  }
  Lane fold{bytes.size()};
  for (const Lane& lane : lanes) fold.mix(lane.state);
  return fold.digest();
}

// Sizes 0..40 cover every tail length (0..7 bytes) after 0..4 whole words,
// so every lane takes leftovers and padded tails.  Any one flipped bit, and
// any zero byte appended (the padding the tail word already holds), changes
// the checksum.
TEST_F(IoTest, WordChecksumCoversEveryTailLength) {
  Rng rng(23);
  for (std::size_t size = 0; size <= 40; ++size) {
    std::vector<std::uint8_t> payload(size);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t sum = checksum64_v2(payload);
    EXPECT_EQ(sum, reference_checksum_v2(payload)) << "size " << size;
    for (std::size_t at = 0; at < size; ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        payload[at] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_NE(checksum64_v2(payload), sum)
            << "size " << size << " byte " << at << " bit " << bit;
        payload[at] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
    auto padded = payload;
    padded.push_back(0);
    EXPECT_NE(checksum64_v2(padded), sum) << "size " << size;
  }
}

// Every byte a v2 record's checksum covers — the checksum field itself and
// each payload byte — fails the record when flipped; the scan skips it and
// stays framed.  (The size and type fields are outside the checksum, as in
// v1: a flipped size field tears the framing instead.)
TEST_F(IoTest, EveryFlippedByteOfAVersionTwoRecordIsSkipped) {
  const auto golden = testing::golden::read_hex_table(
      std::string(QROSS_TEST_DATA_DIR) + "/golden_bytes_v2.txt");
  const auto journal = read_golden("golden_cache_v2.qsnap.journal");
  ASSERT_TRUE(golden.contains("cache_record"));
  const std::size_t record_bytes = golden.at("cache_record").size() / 2;
  ASSERT_GE(journal.size(), 16 + record_bytes);
  std::vector<std::uint8_t> file(journal.begin(),
                                 journal.begin() + 16 + record_bytes);
  for (std::size_t at = 16 + 8; at < file.size(); ++at) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      file[at] ^= mask;
      ByteReader in(file);
      std::uint32_t version = 0;
      ASSERT_EQ(read_header(in, &version), HeaderStatus::ok);
      ASSERT_EQ(version, 2u);
      const auto stats =
          scan_records(in, version, [](std::uint32_t, auto) { return true; });
      EXPECT_EQ(stats.skipped, 1u) << "byte " << at << " mask " << int{mask};
      EXPECT_EQ(stats.records, 0u);
      EXPECT_FALSE(stats.truncated);
      file[at] ^= mask;
    }
  }
}

// --- CacheStore -------------------------------------------------------------

std::vector<CacheEntry> load_all(CacheStore& store) {
  std::vector<CacheEntry> entries;
  store.load([&](CacheEntry entry) { entries.push_back(std::move(entry)); });
  return entries;
}

TEST_F(IoTest, StoreAppendLoadRoundTrip) {
  CacheStore store({.path = path("cache.qsnap")});
  const auto e1 = make_entry(10);
  const auto e2 = make_entry(20, 5, 64);
  ASSERT_TRUE(store.append(e1));
  ASSERT_TRUE(store.append(e2));

  CacheStore reader({.path = path("cache.qsnap")});
  const auto entries = load_all(reader);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, e1.key);
  EXPECT_EQ(entries[1].key, e2.key);
  EXPECT_DOUBLE_EQ(entries[1].run_ms, e2.run_ms);
  expect_bit_identical(*entries[0].batch, *e1.batch);
  expect_bit_identical(*entries[1].batch, *e2.batch);
  EXPECT_EQ(reader.load_skipped(), 0u);
  EXPECT_FALSE(reader.version_rejected());
}

// tests/data/golden_cache.qsnap.journal was written by CacheStore::append
// at format 1 with the byte-at-a-time codecs, from the entries in
// golden_fixtures.hpp; golden_cache_v2.qsnap.journal holds the same records
// as the format 2 writer frames them.

TEST_F(IoTest, JournalBytesMatchTheGoldenJournal) {
  const auto golden_journal = read_golden("golden_cache_v2.qsnap.journal");
  CacheStore store({.path = path("cache.qsnap")});
  for (const auto& entry : testing::golden::cache_entries()) {
    ASSERT_TRUE(store.append(entry));
  }
  const auto written = read_file(store.journal_path());
  ASSERT_TRUE(written.has_value());
  EXPECT_EQ(*written, golden_journal);

  // The first record on its own, as the golden table spells it out.
  const auto golden = testing::golden::read_hex_table(
      std::string(QROSS_TEST_DATA_DIR) + "/golden_bytes_v2.txt");
  ASSERT_TRUE(golden.contains("cache_record"));
  const std::size_t record_bytes = golden.at("cache_record").size() / 2;
  ASSERT_GE(written->size(), 16 + record_bytes);
  EXPECT_EQ(testing::golden::to_hex(std::span<const std::uint8_t>(
                written->data() + 16, record_bytes)),
            golden.at("cache_record"));
}

// The v1 record writer stays byte-exact: re-framing the v1 golden journal at
// version 1 reproduces it, its first record is golden_bytes.txt's
// cache_record row, and at version 2 it becomes the v2 golden journal.
TEST_F(IoTest, VersionOneRecordsMatchTheGoldenBytes) {
  const auto v1 = read_golden("golden_cache.qsnap.journal");
  const auto v2 = read_golden("golden_cache_v2.qsnap.journal");
  EXPECT_EQ(reframe(v1, 1), v1);
  EXPECT_EQ(reframe(v1, 2), v2);
  EXPECT_EQ(reframe(v2, 1), v1);

  const auto golden = testing::golden::read_hex_table(
      std::string(QROSS_TEST_DATA_DIR) + "/golden_bytes.txt");
  ASSERT_TRUE(golden.contains("cache_record"));
  const std::size_t record_bytes = golden.at("cache_record").size() / 2;
  ASSERT_GE(v1.size(), 16 + record_bytes);
  ByteReader in(std::span<const std::uint8_t>(v1.data() + 16, record_bytes));
  const std::uint32_t size = in.u32();
  in.u32();  // type
  in.u64();  // checksum
  ByteWriter record;
  write_record(record, kRecordCacheEntry, in.raw(size), 1);
  EXPECT_EQ(testing::golden::to_hex(record.bytes()), golden.at("cache_record"));
}

TEST_F(IoTest, GoldenJournalLoadsBitIdentically) {
  std::filesystem::copy_file(
      std::string(QROSS_TEST_DATA_DIR) + "/golden_cache.qsnap.journal",
      path("cache.qsnap.journal"));
  CacheStore store({.path = path("cache.qsnap")});
  const auto expected = testing::golden::cache_entries();
  const auto loaded = load_all(store);
  EXPECT_EQ(store.load_skipped(), 0u);
  ASSERT_EQ(loaded.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(loaded[k].key, expected[k].key);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded[k].run_ms),
              std::bit_cast<std::uint64_t>(expected[k].run_ms));
    expect_bit_identical(*loaded[k].batch, *expected[k].batch);
  }
  // Compaction keeps the newest record per key: 3 distinct keys.
  EXPECT_EQ(store.compact(), 3u);
}

/// The format version in a snapshot-format file's header.
std::uint32_t file_version(const std::string& file) {
  const auto bytes = read_file(file);
  if (!bytes.has_value()) return 0;
  ByteReader in(*bytes);
  std::uint32_t version = 0;
  read_header(in, &version);
  return version;
}

// A cache directory left by a format 1 build: both files still load, the
// first append compacts the v1 journal away before starting a v2 one (no
// file ever mixes v1 and v2 records), and after a compaction everything
// reloads bit-identically from one v2 snapshot.
TEST_F(IoTest, VersionOneCacheDirectoryUpgradesOnFirstAppend) {
  {
    CacheStore writer({.path = path("v2.qsnap")});
    ASSERT_TRUE(writer.append(make_entry(100)));
    ASSERT_TRUE(writer.append(make_entry(101, 5, 64)));
    ASSERT_EQ(writer.compact(), 2u);
  }
  const auto snapshot_v1 = reframe(*read_file(path("v2.qsnap")), 1);
  ASSERT_TRUE(write_file_atomic(path("cache.qsnap"), snapshot_v1));
  std::filesystem::copy_file(
      std::string(QROSS_TEST_DATA_DIR) + "/golden_cache.qsnap.journal",
      path("cache.qsnap.journal"));
  ASSERT_EQ(file_version(path("cache.qsnap")), 1u);
  ASSERT_EQ(file_version(path("cache.qsnap.journal")), 1u);

  std::vector<CacheEntry> expected = {make_entry(100), make_entry(101, 5, 64)};
  for (const auto& entry : testing::golden::cache_entries()) {
    expected.push_back(entry);
  }
  CacheStore store({.path = path("cache.qsnap")});
  const auto loaded = load_all(store);
  EXPECT_EQ(store.load_skipped(), 0u);
  ASSERT_EQ(loaded.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(loaded[k].key, expected[k].key);
    expect_bit_identical(*loaded[k].batch, *expected[k].batch);
  }

  const auto added = make_entry(102);
  ASSERT_TRUE(store.append(added));
  EXPECT_EQ(file_version(path("cache.qsnap")), kFormatVersion)
      << "the v1 journal was compacted into a v2 snapshot";
  EXPECT_EQ(file_version(path("cache.qsnap.journal")), kFormatVersion);
  EXPECT_EQ(store.info().skipped_records, 0u);
  EXPECT_EQ(store.compact(), 6u);  // 5 distinct keys before, plus one
  EXPECT_FALSE(std::filesystem::exists(store.journal_path()));

  // The golden journal's last record re-used its first key: newest wins.
  expected.erase(expected.begin() + 2);
  expected.push_back(added);
  CacheStore reader({.path = path("cache.qsnap")});
  const auto reloaded = load_all(reader);
  EXPECT_EQ(reader.load_skipped(), 0u);
  ASSERT_EQ(reloaded.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(reloaded[k].key, expected[k].key);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reloaded[k].run_ms),
              std::bit_cast<std::uint64_t>(expected[k].run_ms));
    expect_bit_identical(*reloaded[k].batch, *expected[k].batch);
  }
}

// A v1 snapshot with no journal needs no compaction: the new v2 journal
// sits beside it, and each file is read at its own version.
TEST_F(IoTest, VersionOneSnapshotTakesAVersionTwoJournalBeside) {
  {
    CacheStore writer({.path = path("v2.qsnap")});
    ASSERT_TRUE(writer.append(make_entry(7)));
    ASSERT_EQ(writer.compact(), 1u);
  }
  ASSERT_TRUE(write_file_atomic(path("cache.qsnap"),
                                reframe(*read_file(path("v2.qsnap")), 1)));
  CacheStore store({.path = path("cache.qsnap")});
  ASSERT_TRUE(store.append(make_entry(8)));
  EXPECT_EQ(file_version(path("cache.qsnap")), 1u);
  EXPECT_EQ(file_version(store.journal_path()), kFormatVersion);
  const auto loaded = load_all(store);
  EXPECT_EQ(store.load_skipped(), 0u);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].key, make_entry(7).key);
  EXPECT_EQ(loaded[1].key, make_entry(8).key);
}

TEST_F(IoTest, CompactMergesNewestWinsAndRemovesJournal) {
  CacheStore store({.path = path("cache.qsnap")});
  auto stale = make_entry(1);
  store.append(stale);
  store.append(make_entry(2));
  EXPECT_EQ(store.compact(), 2u);  // journal folded into the snapshot
  EXPECT_FALSE(std::filesystem::exists(store.journal_path()));

  auto fresh = make_entry(3);
  fresh.key = stale.key;  // same fingerprint, newer batch
  store.append(fresh);
  EXPECT_EQ(store.compact(), 2u);

  const auto entries = load_all(store);
  ASSERT_EQ(entries.size(), 2u);
  // The re-appended key moved to the newest position with the new batch.
  EXPECT_EQ(entries[1].key, stale.key);
  expect_bit_identical(*entries[1].batch, *fresh.batch);
}

TEST_F(IoTest, CompactionAppliesEntryAndByteBudgets) {
  {
    CacheStore store({.path = path("cache.qsnap"), .max_entries = 2});
    for (std::uint64_t k = 1; k <= 5; ++k) store.append(make_entry(k));
    EXPECT_EQ(store.compact(), 2u);
    const auto entries = load_all(store);
    ASSERT_EQ(entries.size(), 2u);  // newest two survive
    EXPECT_EQ(entries[0].key, make_entry(4).key);
    EXPECT_EQ(entries[1].key, make_entry(5).key);
  }
  {
    // A byte budget smaller than one record empties the snapshot.
    CacheStore store({.path = path("tiny.qsnap"), .max_bytes = 8});
    store.append(make_entry(1));
    EXPECT_EQ(store.compact(), 0u);
    EXPECT_TRUE(load_all(store).empty());
  }
}

TEST_F(IoTest, TruncatedJournalRecoversThePrefix) {
  CacheStore store({.path = path("cache.qsnap")});
  store.append(make_entry(1));
  store.compact();  // snapshot: entry 1
  store.append(make_entry(2));
  store.append(make_entry(3));

  const auto journal = store.journal_path();
  const auto size = std::filesystem::file_size(journal);
  std::filesystem::resize_file(journal, size - 11);  // tear entry 3

  CacheStore reader({.path = path("cache.qsnap")});
  const auto entries = load_all(reader);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, make_entry(1).key);
  EXPECT_EQ(entries[1].key, make_entry(2).key);
  EXPECT_GE(reader.load_skipped(), 1u);

  // Compaction of the damaged store keeps the recoverable prefix.
  EXPECT_EQ(reader.compact(), 2u);
  EXPECT_FALSE(std::filesystem::exists(journal));
}

TEST_F(IoTest, AppendAfterTornTailRepairsTheJournalFirst) {
  {
    CacheStore store({.path = path("cache.qsnap")});
    store.append(make_entry(1));
    store.append(make_entry(2));
  }
  const std::string journal = path("cache.qsnap") + ".journal";
  const auto size = std::filesystem::file_size(journal);
  std::filesystem::resize_file(journal, size - 5);  // crash tore entry 2

  // The next run appends more results.  Without the tail repair they would
  // land after the tear, stay unframeable forever, and be silently dropped
  // by the next compaction.
  CacheStore store({.path = path("cache.qsnap")});
  ASSERT_TRUE(store.append(make_entry(3)));
  ASSERT_TRUE(store.append(make_entry(4)));

  const auto entries = load_all(store);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, make_entry(1).key);
  EXPECT_EQ(entries[1].key, make_entry(3).key);
  EXPECT_EQ(entries[2].key, make_entry(4).key);
  EXPECT_EQ(store.load_skipped(), 0u) << "the torn tail was truncated away";
  EXPECT_EQ(store.compact(), 3u);
}

TEST_F(IoTest, AppendRefusesAFutureVersionJournal) {
  {
    CacheStore store({.path = path("cache.qsnap")});
    store.append(make_entry(1));
  }
  const std::string journal = path("cache.qsnap") + ".journal";
  auto bytes = *read_file(journal);
  bytes[8] = 0x7F;  // a newer build's journal
  ByteWriter out;
  out.raw(bytes);
  ASSERT_TRUE(write_file_atomic(journal, out.bytes()));

  CacheStore store({.path = path("cache.qsnap")});
  EXPECT_FALSE(store.append(make_entry(2)))
      << "must not mix v1 records into a newer-format journal";
}

TEST_F(IoTest, FlippedByteSkipsOnlyThatEntry) {
  CacheStore store({.path = path("cache.qsnap")});
  for (std::uint64_t k = 1; k <= 3; ++k) store.append(make_entry(k));
  store.compact();

  auto bytes = *read_file(path("cache.qsnap"));
  bytes[16 + 16 + 20] ^= 0x40;  // header + record framing + into payload 1

  ByteWriter out;
  out.raw(bytes);
  ASSERT_TRUE(write_file_atomic(path("cache.qsnap"), out.bytes()));

  CacheStore reader({.path = path("cache.qsnap")});
  const auto entries = load_all(reader);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(reader.load_skipped(), 1u);
  EXPECT_EQ(entries[0].key, make_entry(2).key);
  EXPECT_EQ(entries[1].key, make_entry(3).key);
}

TEST_F(IoTest, FutureVersionSnapshotIsRejectedNotGuessed) {
  CacheStore store({.path = path("cache.qsnap")});
  store.append(make_entry(1));
  store.compact();

  auto bytes = *read_file(path("cache.qsnap"));
  bytes[8] = 0x7F;  // far-future format version
  ByteWriter out;
  out.raw(bytes);
  ASSERT_TRUE(write_file_atomic(path("cache.qsnap"), out.bytes()));

  CacheStore reader({.path = path("cache.qsnap")});
  EXPECT_TRUE(load_all(reader).empty());
  EXPECT_TRUE(reader.version_rejected());
  const auto info = reader.info();
  EXPECT_TRUE(info.version_rejected);
  EXPECT_EQ(info.live_entries, 0u);
}

TEST_F(IoTest, ForeignFileDegradesToEmptyLoad) {
  std::ofstream(path("cache.qsnap")) << "this is not a qross snapshot at all";
  CacheStore store({.path = path("cache.qsnap")});
  EXPECT_TRUE(load_all(store).empty());
  EXPECT_GE(store.load_skipped(), 1u);
  EXPECT_FALSE(store.version_rejected());
}

TEST_F(IoTest, InfoAndClearReportAndRemoveFiles) {
  CacheStore store({.path = path("cache.qsnap")});
  auto entry = make_entry(1);
  entry.run_ms = 12.5;
  store.append(entry);
  store.compact();
  auto second = make_entry(2);
  second.run_ms = 7.5;
  store.append(second);

  const auto info = store.info();
  EXPECT_TRUE(info.snapshot_exists);
  EXPECT_TRUE(info.journal_exists);
  EXPECT_EQ(info.snapshot_version, kFormatVersion);
  EXPECT_EQ(info.snapshot_records, 1u);
  EXPECT_EQ(info.journal_records, 1u);
  EXPECT_EQ(info.live_entries, 2u);
  EXPECT_DOUBLE_EQ(info.saved_run_ms, 20.0);
  EXPECT_GT(info.snapshot_bytes, 0u);

  store.clear();
  EXPECT_FALSE(std::filesystem::exists(path("cache.qsnap")));
  EXPECT_FALSE(std::filesystem::exists(store.journal_path()));
  const auto after = store.info();
  EXPECT_FALSE(after.snapshot_exists);
  EXPECT_EQ(after.live_entries, 0u);
}

TEST_F(IoTest, MissingFilesLoadEmptyAndCompactCreatesNothing) {
  CacheStore store({.path = path("absent.qsnap")});
  EXPECT_TRUE(load_all(store).empty());
  EXPECT_EQ(store.load_skipped(), 0u);
  EXPECT_EQ(store.compact(), 0u);
  EXPECT_FALSE(std::filesystem::exists(path("absent.qsnap")));
}

}  // namespace
}  // namespace qross::io
