// ExtentFs tests: the raw-disk-style backend (allocator, extent chains,
// volume-backed mode) plus its use under a full appliance.
#include <gtest/gtest.h>

#include <filesystem>
#include <random>

#include "client/chirp_client.h"
#include "common/clock.h"
#include "server/nest_server.h"
#include "storage/extentfs.h"
#include "storage/storage_manager.h"

namespace nest::storage {
namespace {

constexpr std::int64_t kExt = ExtentFs::kExtentBytes;

class ExtentFsTest : public ::testing::Test {
 protected:
  ManualClock clock;
  ExtentFs fs{clock, 64 * kExt};  // 64 extents = 4 MiB
};

TEST_F(ExtentFsTest, StartsEmpty) {
  EXPECT_EQ(fs.used_space(), 0);
  EXPECT_EQ(fs.free_extents(), 64);
  EXPECT_EQ(fs.total_space(), 64 * kExt);
  auto root = fs.list("/");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->empty());
}

TEST_F(ExtentFsTest, WriteReadRoundTrip) {
  auto h = fs.create("/f");
  ASSERT_TRUE(h.ok());
  std::string data(3 * kExt + 100, 'e');  // spans 4 extents
  for (std::size_t i = 0; i < data.size(); i += 997) {
    data[i] = static_cast<char>('A' + (i / 997) % 26);
  }
  ASSERT_TRUE((*h)->pwrite(std::span(data.data(), data.size()), 0).ok());
  EXPECT_EQ(fs.extents_of("/f"), 4);
  std::string got(data.size(), '\0');
  auto n = (*h)->pread(std::span(got.data(), got.size()), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(static_cast<std::size_t>(*n), data.size());
  EXPECT_TRUE(got == data);
}

TEST_F(ExtentFsTest, CrossExtentOffsets) {
  auto h = fs.create("/f");
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE((*h)->truncate(3 * kExt).ok());
  // Write a marker straddling the extent boundary.
  const std::string marker = "BOUNDARY";
  ASSERT_TRUE((*h)->pwrite(std::span(marker.data(), marker.size()),
                           kExt - 4)
                  .ok());
  char buf[8] = {};
  ASSERT_TRUE((*h)->pread(std::span(buf, 8), kExt - 4).ok());
  EXPECT_EQ(std::string(buf, 8), marker);
}

TEST_F(ExtentFsTest, RemoveFreesExtents) {
  auto h = fs.create("/f");
  ASSERT_TRUE((*h)->truncate(10 * kExt).ok());
  EXPECT_EQ(fs.free_extents(), 54);
  ASSERT_TRUE(fs.remove("/f").ok());
  EXPECT_EQ(fs.free_extents(), 64);
  EXPECT_EQ(fs.used_space(), 0);
}

TEST_F(ExtentFsTest, TruncateShrinksChain) {
  auto h = fs.create("/f");
  ASSERT_TRUE((*h)->truncate(10 * kExt).ok());
  EXPECT_EQ(fs.extents_of("/f"), 10);
  ASSERT_TRUE((*h)->truncate(2 * kExt).ok());
  EXPECT_EQ(fs.extents_of("/f"), 2);
  EXPECT_EQ((*h)->stat().value().size, 2 * kExt);
}

TEST_F(ExtentFsTest, VolumeFullIsNoSpace) {
  auto h = fs.create("/big");
  EXPECT_EQ((*h)->truncate(65 * kExt).code(), Errc::no_space);
  // A failed reserve must not leak extents permanently.
  ASSERT_TRUE(fs.remove("/big").ok());
  auto h2 = fs.create("/ok");
  EXPECT_TRUE((*h2)->truncate(64 * kExt).ok());
}

TEST_F(ExtentFsTest, DirectoryTreeSemantics) {
  ASSERT_TRUE(fs.mkdir("/d").ok());
  ASSERT_TRUE(fs.mkdir("/d/sub").ok());
  ASSERT_TRUE(fs.create("/d/f").ok());
  EXPECT_EQ(fs.mkdir("/d").code(), Errc::exists);
  EXPECT_EQ(fs.mkdir("/missing/x").code(), Errc::not_found);
  auto entries = fs.list("/d");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  EXPECT_EQ(fs.rmdir("/d").code(), Errc::busy);
  ASSERT_TRUE(fs.remove("/d/f").ok());
  ASSERT_TRUE(fs.rmdir("/d/sub").ok());
  EXPECT_TRUE(fs.rmdir("/d").ok());
}

TEST_F(ExtentFsTest, RenameKeepsData) {
  auto h = fs.create("/old");
  ASSERT_TRUE((*h)->pwrite(std::span("data", 4), 0).ok());
  ASSERT_TRUE(fs.rename("/old", "/new").ok());
  auto h2 = fs.open("/new");
  ASSERT_TRUE(h2.ok());
  char buf[4];
  ASSERT_TRUE((*h2)->pread(std::span(buf, 4), 0).ok());
  EXPECT_EQ(std::string(buf, 4), "data");
  EXPECT_EQ(fs.open("/old").code(), Errc::not_found);
}

TEST_F(ExtentFsTest, FragmentedAllocationStillWorks) {
  // Allocate interleaved files, free every other one, then allocate a file
  // that must reuse the scattered free extents.
  std::vector<FileHandlePtr> handles;
  for (int i = 0; i < 16; ++i) {
    auto h = fs.create("/f" + std::to_string(i));
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE((*h)->truncate(2 * kExt).ok());
    handles.push_back(*h);
  }
  for (int i = 0; i < 16; i += 2) {
    ASSERT_TRUE(fs.remove("/f" + std::to_string(i)).ok());
  }
  auto big = fs.create("/frag");
  ASSERT_TRUE(big.ok());
  std::string data(16 * kExt, 'z');
  ASSERT_TRUE((*big)->pwrite(std::span(data.data(), data.size()), 0).ok());
  std::string got(data.size(), '\0');
  ASSERT_TRUE((*big)->pread(std::span(got.data(), got.size()), 0).ok());
  EXPECT_TRUE(got == data);
  // Survivors are intact.
  for (int i = 1; i < 16; i += 2) {
    EXPECT_EQ(fs.stat("/f" + std::to_string(i))->size, 2 * kExt);
  }
}

TEST(ExtentFsVolume, HostFileBackedRoundTrip) {
  const auto vol = std::filesystem::temp_directory_path() /
                   ("nest_vol_" + std::to_string(::getpid()) + ".img");
  {
    auto fs = ExtentFs::open_volume(RealClock::instance(), vol.string(),
                                    32 * kExt);
    ASSERT_TRUE(fs.ok()) << fs.error().to_string();
    auto h = (*fs)->create("/data");
    ASSERT_TRUE(h.ok());
    std::string payload(3 * kExt, 'v');
    ASSERT_TRUE(
        (*h)->pwrite(std::span(payload.data(), payload.size()), 0).ok());
    std::string got(payload.size(), '\0');
    ASSERT_TRUE((*h)->pread(std::span(got.data(), got.size()), 0).ok());
    EXPECT_TRUE(got == payload);
    // The volume file on the host has the configured size.
    EXPECT_EQ(std::filesystem::file_size(vol),
              static_cast<std::uintmax_t>(32 * kExt));
  }
  std::filesystem::remove(vol);
}

TEST(ExtentFsAppliance, ServesAsStorageManagerBackend) {
  ManualClock clock;
  StorageManager mgr(clock,
                     std::make_unique<ExtentFs>(clock, 64 * kExt),
                     StorageOptions{.lot_capacity = 64 * kExt});
  Principal alice{.name = "alice", .groups = {}, .authenticated = true,
                  .protocol = "chirp"};
  ASSERT_TRUE(mgr.mkdir(alice, "/raw").ok());
  auto ticket = mgr.approve_write(alice, "/raw/file", 2 * kExt);
  ASSERT_TRUE(ticket.ok());
  std::string data(2 * kExt, 'x');
  ASSERT_TRUE(
      ticket->handle->pwrite(std::span(data.data(), data.size()), 0).ok());
  EXPECT_EQ(mgr.stat(alice, "/raw/file")->size, 2 * kExt);
  const auto ad = mgr.resource_ad();
  EXPECT_EQ(ad.eval_int("TotalSpace").value(), 64 * kExt);
  EXPECT_EQ(ad.eval_int("UsedSpace").value(), 2 * kExt);
}

// Property sweep: random write/read offsets agree with a reference string.
class ExtentFsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExtentFsFuzz, RandomIoMatchesReference) {
  ManualClock clock;
  ExtentFs fs(clock, 64 * kExt);
  auto h = fs.create("/f");
  ASSERT_TRUE(h.ok());
  std::string reference;
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  for (int op = 0; op < 120; ++op) {
    const std::int64_t offset =
        static_cast<std::int64_t>(rng() % (8 * kExt));
    const std::int64_t len = 1 + static_cast<std::int64_t>(rng() % 30000);
    std::string chunk(static_cast<std::size_t>(len),
                      static_cast<char>('a' + rng() % 26));
    ASSERT_TRUE(
        (*h)->pwrite(std::span(chunk.data(), chunk.size()), offset).ok());
    if (reference.size() < static_cast<std::size_t>(offset + len)) {
      reference.resize(static_cast<std::size_t>(offset + len), '\0');
    }
    std::copy(chunk.begin(), chunk.end(),
              reference.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  std::string got(reference.size(), '\0');
  auto n = (*h)->pread(std::span(got.data(), got.size()), 0);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(static_cast<std::size_t>(*n), reference.size());
  EXPECT_TRUE(got == reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentFsFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace nest::storage
